package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rhmd/internal/analysis"
)

// sampleDiags is a fixed pair of findings (one error, one warn) used to
// pin the output encodings.
func sampleDiags() []analysis.Diagnostic {
	d1 := analysis.Diagnostic{
		Check:    "walorder",
		Severity: "error",
		File:     "internal/monitor/swap.go",
		Line:     131,
		Col:      2,
		Message:  "atomic publish may run before the WAL append on some path; append to the checkpoint store first",
		Package:  "rhmd/internal/monitor",
	}
	d2 := analysis.Diagnostic{
		Check:    "goroutineleak",
		Severity: "warn",
		File:     "internal/driftguard/driftguard.go",
		Line:     210,
		Col:      2,
		Message:  "goroutine has no shutdown edge (ctx/done channel/WaitGroup) and calls through the function-typed field Retrain",
		Package:  "rhmd/internal/driftguard",
	}
	return []analysis.Diagnostic{d1, d2}
}

// TestJSONEnvelopeGolden pins the rhmd.lint/v1 envelope byte-for-byte.
// Any change here is a breaking change for -json consumers and needs a
// schema bump.
func TestJSONEnvelopeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, sampleDiags()); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "rhmd.lint/v1",
  "diagnostics": [
    {
      "check": "walorder",
      "severity": "error",
      "file": "internal/monitor/swap.go",
      "line": 131,
      "col": 2,
      "message": "atomic publish may run before the WAL append on some path; append to the checkpoint store first",
      "package": "rhmd/internal/monitor"
    },
    {
      "check": "goroutineleak",
      "severity": "warn",
      "file": "internal/driftguard/driftguard.go",
      "line": 210,
      "col": 2,
      "message": "goroutine has no shutdown edge (ctx/done channel/WaitGroup) and calls through the function-typed field Retrain",
      "package": "rhmd/internal/driftguard"
    }
  ]
}
`
	if got := buf.String(); got != want {
		t.Errorf("envelope encoding changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestJSONEnvelopeEmpty pins that a clean run emits an empty array, not
// null — consumers iterate .diagnostics unconditionally.
func TestJSONEnvelopeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	const want = `{
  "schema": "rhmd.lint/v1",
  "diagnostics": []
}
`
	if got := buf.String(); got != want {
		t.Errorf("empty envelope = %q, want %q", got, want)
	}
}

// TestSARIFGolden pins the SARIF 2.1.0 encoding for one rule and one
// result: version, rule metadata with default level, result level
// derived from severity, and SRCROOT-based module-relative URIs.
func TestSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	err := writeSARIF(&buf, []*analysis.Analyzer{analysis.WALOrder}, sampleDiags()[:1])
	if err != nil {
		t.Fatal(err)
	}
	want := `{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "rhmd-lint",
          "rules": [
            {
              "id": "walorder",
              "shortDescription": {
                "text": ` + "`" + `` + "`" + `
              },
              "defaultConfiguration": {
                "level": "error"
              }
            }
          ]
        }
      },
      "results": [
        {
          "ruleId": "walorder",
          "level": "error",
          "message": {
            "text": "atomic publish may run before the WAL append on some path; append to the checkpoint store first"
          },
          "locations": [
            {
              "physicalLocation": {
                "artifactLocation": {
                  "uri": "internal/monitor/swap.go",
                  "uriBaseId": "SRCROOT"
                },
                "region": {
                  "startLine": 131,
                  "startColumn": 2
                }
              }
            }
          ]
        }
      ]
    }
  ]
}
`
	// The rule doc is maintained prose, not a wire contract; splice the
	// live value into the golden rather than pinning it.
	doc, err := json.Marshal(analysis.WALOrder.Doc)
	if err != nil {
		t.Fatal(err)
	}
	want = strings.Replace(want, "``", string(doc), 1)
	if got := buf.String(); got != want {
		t.Errorf("SARIF encoding changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSARIFLevels pins the severity → SARIF level mapping.
func TestSARIFLevels(t *testing.T) {
	if got := sarifLevel(analysis.SeverityWarn); got != "warning" {
		t.Errorf("warn maps to %q, want warning", got)
	}
	if got := sarifLevel(analysis.SeverityError); got != "error" {
		t.Errorf("error maps to %q, want error", got)
	}
	if got := sarifLevel(""); got != "error" {
		t.Errorf("empty severity maps to %q, want error", got)
	}
}

// TestFailingGatesOnErrorSeverity pins the gate: an error-severity
// finding fails the run, a warn-severity finding only informs.
func TestFailingGatesOnErrorSeverity(t *testing.T) {
	diags := sampleDiags()
	if got := failing(diags); got != 1 {
		t.Errorf("failing(error + warn) = %d, want 1", got)
	}
	if got := failing(diags[1:]); got != 0 {
		t.Errorf("failing(warn only) = %d, want 0", got)
	}
	if got := failing(nil); got != 0 {
		t.Errorf("failing(clean) = %d, want 0", got)
	}
}
