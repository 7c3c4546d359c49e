// Command rhmd-lint runs the project-invariant analyzer suite
// (internal/analysis) over module packages: the per-expression checks
// (seeded-RNG determinism, 64-bit atomic alignment, fsync-before-rename
// durability, mutex discipline, checked Close/Flush/Sync errors) and
// the CFG/dataflow lifecycle suite (goroutine shutdown edges, pooled
// span handoff, span Finish balance, WAL-before-publish ordering,
// metrics naming conventions).
//
// Usage:
//
//	rhmd-lint [flags] [packages...]
//
// Packages default to ./... resolved against the enclosing module.
//
// Exit codes (the CI contract):
//
//	0  clean — no error-severity findings (warn-severity findings are
//	   reported but only inform)
//	1  unsuppressed error-severity findings were reported
//	2  the run itself failed (bad flags, unparseable or untypeable code)
//
// Deliberate exceptions are suppressed in source with
// `//rhmd:ignore <check> <reason>` on the offending line or the line
// above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rhmd/internal/analysis"
)

// lintSchema versions the -json envelope; consumers reject anything else.
const lintSchema = "rhmd.lint/v1"

// envelope is the -json output shape.
type envelope struct {
	Schema      string                `json:"schema"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
}

// writeJSON encodes diagnostics in the versioned envelope. Split out of
// main so the golden test can pin the encoding.
func writeJSON(w io.Writer, diags []analysis.Diagnostic) error {
	if diags == nil {
		diags = []analysis.Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(envelope{Schema: lintSchema, Diagnostics: diags})
}

func main() {
	checks := flag.String("checks", "all", "comma-separated checks to run (default: all)")
	asJSON := flag.Bool("json", false, `emit the {"schema":"rhmd.lint/v1","diagnostics":[...]} envelope on stdout`)
	listChecks := flag.Bool("list", false, "list available checks with severities and exit")
	sarifOut := flag.String("sarif", "", "also write a SARIF 2.1.0 report to this file (- for stdout)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "usage: rhmd-lint [flags] [packages...]\n\nChecks:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(out, "  %-15s %-5s  %s\n", a.Name, severityOf(a), a.Doc)
		}
		fmt.Fprintf(out, "\nExit codes:\n")
		fmt.Fprintf(out, "  0  clean (no error-severity findings; warn-severity findings only inform)\n")
		fmt.Fprintf(out, "  1  error-severity findings were reported\n")
		fmt.Fprintf(out, "  2  the run itself failed (bad flags, unparseable or untypeable code)\n")
		fmt.Fprintf(out, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listChecks {
		for _, a := range analysis.All() {
			fmt.Printf("%-15s %-5s  %s\n", a.Name, severityOf(a), a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*checks)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}

	res := analysis.RunSuite(analyzers, pkgs)
	relativize(res.Diagnostics, loader.Root())

	if *sarifOut != "" {
		if err := emitSARIF(*sarifOut, analyzers, res.Diagnostics); err != nil {
			fatal(err)
		}
	}

	switch {
	case *asJSON:
		if err := writeJSON(os.Stdout, res.Diagnostics); err != nil {
			fatal(err)
		}
	case *sarifOut == "-":
		// SARIF owns stdout; the human-readable listing would corrupt it.
	default:
		for _, d := range res.Diagnostics {
			fmt.Println(d)
		}
		if n := len(res.Diagnostics); n > 0 {
			fmt.Fprintf(os.Stderr, "rhmd-lint: %d diagnostic(s) in %d package(s)\n", n, len(pkgs))
		}
		// Suppressions stay visible even on clean runs, so `//rhmd:ignore`
		// creep shows up in CI logs rather than accumulating silently.
		suppressed := 0
		for _, n := range res.Suppressed {
			suppressed += n
		}
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "rhmd-lint: %d diagnostic(s) suppressed via //rhmd:ignore\n", suppressed)
		}
	}

	if failing(res.Diagnostics) > 0 {
		os.Exit(1)
	}
}

// failing counts the diagnostics that gate the run: error-severity
// findings fail it, warn-severity findings only inform.
func failing(diags []analysis.Diagnostic) int {
	n := 0
	for _, d := range diags {
		if d.Severity == analysis.SeverityError {
			n++
		}
	}
	return n
}

// relativize rewrites diagnostic paths relative to the module root so
// output and SARIF artifacts are checkout-independent.
func relativize(diags []analysis.Diagnostic, root string) {
	for i := range diags {
		d := &diags[i]
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil || filepath.IsAbs(rel) || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			continue
		}
		d.Pos.Filename = filepath.ToSlash(rel)
		d.File = d.Pos.Filename
	}
}

// emitSARIF writes the SARIF report to path ("-" for stdout). The
// explicit Close check is the suite's own errclose invariant: an
// artifact truncated by ENOSPC must fail the run, not upload silently.
func emitSARIF(path string, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	if path == "-" {
		return writeSARIF(os.Stdout, analyzers, diags)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := writeSARIF(f, analyzers, diags)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// severityOf mirrors the package's empty-means-error default.
func severityOf(a *analysis.Analyzer) string {
	if a.Severity == "" {
		return analysis.SeverityError
	}
	return a.Severity
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rhmd-lint:", err)
	os.Exit(2)
}
