package hmd

import (
	"bytes"
	"strings"
	"testing"

	"rhmd/internal/features"
)

func TestDetectorSaveLoadRoundTrip(t *testing.T) {
	_, mw := env(t)
	for _, algo := range []string{"lr", "nn", "dt", "svm"} {
		for _, kind := range []features.Kind{features.Instructions, features.Memory} {
			spec := Spec{Kind: kind, Period: 2000, Algo: algo}
			d, err := Train(spec, mw.Get(kind), 1)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, d); err != nil {
				t.Fatalf("%s save: %v", spec, err)
			}
			got, err := Load(&buf)
			if err != nil {
				t.Fatalf("%s load: %v", spec, err)
			}
			if got.Spec != d.Spec || got.Threshold != d.Threshold {
				t.Fatalf("%s metadata changed: %+v vs %+v", spec, got.Spec, d.Spec)
			}
			// Scores must be bit-identical after the round trip.
			for i := 0; i < 40; i++ {
				x := mw.Get(kind).X[i]
				if got.ScoreWindow(x) != d.ScoreWindow(x) {
					t.Fatalf("%s scores diverge after round trip", spec)
				}
			}
		}
	}
}

func TestLoadRejectsCorruptPayloads(t *testing.T) {
	cases := []struct {
		name, payload string
	}{
		{"not json", `not json`},
		{"empty input", ``},
		{"wrong top-level type", `[1,2,3]`},
		{"string for object", `"detector"`},
		{"unknown kind", `{"kind":"bogus","period":100,"algo":"lr"}`},
		{"zero period", `{"kind":"memory","period":0,"algo":"lr"}`},
		{"negative period", `{"kind":"memory","period":-5,"algo":"lr"}`},
		{"wrong period type", `{"kind":"memory","period":"fast","algo":"lr"}`},
		{"unknown algo", `{"kind":"memory","period":100,"algo":"nope"}`},
		{"scaler/model dim mismatch", `{"kind":"memory","period":100,"algo":"lr","model":{"algo":"lr","model":{"W":[1]}},"scaler":{"Mean":[0,0],"Std":[1,1]}}`},
		{"feature index out of range", `{"kind":"memory","period":100,"algo":"lr","featureIdx":[999],"model":{"algo":"lr","model":{"W":[1]}},"scaler":{"Mean":[0],"Std":[1]}}`},
		{"zero scaler std", `{"kind":"memory","period":100,"algo":"lr","featureIdx":[3],"model":{"algo":"lr","model":{"W":[1]}},"scaler":{"Mean":[0],"Std":[0]}}`},
		{"negative scaler std", `{"kind":"memory","period":100,"algo":"lr","featureIdx":[3],"model":{"algo":"lr","model":{"W":[1]}},"scaler":{"Mean":[0],"Std":[-1]}}`},
		{"huge threshold overflows", `{"kind":"memory","period":100,"algo":"lr","featureIdx":[3],"model":{"algo":"lr","model":{"W":[1]}},"scaler":{"Mean":[0],"Std":[1]},"threshold":1e999}`},
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c.payload)); err == nil {
			t.Fatalf("%s: corrupt payload accepted", c.name)
		}
	}
}

// TestLoadSurvivesMangledValidDetector corrupts a genuine serialized
// detector — truncation and single-byte flips — and requires Load to
// fail cleanly or produce an equally valid detector (a flip inside a
// float payload), never panic.
func TestLoadSurvivesMangledValidDetector(t *testing.T) {
	_, mw := env(t)
	d, err := Train(Spec{Kind: features.Memory, Period: 2000, Algo: "lr"}, mw.Get(features.Memory), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, d); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for cut := 0; cut < len(valid); cut += 37 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("truncation at %d panicked: %v", cut, r)
				}
			}()
			Load(bytes.NewReader(valid[:cut]))
		}()
	}
	for pos := 0; pos < len(valid); pos += 11 {
		mangled := append([]byte(nil), valid...)
		mangled[pos] ^= 0x20
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("bit flip at %d panicked: %v", pos, r)
				}
			}()
			Load(bytes.NewReader(mangled))
		}()
	}
}
