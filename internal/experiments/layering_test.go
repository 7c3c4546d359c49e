package experiments

import (
	"go/build"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestReproductionExcludesServingEngine walks the non-test imports of
// this package transitively and fails if the figure pipeline reaches
// any package of the serving engine: the reproduction builds on its
// own, so none of its results can depend on durability, telemetry or
// serving code.
func TestReproductionExcludesServingEngine(t *testing.T) {
	const module = "rhmd/"
	banned := map[string]bool{}
	for _, p := range []string{"checkpoint", "obs", "obs/span", "obs/slo", "obs/incident",
		"monitor", "fleet", "driftguard", "scenario", "analysis"} {
		banned[module+"internal/"+p] = true
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	seen := map[string]bool{}
	queue := []string{module + "internal/experiments"}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		pkg, err := build.ImportDir(filepath.Join(root, strings.TrimPrefix(path, module)), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if banned[imp] {
				bad = append(bad, path+" → "+imp)
			}
			if strings.HasPrefix(imp, module) && !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("the reproduction imports the serving engine: %s", strings.Join(bad, ", "))
	}
}
