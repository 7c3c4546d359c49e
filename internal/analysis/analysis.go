// Package analysis is a stdlib-only mini framework for project-specific
// static analysis, plus the RHMD invariant checks built on it.
//
// The reproduction's correctness rests on invariants `go vet` cannot
// see: seeded-RNG determinism for repeatable evade/retrain games (paper
// Sections 6-7), 64-bit atomic alignment in the lock-free metrics
// registry, the write-temp -> fsync -> rename discipline in the
// durability layer, lock hygiene in the monitoring engine, and checked
// errors on writable-file Close/Flush/Sync. Each invariant is encoded
// as an Analyzer; the suite runs over type-checked packages loaded by
// Loader and reports Diagnostics with file:line:col positions.
// Deliberate exceptions are suppressed in source with
// `//rhmd:ignore <check>` comments (see suppress.go).
//
// The framework is a deliberately small subset of the
// golang.org/x/tools/go/analysis shape — Analyzer, Pass, Reportf — so
// checks could migrate to the real driver later without rewrites, while
// keeping the repository dependency-free.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Severity ranks a finding: errors gate CI, warnings inform. New
// heuristic analyzers land at SeverityWarn first and move to
// SeverityError once the codebase is clean.
const (
	SeverityError = "error"
	SeverityWarn  = "warn"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the check in diagnostics, -checks flags and
	// //rhmd:ignore comments.
	Name string
	// Doc is a one-line description shown by rhmd-lint -help.
	Doc string
	// Severity is SeverityError or SeverityWarn; empty means error.
	Severity string
	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass)
}

// severity returns the analyzer's effective severity.
func (a *Analyzer) severity() string {
	if a.Severity == "" {
		return SeverityError
	}
	return a.Severity
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Severity: p.Analyzer.severity(),
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Package:  p.Pkg.Path(),
		Analyzer: p.Analyzer,
	})
}

// TypeOf returns the type of expression e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Info.TypeOf(e)
}

// Diagnostic is one finding with its source position.
type Diagnostic struct {
	Check    string         `json:"check"`
	Severity string         `json:"severity"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
	Package  string         `json:"package"`
	Analyzer *Analyzer      `json:"-"`
}

// String renders the conventional file:line:col: [check] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// All returns every analyzer in the suite, in report order: the PR 4
// per-expression checks first, then the CFG/dataflow lifecycle suite.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, AtomicAlign, FsyncRename, LockDiscipline, ErrClose,
		GoroutineLeak, PoolHandoff, SpanBalance, WALOrder, MetricsConv,
	}
}

// ByName resolves a comma-separated -checks list ("" or "all" = every
// analyzer) against the suite.
func ByName(list string) ([]*Analyzer, error) {
	if list == "" || list == "all" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			known := make([]string, 0, len(byName))
			for n := range byName {
				known = append(known, n)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("analysis: unknown check %q (known: %s)", name, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Scopes restricts analyzers to the package subtrees where their
// invariant is load-bearing. A missing entry means the analyzer runs
// everywhere. Patterns are import-path prefixes relative to the module
// ("internal/prog" matches rhmd/internal/prog and its subpackages).
var Scopes = map[string][]string{
	// Determinism is an experiment-reproducibility property: the paper's
	// evade/retrain games (Sections 6-7) are only comparable across runs
	// if corpus synthesis, sampling and the game loop draw exclusively
	// from the injected seeded rng.Source. The span package is in scope
	// for the same reason in miniature: trace IDs come from a seeded
	// SplitMix64 stream and timestamps from the injected Config.Now, so
	// a stray time.Now or math/rand would silently break replayable
	// traces. The scenario DSL is in scope because a compiled corpus is
	// a perfbench workload's identity: identical seeds must produce
	// identical corpora or A/B comparisons measure different work.
	"determinism": {"internal/prog", "internal/rng", "internal/experiments", "internal/game", "internal/obs/span", "internal/scenario"},
	// The fsync-before-rename protocol is the durability layer's
	// contract: the checkpoint store implements it (every model file
	// goes through checkpoint.WriteSealed), and the monitor's
	// checkpoint path routes through it.
	"fsyncrename": {"internal/checkpoint", "internal/monitor"},
	// Goroutine lifecycle matters where the serving stack launches
	// long-lived workers: the monitor engine, the fleet, the drift
	// guard's background retrains, obs HTTP serving, and the
	// operational cmd binaries.
	"goroutineleak": {"internal/monitor", "internal/fleet", "internal/driftguard", "internal/obs", "cmd"},
	// Pool/span ownership handoff is the PR 5 race class: the packages
	// that pass pooled spans between goroutines. internal/obs/span
	// itself implements the recycler, so it is deliberately outside
	// the scope — the check is for users of the pool, not its owner.
	"poolhandoff": {"internal/monitor", "internal/fleet", "internal/driftguard"},
	// Span balance applies to the packages that open verdict traces.
	"spanbalance": {"internal/monitor", "internal/fleet", "internal/driftguard"},
	// The WAL-before-publish protocol is the PR 8 swap invariant; it
	// lives in the monitor's swap/verdict paths, the fleet's per-shard
	// catch-up, and the checkpoint store itself.
	"walorder": {"internal/monitor", "internal/fleet", "internal/checkpoint"},
}

// scopeAllows reports whether analyzer a runs on package path pkgPath
// (a full import path; modulePath is stripped before matching).
func scopeAllows(a *Analyzer, modulePath, pkgPath string) bool {
	prefixes, ok := Scopes[a.Name]
	if !ok {
		return true
	}
	rel := strings.TrimPrefix(pkgPath, modulePath+"/")
	for _, pre := range prefixes {
		if rel == pre || strings.HasPrefix(rel, pre+"/") {
			return true
		}
	}
	return false
}

// Result is the outcome of a suite run.
type Result struct {
	// Diagnostics that survived suppression, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts findings silenced by //rhmd:ignore, per check.
	Suppressed map[string]int
	// UnusedIgnores lists //rhmd:ignore comments that silenced nothing
	// in this run — stale suppressions the audit wants deleted. Only
	// meaningful when the run included every analyzer.
	UnusedIgnores []IgnoreComment
}

// RunSuite runs the analyzers over the packages, applies //rhmd:ignore
// suppressions, and returns position-sorted unsuppressed diagnostics.
// Packages are analyzed in parallel: loading is single-threaded and
// already done, and after it every Pass input is read-only.
func RunSuite(analyzers []*Analyzer, pkgs []*Package) Result {
	res := Result{Suppressed: map[string]int{}}
	type pkgOut struct {
		diags  []Diagnostic
		unused []IgnoreComment
	}
	outs := make([]pkgOut, len(pkgs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex // guards res.Suppressed
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pkgs) {
					return
				}
				pkg := pkgs[i]
				var raw []Diagnostic
				for _, a := range analyzers {
					if !scopeAllows(a, pkg.Module, pkg.Path) {
						continue
					}
					pass := &Pass{
						Analyzer: a,
						Fset:     pkg.Fset,
						Files:    pkg.Files,
						Pkg:      pkg.Types,
						Info:     pkg.Info,
						diags:    &raw,
					}
					a.Run(pass)
				}
				sup := suppressionsOf(pkg)
				for _, d := range raw {
					if sup.covers(d) {
						mu.Lock()
						res.Suppressed[d.Check]++
						mu.Unlock()
						continue
					}
					d.File = d.Pos.Filename
					d.Line = d.Pos.Line
					d.Col = d.Pos.Column
					outs[i].diags = append(outs[i].diags, d)
				}
				outs[i].unused = sup.unused()
			}
		}()
	}
	wg.Wait()
	for _, o := range outs {
		res.Diagnostics = append(res.Diagnostics, o.diags...)
		res.UnusedIgnores = append(res.UnusedIgnores, o.unused...)
	}
	sort.Slice(res.UnusedIgnores, func(i, j int) bool {
		a, b := res.UnusedIgnores[i], res.UnusedIgnores[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return res
}

// isTestFile reports whether the file at pos is a _test.go file; checks
// that only apply to production code call this to skip test scaffolding.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(path.Base(fset.Position(pos).Filename), "_test.go")
}
