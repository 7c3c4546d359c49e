package obs

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"
)

// GaugeFunc is a gauge whose value is computed at read time — scrape,
// snapshot, or Value call — instead of stored. It renders as a plain
// gauge in every exposition. The callback must be safe for concurrent
// use and must not block (it runs under the family lock during
// exposition).
type GaugeFunc struct {
	fn func() float64
}

// Value evaluates the callback.
func (g *GaugeFunc) Value() float64 { return g.fn() }

// GaugeFunc registers a computed scalar gauge. Re-registering an
// existing name keeps the first callback (the registry's usual
// idempotence); registering over a stored Gauge of the same name
// panics via the usual kind checks at read time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) *GaugeFunc {
	if fn == nil {
		panic(fmt.Sprintf("obs: GaugeFunc %q registered with nil callback", name))
	}
	f := r.register(name, help, gaugeKind, nil, nil)
	key := strings.Join(r.values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		if g, ok := m.(*GaugeFunc); ok {
			return g
		}
		panic(fmt.Sprintf("obs: metric %q re-registered as gauge func (was stored gauge)", name))
	}
	g := &GaugeFunc{fn: fn}
	f.children[key] = g
	return g
}

// processStart anchors the process start-time and uptime metrics. It is
// the package-load instant, which for any realistic main() is within
// milliseconds of exec.
var processStart = time.Now()

// RegisterBuildInfo registers the process identity metrics every
// long-lived rhmd binary exposes on /metrics:
//
//	rhmd_build_info{goversion,revision,modified} 1
//	rhmd_process_start_time_seconds   <unix seconds, set once>
//	rhmd_process_uptime_seconds       <computed at scrape time>
//
// Build metadata comes from debug.ReadBuildInfo: goversion is always
// available; revision and modified reflect the VCS stamp when the
// binary was built from a checkout (empty otherwise, e.g. under plain
// `go test`). The function is idempotent per registry.
func RegisterBuildInfo(reg *Registry) {
	goversion, revision, modified := BuildInfo()
	reg.GaugeVec("rhmd_build_info",
		"Build identity: constant 1 labeled with the Go toolchain version and VCS revision the binary was built from.",
		"goversion", "revision", "modified").With(goversion, revision, modified).Set(1)
	reg.Gauge("rhmd_process_start_time_seconds",
		"Unix time the process started, for uptime math and restart detection.").
		Set(float64(processStart.UnixNano()) / 1e9)
	reg.GaugeFunc("rhmd_process_uptime_seconds",
		"Seconds since process start, computed at scrape time.",
		func() float64 { return time.Since(processStart).Seconds() })
}

// BuildInfo returns the binary's Go toolchain version and VCS stamp
// (revision hash and whether the worktree was modified); revision and
// modified are empty when the build carried no VCS metadata.
func BuildInfo() (goversion, revision, modified string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown", "", ""
	}
	goversion = bi.GoVersion
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	return goversion, revision, modified
}
