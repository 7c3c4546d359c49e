package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// Handler returns the /metrics handler. The exposition format is
// negotiated from the scraper's Accept header: a client that asks for
// `application/openmetrics-text` gets the OpenMetrics rendering
// (exemplars included); everyone else — including every pre-existing
// scraper — gets the Prometheus 0.0.4 text exposition unchanged.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if AcceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", ContentTypeOpenMetrics)
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the status document doc returns as indented
// JSON — the /fleet, /drift and /slo endpoints. GET and HEAD only: any
// other method is answered 405.
func JSONHandler(doc func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc())
	})
}

// Mount adds (or overrides) one path on the introspection mux — the
// hook for handlers obs cannot know about, like the kept verdict
// traces of internal/obs/span on /traces.
type Mount struct {
	Path    string
	Handler http.Handler
}

// NewMux assembles the introspection endpoint: /metrics (negotiated
// Prometheus/OpenMetrics exposition), /traces (kept verdict traces; an
// empty set until a span recorder is mounted over it), /healthz, the
// standard net/http/pprof handlers under /debug/pprof/, and an index
// page at / that links every path Paths lists — all on one private mux
// so importing obs never touches http.DefaultServeMux. Extra mounts
// override defaults by path. Every other path is 404.
func NewMux(reg *Registry, mounts ...Mount) *http.ServeMux {
	mux := http.NewServeMux()
	for path, h := range routes(reg, mounts) {
		mux.Handle(path, h)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// GET also answers HEAD; {$} matches "/" alone.
	mux.Handle("GET /{$}", indexHandler(Paths(reg, mounts...)))
	return mux
}

// Paths lists the paths NewMux(reg, mounts...) serves, sorted, with
// the pprof handlers under their own index, /debug/pprof/. The index
// page at / links them, and rhmd-monitor's start-up line prints them.
func Paths(reg *Registry, mounts ...Mount) []string {
	paths := []string{"/debug/pprof/"}
	for path := range routes(reg, mounts) {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// routes maps each path NewMux serves, / and the pprof handlers aside,
// to its handler.
func routes(reg *Registry, mounts []Mount) map[string]http.Handler {
	handlers := map[string]http.Handler{
		"/traces": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintln(w, "[]")
		}),
		"/healthz": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		}),
	}
	if reg != nil {
		handlers["/metrics"] = reg.Handler()
	}
	for _, m := range mounts {
		handlers[m.Path] = m.Handler
	}
	return handlers
}

// indexHandler serves the index page: one link per path.
func indexHandler(paths []string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintln(w, "<!DOCTYPE html>\n<title>rhmd</title>\n<ul>")
		for _, p := range paths {
			p = html.EscapeString(p)
			fmt.Fprintf(w, "<li><a href=\"%s\">%s</a></li>\n", p, p)
		}
		fmt.Fprintln(w, "</ul>")
	})
}

// maxRequestBody caps request bodies on the introspection endpoint. No
// handler here reads a body at all, so anything past a megabyte is a
// misdirected upload or an attempt to wedge the server's readers.
const maxRequestBody = 1 << 20

// newServer wraps the handler in the hardened server configuration:
// every read, write and idle phase is bounded so one slow or stalled
// scraper cannot pin a connection (and its goroutine) forever, and
// request bodies are capped. WriteTimeout leaves room for the longest
// legitimate response — a 30s pprof CPU profile — with margin.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           capRequestBody(h, maxRequestBody),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      90 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
}

// capRequestBody rejects requests declaring more than max bytes of
// body up front (413) and hard-caps chunked or lying senders with a
// MaxBytesReader, so no handler can be made to buffer unbounded input.
func capRequestBody(h http.Handler, max int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.ContentLength > max {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		if req.Body != nil {
			req.Body = http.MaxBytesReader(w, req.Body, max)
		}
		h.ServeHTTP(w, req)
	})
}

// ListenAndServe starts the introspection endpoint on addr in a
// background goroutine and returns the bound address (useful with
// ":0") plus a shutdown func. The server is plain HTTP: this is a
// loopback/ops endpoint, not a public surface — but it is hardened
// (see newServer) so a misbehaving scraper degrades only itself.
func ListenAndServe(addr string, reg *Registry, mounts ...Mount) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	srv := newServer(NewMux(reg, mounts...))
	//rhmd:ignore goroutineleak Serve's shutdown edge is the returned srv.Shutdown closure, which makes Serve return; the analyzer cannot see through the *http.Server
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Shutdown, nil
}
