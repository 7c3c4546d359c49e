package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestJSONHandler: a status endpoint serves its document as indented
// JSON to GET and refuses other methods with 405 and an Allow header.
func TestJSONHandler(t *testing.T) {
	h := JSONHandler(func() any { return map[string]int{"serving": 2} })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/fleet", nil))
	if rr.Code != 200 || rr.Body.String() != "{\n  \"serving\": 2\n}\n" {
		t.Fatalf("GET = %d %q, want 200 and the indented document", rr.Code, rr.Body.String())
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/fleet", nil))
	if rr.Code != 405 || rr.Header().Get("Allow") != "GET, HEAD" {
		t.Fatalf("POST = %d (Allow %q), want 405 (GET, HEAD)", rr.Code, rr.Header().Get("Allow"))
	}
}

// TestListenAndServe boots the real server on an ephemeral port — the
// exact path cmd/rhmd-monitor takes — scrapes it, and shuts it down.
func TestListenAndServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("lns_total", "listen-and-serve smoke").Add(7)

	addr, shutdown, err := ListenAndServe("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}()

	for path, want := range map[string]string{
		"/metrics": "lns_total 7",
		"/traces":  "[]",
		"/healthz": "ok",
	} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: status %d, body %q (want substring %q)", path, resp.StatusCode, body, want)
		}
	}
	// Kept traces are the only event stream; no second drain is mounted.
	resp, err := http.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /events: status %d, want 404", resp.StatusCode)
	}
}

// TestListenAndServeBadAddr surfaces listen failures instead of
// crashing the CLI later.
func TestListenAndServeBadAddr(t *testing.T) {
	if _, _, err := ListenAndServe("256.0.0.1:bogus", NewRegistry()); err == nil {
		t.Fatal("expected error for unlistenable address")
	}
}

// TestServerHardening: the introspection server bounds every
// connection phase — a slow or stalled scraper must time out, not pin
// a reader goroutine forever.
func TestServerHardening(t *testing.T) {
	srv := newServer(http.NewServeMux())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("read/idle phases unbounded: %+v", srv)
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Fatalf("WriteTimeout %v must exceed the 30s pprof profile window", srv.WriteTimeout)
	}
}

// TestRequestBodyCap: nothing on this mux reads a body, so a huge
// declared body is rejected up front and an undeclared (chunked) one
// is hard-capped rather than buffered.
func TestRequestBodyCap(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cap_total", "body-cap test").Inc()
	h := capRequestBody(NewMux(reg), maxRequestBody)

	big := httptest.NewRequest("POST", "/metrics", strings.NewReader("x"))
	big.ContentLength = maxRequestBody + 1
	w := httptest.NewRecorder()
	h.ServeHTTP(w, big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized declared body: status %d, want 413", w.Code)
	}

	ok := httptest.NewRequest("GET", "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, ok)
	if w.Code != 200 || !strings.Contains(w.Body.String(), "cap_total 1") {
		t.Fatalf("plain scrape through the cap: status %d body %q", w.Code, w.Body.String())
	}

	// A lying sender (small Content-Length, bigger body) is capped by
	// the MaxBytesReader the middleware installed.
	lying := httptest.NewRequest("POST", "/healthz", strings.NewReader(strings.Repeat("y", 64)))
	lying.ContentLength = -1 // chunked: length unknown up front
	w = httptest.NewRecorder()
	h.ServeHTTP(w, lying)
	if w.Code != 200 {
		t.Fatalf("chunked small body rejected: status %d", w.Code)
	}
}

// TestIndexPage: GET and HEAD / answer with a page linking every path
// the mux serves, in sorted order, /debug/pprof/ and mounts included;
// Paths is that list. Other methods on / are refused, and every other
// unknown path stays 404.
func TestIndexPage(t *testing.T) {
	mounts := []Mount{{Path: "/fleet", Handler: JSONHandler(func() any { return nil })}}
	want := []string{"/debug/pprof/", "/fleet", "/healthz", "/metrics", "/traces"}
	if got := Paths(NewRegistry(), mounts...); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Paths = %v, want %v", got, want)
	}
	mux := NewMux(NewRegistry(), mounts...)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("GET / = %d (%s), want 200 text/html", rr.Code, rr.Header().Get("Content-Type"))
	}
	page, at := rr.Body.String(), 0
	for _, p := range want {
		link := `<a href="` + p + `">` + p + `</a>`
		i := strings.Index(page[at:], link)
		if i < 0 {
			t.Fatalf("GET / lacks %s after byte %d, or lists it out of order:\n%s", link, at, page)
		}
		at += i + len(link)
	}
	for _, p := range want {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", p, nil))
		if rr.Code != 200 {
			t.Fatalf("GET %s (linked from /) = %d, want 200", p, rr.Code)
		}
	}

	for _, c := range []struct {
		method, path string
		code         int
	}{
		{"HEAD", "/", 200},
		{"POST", "/", http.StatusMethodNotAllowed},
		{"GET", "/index.html", 404},
		{"GET", "/nope", 404},
		{"GET", "/events", 404},
	} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(c.method, c.path, nil))
		if rr.Code != c.code {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, rr.Code, c.code)
		}
	}
}
