package incident

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
)

// Handler serves the incident directory: GET /incidents lists retained
// bundle IDs; GET /incidents?id=<bundle-id> downloads one bundle
// verbatim. IDs are validated against the directory listing, so the
// query string cannot escape the incident dir.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		ids, err := r.List()
		if err != nil {
			// An incident dir that was never created (no captures yet)
			// is an empty listing, not an error.
			ids = nil
		}
		id := req.URL.Query().Get("id")
		if id == "" {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			doc := struct {
				Dir       string   `json:"dir"`
				Keep      int      `json:"keep"`
				Incidents []string `json:"incidents"`
			}{Dir: r.cfg.Dir, Keep: keep, Incidents: ids}
			if doc.Incidents == nil {
				doc.Incidents = []string{}
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(doc)
			return
		}
		for _, known := range ids {
			if id == known {
				data, err := r.cfg.FS.ReadFile(filepath.Join(r.cfg.Dir, id+".json"))
				if err != nil {
					http.Error(w, fmt.Sprintf("read bundle: %v", err), http.StatusInternalServerError)
					return
				}
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", id+".json"))
				_, _ = w.Write(data)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown incident %q", id), http.StatusNotFound)
	})
}
