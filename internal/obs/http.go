package obs

import (
	"encoding/json"
	"expvar"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
)

// Handler serves the registry at a single endpoint:
//
//	GET /metrics              line-oriented text (name value)
//	GET /metrics?format=json  expvar-compatible flat JSON
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteText(w)
	})
}

// ScanDebug is the scan-engine surface a reclamation layer plugs into
// this package (obs must not import reclaim). Info returns a
// JSON-serializable snapshot of every instrumented scheme's scan state.
type ScanDebug struct {
	Info func() any
}

var scanDebug struct {
	mu sync.Mutex
	d  *ScanDebug
}

// SetScanDebug registers the process-wide scan-engine debug surface.
// Called once from the reclamation package's init.
func SetScanDebug(d *ScanDebug) {
	scanDebug.mu.Lock()
	scanDebug.d = d
	scanDebug.mu.Unlock()
}

func getScanDebug() *ScanDebug {
	scanDebug.mu.Lock()
	defer scanDebug.mu.Unlock()
	return scanDebug.d
}

// TraceHandler serves the retire-path trace ring and the scan-engine
// state:
//
//	GET  /debug/reclaim              {"enabled":…,"recorded":…,"events":[…],
//	                                  "scan":{"engines":{…}}}
//	GET  /debug/reclaim?n=512        limit the dump
//	POST /debug/reclaim?trace=on|off toggle recording
func TraceHandler() http.Handler { return RingHandler(Trace) }

// RingHandler serves an arbitrary ring (tests use private rings).
func RingHandler(r *Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if t := req.URL.Query().Get("trace"); t != "" {
			if req.Method != http.MethodPost {
				http.Error(w, "toggling requires POST", http.StatusMethodNotAllowed)
				return
			}
			r.SetEnabled(t == "on" || t == "1" || t == "true")
		}
		n := 256
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil {
				n = v
			}
		}
		body := map[string]any{
			"enabled":  r.Enabled(),
			"recorded": r.Len(),
			"events":   r.Dump(n),
		}
		if d := getScanDebug(); d != nil && d.Info != nil {
			body["scan"] = map[string]any{"engines": d.Info()}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(body)
	})
}

var expvarOnce sync.Once

// Mux mounts the full debug surface for a registry:
//
//	/metrics        text + JSON metrics (Handler)
//	/debug/reclaim  trace ring (TraceHandler)
//	/debug/vars     standard expvar page, with the registry published
//	                under "orcstore" so stock expvar tooling sees it
func Mux(reg *Registry) *http.ServeMux {
	expvarOnce.Do(func() {
		expvar.Publish("orcstore", expvar.Func(func() any {
			flat := map[string]any{}
			for _, m := range reg.Snapshot() {
				if m.Kind == "hist" {
					flat[m.Name] = m.Hist
				} else {
					flat[m.Name] = m.Value
				}
			}
			return flat
		}))
	})
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/reclaim", TraceHandler())
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// AttachPprof mounts the standard net/http/pprof surface on mux under
// /debug/pprof/. It is opt-in (the kvserver/kvproxy -pprof flag) rather
// than part of Mux: the profile endpoints can pause the world, which is
// not something a metrics port should offer by default.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
