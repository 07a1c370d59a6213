package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/diagnosis"
	"repro/internal/nemoeval"
	"repro/internal/nql/analysis"
	"repro/internal/obs"
	"repro/internal/queries"
	"repro/internal/traffic"
)

// queryRequest is the POST /v1/query body.
type queryRequest struct {
	Tenant    string `json:"tenant"`
	Query     string `json:"query,omitempty"`
	QueryID   string `json:"query_id,omitempty"`
	Backend   string `json:"backend,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Profile   bool   `json:"profile,omitempty"`
}

// queryResponse is the POST /v1/query success body.
type queryResponse struct {
	Result     string        `json:"result"`
	Stdout     string        `json:"stdout,omitempty"`
	Backend    string        `json:"backend"`
	Dataset    string        `json:"dataset"`
	Degraded   bool          `json:"degraded,omitempty"`
	DurationMS int64         `json:"duration_ms"`
	Profile    *QueryProfile `json:"profile,omitempty"`
}

// errorResponse is every non-2xx body. Diagnostics is populated only for
// static-analysis rejections (400): one entry per error-severity finding,
// so clients can fix programs without parsing the flat message.
type errorResponse struct {
	Error       string                `json:"error"`
	Class       string                `json:"class,omitempty"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics,omitempty"`
}

// swapRequest is the POST /admin/swap body: a named dataset to load and
// flip to. App selects the builder ("traffic", "malt", "diagnosis");
// traffic accepts an explicit scale.
type swapRequest struct {
	Name  string `json:"name"`
	App   string `json:"app"`
	Nodes int    `json:"nodes,omitempty"`
	Edges int    `json:"edges,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

// maxBodyBytes bounds request bodies so a misbehaving client cannot make
// the decoder buffer unbounded input.
const maxBodyBytes = 1 << 20

// NewHandler exposes the service over HTTP:
//
//	POST /v1/query     — execute a query (shed → 429 + Retry-After,
//	                     timeout → 504, open breaker → 503, bad query → 422)
//	POST /admin/swap   — load a dataset and atomically flip to it
//	GET  /healthz      — liveness, current dataset, breaker states;
//	                     ?verbose=1 adds SLO states, cache and flight summary
//	GET  /statsz       — counter snapshot
//	GET  /metricsz     — Prometheus text exposition of the obs registry
//	                     (histogram buckets carry trace-ID exemplars)
//	GET  /sloz         — SLO burn rates and alert states (Prometheus text)
//	GET  /tracez       — recent sampled traces; ?tenant=, ?backend=,
//	                     ?min_ns= filter, ?format=text renders span trees
//	GET  /flightz      — flight recorder (notable requests); ?tenant=,
//	                     ?backend=, ?class=, ?min_ns= filter, ?format=json
//	GET  /debugz/bundle — full diagnostic bundle (one JSON blob)
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("use POST"))
			return
		}
		var qr queryRequest
		if err := decodeBody(w, r, &qr); err != nil {
			writeError(w, http.StatusBadRequest, "", err)
			return
		}
		req := &Request{
			Tenant:  qr.Tenant,
			Query:   qr.Query,
			QueryID: qr.QueryID,
			Backend: qr.Backend,
			Timeout: time.Duration(qr.TimeoutMS) * time.Millisecond,
			Profile: qr.Profile,
		}
		// The client closing its connection cancels r.Context(), which
		// cancels the query at its next checkpoint.
		resp, err := s.Do(r.Context(), req)
		if err != nil {
			writeDoError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{
			Result:     resp.Result,
			Stdout:     resp.Stdout,
			Backend:    resp.Backend,
			Dataset:    resp.Dataset,
			Degraded:   resp.Degraded,
			DurationMS: resp.Duration.Milliseconds(),
			Profile:    resp.Profile,
		})
	})
	mux.HandleFunc("/admin/swap", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "", fmt.Errorf("use POST"))
			return
		}
		var sr swapRequest
		if err := decodeBody(w, r, &sr); err != nil {
			writeError(w, http.StatusBadRequest, "", err)
			return
		}
		builder, name, err := buildDataset(sr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "", err)
			return
		}
		if err := s.Swap(name, builder); err != nil {
			code := http.StatusInternalServerError
			if errors.Is(err, ErrDraining) {
				code = http.StatusServiceUnavailable
			}
			writeError(w, code, "", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"dataset": name})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.Stats()
		status := "ok"
		if s.draining.Load() {
			status = "draining"
		}
		body := map[string]any{
			"status":   status,
			"dataset":  st.Dataset,
			"inflight": st.Inflight,
			"breakers": st.Breakers,
		}
		// verbose=1 folds in the health layer: SLO evaluation (burn rates
		// and alert states), cache effectiveness, and how much evidence the
		// flight recorder holds. The terse default stays unchanged — probes
		// keep their tiny payload.
		if r.URL.Query().Get("verbose") == "1" {
			if h := s.Health(); h != nil {
				states := h.Evaluate()
				firing := 0
				for _, hs := range states {
					if hs.PageFiring || hs.TicketFiring {
						firing++
					}
				}
				body["slo"] = states
				body["slo_alerts_firing"] = firing
			}
			if f := s.Flight(); f != nil {
				body["flight_records"] = f.Len()
			}
			body["caches"] = s.cacheStats()
			body["tenants"] = s.TenantNames()
		}
		writeJSON(w, http.StatusOK, body)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	// The caches (federated plan, sandbox program, vet verdict) keep their
	// own cumulative tallies; sync them into the registry at scrape time
	// (gauge for the entry count, delta adds for the monotonic hit/miss
	// counters). The mutex keeps two concurrent scrapes from
	// double-applying a delta.
	var cacheSyncMu sync.Mutex
	mux.HandleFunc("/metricsz", func(w http.ResponseWriter, r *http.Request) {
		reg := s.Metrics()
		cacheSyncMu.Lock()
		for name, c := range s.cacheStats() {
			prefix := "netqueryd_" + name + "_cache"
			reg.Gauge(prefix + "_entries").Set(int64(c.Entries))
			hc := reg.Counter(prefix + "_hits_total")
			hc.Add(int64(c.Hits) - hc.Load())
			mc := reg.Counter(prefix + "_misses_total")
			mc.Add(int64(c.Misses) - mc.Load())
		}
		cacheSyncMu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/sloz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		h := s.Health()
		if h == nil {
			fmt.Fprintf(w, "# slo engine disabled\n")
			return
		}
		h.WritePrometheus(w)
	})
	mux.HandleFunc("/tracez", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		tenantF, backendF := q.Get("tenant"), q.Get("backend")
		minNS, _ := strconv.ParseInt(q.Get("min_ns"), 10, 64)
		type traceJSON struct {
			ID    string         `json:"id"`
			Spans []obs.SpanStat `json:"spans"`
		}
		out := []traceJSON{}
		for _, tr := range s.RecentTraces() {
			spans := tr.Snapshot()
			if !traceMatches(spans, tenantF, backendF, minNS) {
				continue
			}
			out = append(out, traceJSON{ID: tr.ID, Spans: spans})
		}
		if q.Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, tr := range out {
				writeTraceText(w, tr.ID, tr.Spans)
			}
			return
		}
		// Default (and format=json): the same JSON array as ever — with no
		// query parameters the output is byte-identical to prior releases.
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("/flightz", func(w http.ResponseWriter, r *http.Request) {
		f := s.Flight()
		q := r.URL.Query()
		minNS, _ := strconv.ParseInt(q.Get("min_ns"), 10, 64)
		filter := &obs.FlightFilter{
			Tenant:  q.Get("tenant"),
			Backend: q.Get("backend"),
			Class:   q.Get("class"),
			MinNS:   minNS,
		}
		recs := f.Snapshot(filter) // nil-safe: disabled recorder yields none
		if q.Get("format") == "json" {
			if recs == nil {
				recs = []obs.FlightRecord{}
			}
			writeJSON(w, http.StatusOK, recs)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if f == nil {
			fmt.Fprintf(w, "# flight recorder disabled\n")
			return
		}
		obs.WriteFlightText(w, recs)
	})
	mux.HandleFunc("/debugz/bundle", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.DebugBundle())
	})
	return mux
}

// traceMatches reports whether a trace passes the /tracez filters, judged
// on its root spans: tenant and backend match the root's tags, min_ns the
// root's wall time. No filters → every trace passes.
func traceMatches(spans []obs.SpanStat, tenant, backend string, minNS int64) bool {
	if tenant == "" && backend == "" && minNS <= 0 {
		return true
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			continue
		}
		var spTenant, spBackend string
		for _, tg := range sp.Tags {
			switch tg.Key {
			case "tenant":
				spTenant = tg.Value
			case "backend":
				spBackend = tg.Value
			}
		}
		if tenant != "" && spTenant != tenant {
			continue
		}
		if backend != "" && spBackend != backend {
			continue
		}
		if minNS > 0 && sp.WallNS < minNS {
			continue
		}
		return true
	}
	return false
}

// writeTraceText renders one trace as an indented span tree for
// /tracez?format=text.
func writeTraceText(w io.Writer, id string, spans []obs.SpanStat) {
	depth := map[int64]int{}
	fmt.Fprintf(w, "trace %s\n", id)
	for _, sp := range spans {
		d := 1
		if sp.Parent != 0 {
			d = depth[sp.Parent] + 1
		}
		depth[sp.ID] = d
		for i := 0; i < d; i++ {
			fmt.Fprint(w, "  ")
		}
		fmt.Fprintf(w, "%s wall_ns=%d own_ns=%d", sp.Name, sp.WallNS, sp.OwnNS)
		for _, tg := range sp.Tags {
			fmt.Fprintf(w, " %s=%s", tg.Key, tg.Value)
		}
		fmt.Fprintf(w, "\n")
	}
}

// buildDataset resolves a swap request into an instance builder. Datasets
// are generated and frozen here, before the flip, so a bad request can
// never take down the serving epoch.
func buildDataset(sr swapRequest) (nemoeval.InstanceBuilder, string, error) {
	name := sr.Name
	switch sr.App {
	case "", queries.AppTraffic:
		cfg := nemoeval.DefaultTrafficConfig
		if sr.Nodes > 0 {
			cfg.Nodes = sr.Nodes
		}
		if sr.Edges > 0 {
			cfg.Edges = sr.Edges
		}
		if sr.Seed != 0 {
			cfg.Seed = sr.Seed
		}
		if name == "" {
			name = fmt.Sprintf("traffic-n%d-e%d-s%d", cfg.Nodes, cfg.Edges, cfg.Seed)
		}
		return nemoeval.TrafficDataset(cfg), name, nil
	case queries.AppMALT:
		if name == "" {
			name = "malt"
		}
		return nemoeval.MALTDataset(), name, nil
	case queries.AppDiagnosis:
		if name == "" {
			name = "diagnosis"
		}
		return nemoeval.DiagnosisDataset(diagnosis.DefaultConfig), name, nil
	default:
		return nil, "", fmt.Errorf("service: unknown app %q (have traffic, malt, diagnosis)", sr.App)
	}
}

// TrafficBuilder is the convenience the daemon and tests use to stand up
// an initial traffic epoch at a given scale.
func TrafficBuilder(nodes, edges int, seed int64) (nemoeval.InstanceBuilder, string) {
	cfg := traffic.Config{Nodes: nodes, Edges: edges, Seed: seed}
	return nemoeval.TrafficDataset(cfg), fmt.Sprintf("traffic-n%d-e%d-s%d", nodes, edges, seed)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// writeDoError maps Service.Do error taxonomy onto HTTP statuses.
func writeDoError(w http.ResponseWriter, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		secs := int64(shed.RetryAfter / time.Second)
		if shed.RetryAfter%time.Second != 0 {
			secs++ // round up: retrying early just sheds again
		}
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusTooManyRequests, "", err)
		return
	}
	var unavail *UnavailableError
	if errors.As(err, &unavail) || errors.Is(err, ErrDraining) {
		writeError(w, http.StatusServiceUnavailable, "", err)
		return
	}
	var vet *VetError
	if errors.As(err, &vet) {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: err.Error(), Class: "static", Diagnostics: vet.Diags})
		return
	}
	var qe *QueryError
	if errors.As(err, &qe) {
		if errors.Is(qe, context.DeadlineExceeded) {
			writeError(w, http.StatusGatewayTimeout, qe.Class, err)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, qe.Class, err)
		return
	}
	writeError(w, http.StatusInternalServerError, "", err)
}

func writeError(w http.ResponseWriter, code int, class string, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error(), Class: class})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
