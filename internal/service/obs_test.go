package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestQueryProfileFederatedOperators posts a raw federated query with
// "profile": true over HTTP and checks the response carries a per-operator
// execution profile (operator name, row counts, wall time) plus the VM
// opcode-class breakdown and the request's span tree.
func TestQueryProfileFederatedOperators(t *testing.T) {
	s := newTestService(t, nil)
	h := NewHandler(s)

	body := []byte(`{"tenant":"acme","query":"return fed.scan(\"sql\", \"edges\").filter(\"bytes\", \">\", 0).count()","profile":true}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body %s, want 200", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Profile == nil {
		t.Fatalf("no profile in response: %s", w.Body)
	}
	if resp.Profile.TraceID == "" || !strings.HasPrefix(resp.Profile.TraceID, "acme-") {
		t.Fatalf("trace id = %q, want acme-<n>", resp.Profile.TraceID)
	}
	ops := map[string]bool{}
	for _, st := range resp.Profile.Operators {
		ops[st.Op] = true
		if st.WallNS < 0 || st.WallNS < st.OwnNS {
			t.Fatalf("operator %q wall=%d own=%d inconsistent", st.Op, st.WallNS, st.OwnNS)
		}
	}
	// The optimizer pushes the filter into the scan, so the profile shows
	// a predicate-annotated scan. A SQL scan reads its table as a frame
	// scan does, so no sqldb frame nests under it.
	if !ops["scan"] {
		t.Fatalf("operator profile missing %q: %+v", "scan", resp.Profile.Operators)
	}
	for _, op := range []string{"sql.select", "sql.scan"} {
		if ops[op] {
			t.Fatalf("operator profile nests %q under a federated scan: %+v", op, resp.Profile.Operators)
		}
	}
	if resp.Profile.VM == nil || len(resp.Profile.VM.Opcodes) == 0 {
		t.Fatalf("no VM opcode profile: %+v", resp.Profile.VM)
	}
	spans := map[string]bool{}
	for _, sp := range resp.Profile.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"query", "bind", "execute"} {
		if !spans[want] {
			t.Fatalf("span tree missing %q: %+v", want, resp.Profile.Spans)
		}
	}
	// Unprofiled requests must not pay for or carry a profile.
	w2 := postJSON(t, h, "/v1/query", queryRequest{Tenant: "acme", QueryID: "ta-e2"})
	var resp2 queryResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &resp2); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp2.Profile != nil {
		t.Fatalf("unprofiled request carried a profile: %+v", resp2.Profile)
	}
}

// TestQueryProfileVMOpcodeClasses checks an NQL-executed (non-federated)
// profiled query reports opcode-class counts and builtin timings.
func TestQueryProfileVMOpcodeClasses(t *testing.T) {
	s := newTestService(t, nil)
	resp, err := s.Do(context.Background(), &Request{
		Tenant:  "acme",
		QueryID: "ta-e2",
		Profile: true,
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Profile == nil || resp.Profile.VM == nil {
		t.Fatalf("no VM profile: %+v", resp.Profile)
	}
	var total int64
	for _, c := range resp.Profile.VM.Opcodes {
		total += c.Count
	}
	if total == 0 {
		t.Fatalf("opcode classes all zero: %+v", resp.Profile.VM.Opcodes)
	}
}

// TestMetricszExposition checks /metricsz renders per-tenant request
// counters and latency histogram buckets in Prometheus text format.
func TestMetricszExposition(t *testing.T) {
	s := newTestService(t, nil)
	h := NewHandler(s)

	for i := 0; i < 3; i++ {
		if w := postJSON(t, h, "/v1/query", queryRequest{Tenant: "acme", QueryID: "ta-e2"}); w.Code != http.StatusOK {
			t.Fatalf("query %d: status = %d", i, w.Code)
		}
	}
	if w := postJSON(t, h, "/v1/query", queryRequest{Tenant: "globex", QueryID: "ta-e2"}); w.Code != http.StatusOK {
		t.Fatalf("globex query failed")
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metricsz status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q, want text/plain", ct)
	}
	body := w.Body.String()
	for _, line := range []string{
		`netqueryd_tenant_requests_total{tenant="acme"} 3`,
		`netqueryd_tenant_requests_total{tenant="globex"} 1`,
		`netqueryd_results_total{result="ok"} 4`,
		`# TYPE netqueryd_tenant_latency_ns histogram`,
		`netqueryd_tenant_latency_ns_bucket{tenant="acme",le="+Inf"} 3`,
		`netqueryd_tenant_latency_ns_count{tenant="acme"} 3`,
	} {
		if !strings.Contains(body, line) {
			t.Fatalf("/metricsz missing %q:\n%s", line, body)
		}
	}
	if !strings.Contains(body, `netqueryd_tenant_latency_ns_bucket{tenant="acme",le="`) {
		t.Fatalf("no latency buckets in exposition:\n%s", body)
	}
}

// TestTraceSamplingRing checks -trace-sample wiring: with sampling at 1.0
// every request is traced into the ring; with 0 only profiled requests are.
func TestTraceSamplingRing(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceSample = 1.0 })
	for i := 0; i < 5; i++ {
		if _, err := s.Do(context.Background(), &Request{Tenant: "t", QueryID: "ta-e2"}); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	if got := len(s.RecentTraces()); got != 5 {
		t.Fatalf("traced %d requests at sample=1.0, want 5", got)
	}

	off := newTestService(t, nil) // TraceSample defaults to 0: tracing off
	if _, err := off.Do(context.Background(), &Request{Tenant: "t", QueryID: "ta-e2"}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := len(off.RecentTraces()); got != 0 {
		t.Fatalf("traced %d requests with sampling off, want 0", got)
	}
	// Profiled requests are always traced, even with sampling off.
	if _, err := off.Do(context.Background(), &Request{Tenant: "t", QueryID: "ta-e2", Profile: true}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if got := len(off.RecentTraces()); got != 1 {
		t.Fatalf("profiled request not traced: ring has %d", got)
	}
}

// TestExecuteSpanCountsSteps checks that the execute span's steps tag
// carries the program's step count rather than a constant zero.
func TestExecuteSpanCountsSteps(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceSample = 1.0 })
	loop := "let i = 0\nwhile i < 1000 { i = i + 1 }\nreturn i"
	if _, err := s.Do(context.Background(), &Request{Tenant: "acme", Query: loop}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	traces := s.RecentTraces()
	if len(traces) != 1 {
		t.Fatalf("traced %d requests, want 1", len(traces))
	}
	steps := ""
	for _, sp := range traces[0].Snapshot() {
		if sp.Name != "execute" {
			continue
		}
		for _, tag := range sp.Tags {
			if tag.Key == "steps" {
				steps = tag.Value
			}
		}
	}
	if n, err := strconv.Atoi(steps); err != nil || n < 1000 {
		t.Fatalf("execute span steps = %q, want at least one per loop iteration (1000)", steps)
	}
}

// TestTracezEndpoint checks the /tracez JSON dump of the trace ring.
func TestTracezEndpoint(t *testing.T) {
	s := newTestService(t, func(c *Config) { c.TraceSample = 1.0 })
	h := NewHandler(s)
	if w := postJSON(t, h, "/v1/query", queryRequest{Tenant: "acme", QueryID: "ta-e2"}); w.Code != http.StatusOK {
		t.Fatalf("query failed: %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/tracez", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/tracez status = %d", w.Code)
	}
	var traces []struct {
		ID    string `json:"id"`
		Spans []struct {
			Name   string `json:"name"`
			WallNS int64  `json:"wall_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &traces); err != nil {
		t.Fatalf("decode /tracez: %v\n%s", err, w.Body)
	}
	if len(traces) != 1 || len(traces[0].Spans) == 0 {
		t.Fatalf("tracez = %+v, want one trace with spans", traces)
	}
	if traces[0].Spans[0].Name != "query" {
		t.Fatalf("root span = %q, want query", traces[0].Spans[0].Name)
	}
}
