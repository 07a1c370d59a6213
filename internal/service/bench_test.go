package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServiceQuery is a closed loop over the service's in-process
// http.Handler: each iteration sends one POST /v1/query and waits for its
// response, so ns/op is the whole per-request cost (JSON decode, vetting,
// admission, routing, execution, encode) and allocs/op its allocation
// bill. Requests alternate two catalog queries across four tenants. Tail
// latency under offered load is measured by the bench/ harness instead.
func BenchmarkServiceQuery(b *testing.B) {
	builder, name := TrafficBuilder(30, 30, 42)
	s, err := New(Config{Dataset: builder, DatasetName: name, TenantRPS: 1e6, TenantBurst: 1e6})
	if err != nil {
		b.Fatal(err)
	}
	h := NewHandler(s)
	var bodies [][]byte
	for i, id := range []string{"ta-e2", "ta-e3", "ta-e2", "ta-e3"} {
		body, err := json.Marshal(queryRequest{Tenant: fmt.Sprintf("tenant-%02d", i), QueryID: id, TimeoutMS: 2000})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
