package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nemoeval"
	"repro/internal/service"
	"repro/internal/traffic"
)

// outcome is what a client sees of one response: the HTTP status, plus the
// result and stdout of a success or the error class of a failure. Error
// messages are left out: they carry line numbers and wording, not answers.
type outcome struct {
	Status int    `json:"status"`
	Class  string `json:"class,omitempty"`
	Result string `json:"result,omitempty"`
	Stdout string `json:"stdout,omitempty"`
}

func (o outcome) String() string {
	if o.Status == http.StatusOK {
		return fmt.Sprintf("200 %.80q", o.Result)
	}
	return fmt.Sprintf("%d class %q", o.Status, o.Class)
}

// decodeOutcome reads a POST /v1/query response body.
func decodeOutcome(status int, data []byte) (outcome, error) {
	var w struct {
		Result string `json:"result"`
		Stdout string `json:"stdout"`
		Class  string `json:"class"`
	}
	if err := json.Unmarshal(data, &w); err != nil {
		return outcome{}, fmt.Errorf("decode %d response: %w", status, err)
	}
	if status == http.StatusOK {
		return outcome{Status: status, Result: w.Result, Stdout: w.Stdout}, nil
	}
	return outcome{Status: status, Class: w.Class}, nil
}

// newService builds the service under test. The tenant limits are high
// enough that admission never sheds: here a shed request is a failure.
func newService(build nemoeval.InstanceBuilder, name string) (*service.Service, error) {
	return service.New(service.Config{
		Dataset:           build,
		DatasetName:       name,
		TenantRPS:         1e9,
		TenantBurst:       1e9,
		TenantConcurrency: 64,
	})
}

// server is netqueryd's handler on a loopback listener plus a client
// holding at most conns keep-alive connections to it.
type server struct {
	build  nemoeval.InstanceBuilder
	svc    *service.Service
	http   *http.Server
	url    string
	client *http.Client
	served chan error
}

// startServer builds the dataset, the service and the listener.
func startServer(ds traffic.Config, conns int) (*server, error) {
	build := nemoeval.TrafficDataset(ds)
	svc, err := newService(build, fmt.Sprintf("traffic-n%d-e%d-s%d", ds.Nodes, ds.Edges, ds.Seed))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("nqbench: listen: %w", err)
	}
	s := &server{
		build:  build,
		svc:    svc,
		http:   &http.Server{Handler: service.NewHandler(svc)},
		url:    "http://" + ln.Addr().String() + "/v1/query",
		client: &http.Client{Transport: newTransport(conns)},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// newTransport caps the client at conns connections, all kept alive.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// close stops the listener and waits for the server goroutine to exit.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one request body and reads its outcome.
func post(client *http.Client, url string, b []byte) (outcome, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return outcome{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{}, fmt.Errorf("read response: %w", err)
	}
	return decodeOutcome(resp.StatusCode, data)
}

// expectedOutcomes runs each distinct request once through the handler of
// a fresh, unloaded service over the same dataset. It runs in the
// orchestrating process, before the measured child starts, so the child's
// caches start cold.
func expectedOutcomes(in *inputs, workers int) ([]outcome, error) {
	svc, err := newService(nemoeval.TrafficDataset(in.dataset), "oracle")
	if err != nil {
		return nil, err
	}
	h := service.NewHandler(svc)
	out := make([]outcome, len(in.distinct))
	errs := make([]error, len(in.distinct))
	parallel(workers, len(out), func(k int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query",
			bytes.NewReader(body("oracle", in.tagged(k, "oracle")))))
		out[k], errs[k] = decodeOutcome(rec.Code, rec.Body.Bytes())
	})
	return out, errors.Join(errs...)
}

// checker counts checked outcomes and keeps the first few mismatches.
type checker struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	samples           []string
}

// maxMismatchSamples bounds the mismatches a report quotes.
const maxMismatchSamples = 8

// check counts one outcome. what names it for a mismatch report; it is
// called only on a mismatch, keeping formatting off the client's hot path.
func (c *checker) check(got outcome, err error, want outcome, what func() string) {
	c.attempted.Add(1)
	if err == nil && got == want {
		return
	}
	c.failed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.samples) < maxMismatchSamples {
		if err != nil {
			c.samples = append(c.samples, fmt.Sprintf("%s: %v", what(), err))
		} else {
			c.samples = append(c.samples, fmt.Sprintf("%s: got %s, want %s", what(), got, want))
		}
	}
}

// sender sends a mix's requests over HTTP and checks every response.
type sender struct {
	in       *inputs
	srv      *server
	expected []outcome
	checks   *checker
	next     atomic.Int64 // send index, shared by every phase
}

// send sends request i.
func (s *sender) send(_ int, i int64) {
	tenant, k, req := s.in.at(i)
	got, err := post(s.srv.client, s.srv.url, body(tenant, req))
	s.checks.check(got, err, s.expected[k], func() string { return describe(i, req, "") })
}

// sendDistinct sends distinct request k once (the warmup's first pass).
func (s *sender) sendDistinct(k int) {
	i := s.next.Add(1) - 1
	req := s.in.tagged(k, fmt.Sprint(i))
	got, err := post(s.srv.client, s.srv.url, body(s.in.tenants[k%len(s.in.tenants)], req))
	s.checks.check(got, err, s.expected[k], func() string { return describe(i, req, "") })
}

// describe names send i for a mismatch report, with how it was sent.
func describe(i int64, req request, how string) string {
	what := fmt.Sprintf("%s program %.60q", req.Backend, req.Query)
	if req.QueryID != "" {
		what = "query_id " + req.QueryID
	}
	return fmt.Sprintf("request %d (%s)%s", i, what, how)
}
