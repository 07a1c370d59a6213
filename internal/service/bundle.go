package service

import (
	"runtime"
	"sort"

	"repro/internal/federate"
	"repro/internal/limiter"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/sandbox"
)

// This file is the diagnostic bundle: one JSON blob capturing everything an
// operator needs to debug an incident after the fact — counters, SLO
// states, flight records, traces, cache statistics, limiter and breaker
// states, and a runtime summary. /debugz/bundle serves it; netqueryd
// -dump-bundle writes it to stdout and exits. Every slice and map in the
// bundle is ordered deterministically so two bundles diff cleanly.

// CacheStat is one cache's cumulative hit/miss tallies plus its current
// entry count.
type CacheStat struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// cacheStats reads the tallies of the three caches a request passes
// through, keyed "plan" (federated plans), "program" (compiled sandbox
// programs) and "vet" (vet verdicts): /healthz?verbose=1 and the debug
// bundle report them as JSON, and /metricsz as netqueryd_<key>_cache_*.
func (s *Service) cacheStats() map[string]CacheStat {
	ph, pm, pe := federate.DefaultCache.Stats()
	bh, bm, be := sandbox.CacheStats()
	vh, vm, ve := s.VetCacheStats()
	return map[string]CacheStat{
		"plan":    {Hits: ph, Misses: pm, Entries: pe},
		"program": {Hits: bh, Misses: bm, Entries: be},
		"vet":     {Hits: vh, Misses: vm, Entries: ve},
	}
}

// TenantState is one tenant's admission and latency state in a bundle.
type TenantState struct {
	Tenant    string              `json:"tenant"`
	Requests  int64               `json:"requests"`
	Shed      int64               `json:"shed"`
	Errors    int64               `json:"errors"`
	Bucket    limiter.BucketState `json:"bucket"`
	Gauge     limiter.GaugeState  `json:"gauge"`
	P50NS     int64               `json:"p50_ns"`
	P99NS     int64               `json:"p99_ns"`
	SlowNS    int64               `json:"slow_ns"`
	Completed int64               `json:"completed"`
}

// BreakerState is one substrate breaker's state in a bundle.
type BreakerState struct {
	Backend string `json:"backend"`
	State   string `json:"state"`
	Trips   int64  `json:"trips"`
}

// RuntimeState summarizes the Go runtime at capture time.
type RuntimeState struct {
	Goroutines  int    `json:"goroutines"`
	HeapAlloc   uint64 `json:"heap_alloc"`
	HeapObjects uint64 `json:"heap_objects"`
	TotalAlloc  uint64 `json:"total_alloc"`
	NumGC       uint32 `json:"num_gc"`
}

// BundleTrace is one retained trace rendered for a bundle (the same shape
// /tracez serves).
type BundleTrace struct {
	ID    string         `json:"id"`
	Spans []obs.SpanStat `json:"spans"`
}

// Bundle is the complete diagnostic snapshot.
type Bundle struct {
	CapturedUnixNS int64                `json:"captured_unix_ns"`
	Stats          Stats                `json:"stats"`
	Breakers       []BreakerState       `json:"breakers"`
	SLO            []health.State       `json:"slo,omitempty"`
	Flight         []obs.FlightRecord   `json:"flight,omitempty"`
	Traces         []BundleTrace        `json:"traces,omitempty"`
	Tenants        []TenantState        `json:"tenants"`
	Caches         map[string]CacheStat `json:"caches"`
	Runtime        RuntimeState         `json:"runtime"`
	Extra          map[string]any       `json:"extra,omitempty"`
}

// RegisterBundleSection attaches a named host-provided section to every
// future bundle (e.g. a model-gateway state snapshot). The function is
// called at capture time; its result lands under Extra[name]. Re-using a
// name replaces the section.
func (s *Service) RegisterBundleSection(name string, fn func() any) {
	s.bundleMu.Lock()
	defer s.bundleMu.Unlock()
	if s.bundleSections == nil {
		s.bundleSections = map[string]func() any{}
	}
	s.bundleSections[name] = fn
}

// DebugBundle captures the full diagnostic snapshot. It takes each
// component's locks briefly and in turn — never all at once — so capture
// is safe under load; the pieces are individually consistent, like any
// metrics scrape.
func (s *Service) DebugBundle() *Bundle {
	now := s.cfg.now()
	b := &Bundle{
		CapturedUnixNS: now.UnixNano(),
		Stats:          s.Stats(),
		Caches:         s.cacheStats(),
	}

	for _, backend := range substrateCost {
		br := s.breakers[backend]
		b.Breakers = append(b.Breakers, BreakerState{
			Backend: backend, State: br.State(), Trips: br.Trips(),
		})
	}

	if s.health != nil {
		b.SLO = s.health.Evaluate()
	}
	if s.flight != nil {
		b.Flight = s.flight.Snapshot(nil)
	}
	for _, tr := range s.RecentTraces() {
		b.Traces = append(b.Traces, BundleTrace{ID: tr.ID, Spans: tr.Snapshot()})
	}

	s.tmu.Lock()
	names := make([]string, 0, len(s.tenants))
	for n := range s.tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	tenants := make([]*tenant, len(names))
	for i, n := range names {
		tenants[i] = s.tenants[n]
	}
	s.tmu.Unlock()
	for i, t := range tenants {
		lat := t.latency.Snapshot()
		b.Tenants = append(b.Tenants, TenantState{
			Tenant:    names[i],
			Requests:  t.reqCtr.Load(),
			Shed:      t.shedCtr.Load(),
			Errors:    t.badCtr.Load(),
			Bucket:    t.requests.Snapshot(now),
			Gauge:     t.gauge.Snapshot(),
			P50NS:     lat.Quantile(0.5),
			P99NS:     lat.Quantile(0.99),
			SlowNS:    t.slowNS.Load(),
			Completed: lat.Count,
		})
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.Runtime = RuntimeState{
		Goroutines:  runtime.NumGoroutine(),
		HeapAlloc:   ms.HeapAlloc,
		HeapObjects: ms.HeapObjects,
		TotalAlloc:  ms.TotalAlloc,
		NumGC:       ms.NumGC,
	}

	s.bundleMu.Lock()
	sections := make(map[string]func() any, len(s.bundleSections))
	for name, fn := range s.bundleSections {
		sections[name] = fn
	}
	s.bundleMu.Unlock()
	if len(sections) > 0 {
		b.Extra = make(map[string]any, len(sections))
		for name, fn := range sections {
			b.Extra[name] = fn()
		}
	}
	return b
}
