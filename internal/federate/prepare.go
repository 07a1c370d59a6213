package federate

import (
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the prepare/execute seam: Prepare optimizes a logical plan
// and attaches the cost model's per-node estimates (from the shared plan
// cache when the catalog carries an epoch) for Prepared.Explain to print.
// Estimates are positional pure data — no closures, no substrate handles —
// which is what makes one cache entry reusable across every session
// sharing a dataset generation, the same way the sandbox shares compiled
// bytecode across runs of one source text. Execution reads the optimized
// plan alone.

// Prepared is an optimized plan with its cost estimates, ready to execute
// any number of times. It still carries the caller's closures (FuncPred),
// so a Prepared belongs to the plan it was built from; only the estimates
// are shared through the cache.
type Prepared struct {
	plan Node
	ests []estimate

	// key is the optimized plan's Explain rendering: the identity the
	// shared plan cache keys on. fphash is its hex FNV-64a, computed
	// lazily: only requests that carry PlanNotes (or explicitly ask) pay
	// for the hash.
	key    string
	fpOnce sync.Once
	fphash string
}

// Fingerprint returns the stable hex hash of the plan's cache identity
// (the optimized plan's canonical Explain rendering). Two programs whose
// plans share estimates share a fingerprint; /flightz records carry it so
// a slow request points at the exact plan shape it executed.
func (p *Prepared) Fingerprint() string {
	p.fpOnce.Do(func() { p.fphash = fingerprintHash(p.key) })
	return p.fphash
}

// Prepare optimizes the plan and computes (or recalls) its cost estimates
// against the catalog. Catalogs with a zero Epoch skip the cache entirely.
// A cache entry is keyed by the plan's full rendering, so it always has
// one estimate per node of the plan it is recalled for.
func Prepare(cat *Catalog, plan Node) *Prepared {
	opt := Optimize(plan)
	key := Explain(opt)
	var ests []estimate
	if cat.Epoch != 0 {
		var ok bool
		if ests, ok = DefaultCache.lookup(key, cat.Epoch); !ok {
			ests = annotate(cat, opt)
			DefaultCache.store(key, cat.Epoch, ests)
		}
	} else {
		ests = annotate(cat, opt)
	}
	return &Prepared{plan: opt, ests: ests, key: key}
}

// Explain renders the prepared plan with the cost model's annotations:
// each operator's estimated output rows and cumulative cost.
func (p *Prepared) Explain() string {
	var sb strings.Builder
	explainInto(&sb, p.plan, 0, p.ests, new(int))
	return sb.String()
}

// --- shared plan cache ---------------------------------------------------

// planCacheMax bounds the cache; eviction is FIFO (the sandbox bytecode
// cache idiom — epochs retire whole generations anyway, so recency
// tracking buys little).
const planCacheMax = 4096

type planKey struct {
	fp    string
	epoch uint64
}

// PlanCache memoizes cost estimate lists keyed by (plan fingerprint,
// catalog epoch). The fingerprint is the optimized plan's canonical
// Explain rendering: two plans with the same rendering get the same
// estimates by construction (estimates depend only on plan shape, names,
// operators and literal values — never on closures, which render as the
// opaque "fn(row)").
// Lookups take only a read lock plus atomic counter bumps: every prepare
// of every concurrent session funnels through here, so an exclusive lock
// on the hit path would serialize the whole query tier's planning.
type PlanCache struct {
	mu      sync.RWMutex
	entries map[planKey][]estimate
	order   []planKey
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: map[planKey][]estimate{}}
}

// DefaultCache is the process-wide plan cache shared by every catalog
// with a non-zero epoch (all netqueryd sessions of one process land
// here).
var DefaultCache = NewPlanCache()

func (c *PlanCache) lookup(fp string, epoch uint64) ([]estimate, bool) {
	k := planKey{fp: fp, epoch: epoch}
	c.mu.RLock()
	d, ok := c.entries[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return d, ok
}

func (c *PlanCache) store(fp string, epoch uint64, ests []estimate) {
	k := planKey{fp: fp, epoch: epoch}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; ok {
		return
	}
	if len(c.order) >= planCacheMax {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, oldest)
	}
	c.entries[k] = ests
	c.order = append(c.order, k)
}

// Stats reports cumulative lookup hits and misses and the current entry
// count (for the service metrics endpoint).
func (c *PlanCache) Stats() (hits, misses uint64, entries int) {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), n
}
