package federate

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the prepare/execute seam: Prepare optimizes a logical plan
// and attaches the cost model's per-node decisions (from the shared plan
// cache when the catalog carries an epoch). Decisions are positional pure
// data — no closures, no substrate handles — which is what makes one cache
// entry reusable across every session sharing a dataset generation, the
// same way the sandbox shares compiled bytecode across runs of one source
// text. applyDecisions then copies the decisions the executor acts on
// (resolved sources, join build sides) onto the plan it runs.

// Prepared is an optimized plan bound to planner decisions, ready to
// execute any number of times. It still carries the caller's closures
// (FuncPred), so a Prepared belongs to the plan it was built from; only
// the decision list is shared through the cache.
type Prepared struct {
	plan Node
	decs []decision

	// key is the optimized, pre-decision plan's Explain rendering: the
	// identity the shared plan cache keys on. fphash is its hex FNV-64a,
	// computed lazily: only requests that carry PlanNotes (or explicitly
	// ask) pay for the hash.
	key    string
	fpOnce sync.Once
	fphash string
}

// Fingerprint returns the stable hex hash of the plan's cache identity
// (the optimized plan's canonical Explain rendering). Two programs whose
// plans share planner decisions share a fingerprint; /flightz records
// carry it so a slow request points at the exact plan shape it executed.
func (p *Prepared) Fingerprint() string {
	p.fpOnce.Do(func() { p.fphash = fingerprintHash(p.key) })
	return p.fphash
}

// Prepare optimizes the plan and computes (or recalls) the planner
// decisions for it against the catalog. Catalogs with a zero Epoch skip
// the cache entirely; any mismatch between a cached decision list and the
// plan shape falls back to a fresh computation, so a fingerprint collision
// costs only plan-time work.
func Prepare(cat *Catalog, plan Node) *Prepared {
	opt := Optimize(plan)
	key := Explain(opt)
	var decs []decision
	if cat.Epoch != 0 {
		if d, ok := DefaultCache.lookup(key, cat.Epoch); ok {
			decs = d
		} else {
			decs = annotate(cat, opt)
			DefaultCache.store(key, cat.Epoch, decs)
		}
	} else {
		decs = annotate(cat, opt)
	}
	resolved, ok := applyDecisions(opt, decs)
	if !ok {
		decs = annotate(cat, opt)
		resolved, _ = applyDecisions(opt, decs)
	}
	return &Prepared{plan: resolved, decs: decs, key: key}
}

// Explain renders the prepared plan with the cost model's annotations:
// estimated rows and cumulative cost per operator and the join build
// side.
func (p *Prepared) Explain() string {
	var sb strings.Builder
	pos := 0
	explainCostInto(&sb, p.plan, 0, p.decs, &pos)
	return sb.String()
}

func explainCostInto(sb *strings.Builder, n Node, depth int, decs []decision, pos *int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.label())
	if *pos < len(decs) {
		d := decs[*pos]
		fmt.Fprintf(sb, "  -- rows~%.0f cost~%.0f", d.EstRows, d.EstCost)
		if _, isJoin := n.(*Join); isJoin {
			if d.BuildLeft {
				sb.WriteString(" build=left")
			} else {
				sb.WriteString(" build=right")
			}
		}
	}
	*pos++
	sb.WriteString("\n")
	for _, c := range n.children() {
		explainCostInto(sb, c, depth+1, decs, pos)
	}
}

// applyDecisions validates a decision list against the plan (kind tags in
// pre-order), resolves SourceAny scans to their decided source, and records
// each join's build side on the node, rebuilding only the spine above a
// rewritten node. ok is false when the
// list does not align with the plan — a stale or colliding cache entry.
func applyDecisions(plan Node, decs []decision) (Node, bool) {
	pos := 0
	out, ok := applyNode(plan, decs, &pos)
	if !ok || pos != len(decs) {
		return plan, false
	}
	return out, true
}

func applyNode(n Node, decs []decision, pos *int) (Node, bool) {
	if *pos >= len(decs) || decs[*pos].Kind != nodeKind(n) {
		return n, false
	}
	idx := *pos
	*pos++
	switch x := n.(type) {
	case *Scan:
		if x.Source != SourceAny {
			return x, true
		}
		if decs[idx].Source == "" {
			return x, false
		}
		resolved := *x
		resolved.Source = decs[idx].Source
		return &resolved, true
	case *Filter:
		in, ok := applyNode(x.Input, decs, pos)
		if !ok {
			return n, false
		}
		if in == x.Input {
			return x, true
		}
		return &Filter{Input: in, Pred: x.Pred}, true
	case *Project:
		in, ok := applyNode(x.Input, decs, pos)
		if !ok {
			return n, false
		}
		if in == x.Input {
			return x, true
		}
		return &Project{Input: in, Cols: x.Cols}, true
	case *Join:
		l, ok := applyNode(x.Left, decs, pos)
		if !ok {
			return n, false
		}
		r, ok := applyNode(x.Right, decs, pos)
		if !ok {
			return n, false
		}
		buildLeft := decs[idx].BuildLeft
		if l == x.Left && r == x.Right && buildLeft == x.buildLeft {
			return x, true
		}
		return &Join{Left: l, Right: r, LeftKey: x.LeftKey, RightKey: x.RightKey, buildLeft: buildLeft}, true
	case *Aggregate:
		in, ok := applyNode(x.Input, decs, pos)
		if !ok {
			return n, false
		}
		if in == x.Input {
			return x, true
		}
		return &Aggregate{Input: in, GroupBy: x.GroupBy, Aggs: x.Aggs}, true
	case *Sort:
		in, ok := applyNode(x.Input, decs, pos)
		if !ok {
			return n, false
		}
		if in == x.Input {
			return x, true
		}
		return &Sort{Input: in, Cols: x.Cols, Ascending: x.Ascending}, true
	case *Limit:
		in, ok := applyNode(x.Input, decs, pos)
		if !ok {
			return n, false
		}
		if in == x.Input {
			return x, true
		}
		return &Limit{Input: in, N: x.N}, true
	default:
		return n, false
	}
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

// PlanCache memoizes planner decision lists keyed by (plan fingerprint,
// catalog epoch). The fingerprint is the optimized plan's canonical
// Explain rendering: two plans with the same rendering get the same
// decisions by construction (decisions depend only on plan shape, names,
// operators and literal values — never on closures, which render as the
// opaque "fn(row)").
// Lookups take only a read lock plus atomic counter bumps: every prepare
// of every concurrent session funnels through here, so an exclusive lock
// on the hit path would serialize the whole query tier's planning.
type PlanCache struct {
	mu      sync.RWMutex
	entries map[planKey][]decision
	order   []planKey
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: map[planKey][]decision{}}
}

// DefaultCache is the process-wide plan cache shared by every catalog
// with a non-zero epoch (all netqueryd sessions of one process land
// here).
var DefaultCache = NewPlanCache()

func (c *PlanCache) lookup(fp string, epoch uint64) ([]decision, bool) {
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

func (c *PlanCache) store(fp string, epoch uint64, decs []decision) {
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
	c.entries[k] = decs
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
