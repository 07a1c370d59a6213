package federate

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataframe"
	"repro/internal/scalar"
)

// This file collects the substrate statistics feeding the cost model:
// table cardinalities (O(1) for every substrate), per-column
// distinct-value estimates from a bounded deterministic sample, and the
// graph's degree histogram. Statistics are advisory — they feed the row
// and cost estimates Prepared.Explain prints, never execution — so a
// stale estimate (the catalog mutated after collection) costs at most an
// inaccurate explain.
//
// Collection is lazy (a table is only profiled when a plan references it)
// and cached per catalog epoch, so every session sharing a frozen dataset
// generation pays the sampling cost once per process.

// statsSampleMax bounds the cells sampled per column for the distinct
// estimate. Sampling is strided from row 0, so it is deterministic.
const statsSampleMax = 256

// TableStats describes one scannable table.
type TableStats struct {
	Rows int
	// Distinct estimates per column name (scaled up from the sample;
	// missing columns fall back to a default selectivity).
	Distinct map[string]int
	// DegreeHist is the graph degree histogram (degree → node count),
	// populated only for the graph "degree" virtual table.
	DegreeHist map[int]int
	// Compute marks virtual tables that run a whole-substrate algorithm
	// (PageRank, connected components) before the first row lifts.
	Compute bool
}

// distinctOf returns the distinct estimate for a column, defaulting to a
// square-root heuristic when the column was not sampled.
func (t *TableStats) distinctOf(col string) int {
	if t == nil {
		return 1
	}
	if d, ok := t.Distinct[col]; ok && d > 0 {
		return d
	}
	d := int(math.Sqrt(float64(t.Rows)))
	if d < 1 {
		d = 1
	}
	return d
}

// catalogStats caches per-table statistics for one catalog generation.
type catalogStats struct {
	mu     sync.Mutex
	tables map[string]*TableStats // "source\x00table"
}

func (s *catalogStats) table(cat *Catalog, source, table string) *TableStats {
	key := source + "\x00" + table
	s.mu.Lock()
	st, ok := s.tables[key]
	s.mu.Unlock()
	if ok {
		return st
	}
	st = collectTableStats(cat, source, table)
	s.mu.Lock()
	if prev, ok := s.tables[key]; ok {
		st = prev
	} else {
		s.tables[key] = st
	}
	s.mu.Unlock()
	return st
}

// epochStats is the process-wide stats cache, keyed by catalog epoch.
// Epoch 0 (an untagged catalog) is never cached: fresh stats per prepare.
var epochStats = struct {
	mu    sync.Mutex
	cache map[uint64]*catalogStats
}{cache: map[uint64]*catalogStats{}}

// epochStatsMax bounds the epochs retained; a new epoch past it resets the
// whole cache (epochs are monotone, so old generations never come back).
// Only a miss resets, so an epoch's statistics survive until
// epochStatsMax newer epochs have arrived.
const epochStatsMax = 128

func statsFor(cat *Catalog) *catalogStats {
	if cat.Epoch == 0 {
		return &catalogStats{tables: map[string]*TableStats{}}
	}
	epochStats.mu.Lock()
	defer epochStats.mu.Unlock()
	s, ok := epochStats.cache[cat.Epoch]
	if !ok {
		if len(epochStats.cache) >= epochStatsMax {
			epochStats.cache = map[uint64]*catalogStats{}
		}
		s = &catalogStats{tables: map[string]*TableStats{}}
		epochStats.cache[cat.Epoch] = s
	}
	return s
}

// epochCounter backs NewEpoch. Epoch 0 is reserved for "uncached".
var epochCounter atomic.Uint64

// NewEpoch allocates a fresh catalog epoch. Tag a Catalog with one epoch
// per immutable dataset generation: catalogs sharing an epoch share
// statistics and prepared-plan estimates, and bumping the epoch (a new
// generation, e.g. after a dataset swap) invalidates both.
func NewEpoch() uint64 { return epochCounter.Add(1) }

// collectTableStats profiles one (source, table). A missing source or
// table yields nil (the planner treats it as unknown and lets execution
// surface the real error).
func collectTableStats(cat *Catalog, source, table string) *TableStats {
	switch source {
	case SourceSQL:
		if cat.DB == nil {
			return nil
		}
		f, err := cat.DB.Table(table)
		if err != nil {
			return nil
		}
		return frameStats(f)
	case SourceFrame:
		f := cat.Frames[table]
		if f == nil {
			return nil
		}
		return frameStats(f)
	case SourceGraph:
		return graphStats(cat, table)
	default:
		return nil
	}
}

func frameStats(f *dataframe.Frame) *TableStats {
	st := &TableStats{Rows: f.NumRows(), Distinct: map[string]int{}}
	for _, c := range f.Columns() {
		col, _ := f.Column(c)
		st.Distinct[c] = sampleDistinct(col)
	}
	return st
}

// sampleDistinct estimates a column's distinct count from a strided
// sample, scaled linearly to the full row count (capped at it).
func sampleDistinct(col []any) int {
	n := len(col)
	if n == 0 {
		return 0
	}
	stride := 1
	if n > statsSampleMax {
		stride = n / statsSampleMax
	}
	seen := map[scalar.Key]bool{}
	sampled, distinct := 0, 0
	for i := 0; i < n; i += stride {
		sampled++
		cell := col[i] // a raw graph attribute may be a Go int, which lifts to int64
		if x, ok := cell.(int); ok {
			cell = int64(x)
		}
		k, ok := scalar.KeyOf(cell)
		if !ok {
			// Non-scalar cells: treat each as distinct.
			distinct++
			continue
		}
		if !seen[k] {
			seen[k] = true
			distinct++
		}
	}
	if sampled == 0 {
		return 0
	}
	est := distinct * n / sampled
	if est > n {
		est = n
	}
	if est < distinct {
		est = distinct
	}
	return est
}

func graphStats(cat *Catalog, table string) *TableStats {
	g := cat.Graph
	if g == nil {
		return nil
	}
	n := g.NumNodes()
	switch table {
	case GraphTableNodes:
		return &TableStats{Rows: n, Distinct: map[string]int{"id": n}}
	case GraphTableEdges:
		m := g.NumEdges()
		d := n
		if m < d {
			d = m
		}
		return &TableStats{Rows: m, Distinct: map[string]int{"src": d, "dst": d}}
	case GraphTableDegree:
		hist := map[int]int{}
		for i := 0; i < n; i++ {
			hist[g.Degree(g.NodeID(i))]++
		}
		return &TableStats{
			Rows:       n,
			Distinct:   map[string]int{"id": n, "degree": len(hist)},
			DegreeHist: hist,
		}
	case GraphTablePageRank:
		return &TableStats{Rows: n, Distinct: map[string]int{"id": n, "pagerank": n}, Compute: true}
	case GraphTableComponents:
		return &TableStats{Rows: n, Distinct: map[string]int{"id": n}, Compute: true}
	default:
		return nil
	}
}
