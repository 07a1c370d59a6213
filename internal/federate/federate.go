// Package federate implements a federated query planner and executor over
// the three execution substrates the framework exposes to generated code:
// the attributed graph (internal/graph), the columnar dataframes
// (internal/dataframe) and the SQL database (internal/sqldb).
//
// A single logical plan — scan, filter, project, join, aggregate, sort,
// limit — is planned across heterogeneous sources: every scan names a
// (source, table) pair, the optimizer pushes filters and projections down
// into the scans (compiling them to native WHERE clauses for the SQL
// substrate, testing them on source cells before a row is lifted for the
// graph and frame substrates), and the executor evaluates the remaining
// operators over a uniform relation of nql.Value rows. Graph scans can also push whole
// computations down — degree, PageRank, connected components — so a plan
// can join, say, a SQL probe table against graph centrality, which none of
// the single-substrate backends can express.
//
// # Prepare and execute
//
// Run/RunContext split a query into a prepare step and an execute step.
// Prepare optimizes the plan (filter and projection pushdown, conjunction
// folding), collects table statistics from the catalog, and derives a
// per-node decision list from a simple cost model: which source serves a
// SourceAny scan, whether a SQL scan takes the native columnar path or the
// text path, and which side of a hash join builds the table (the smaller
// estimated input). Prepared.ExecuteContext then runs the decided plan on
// one recursive executor, single-goroutine per query: each operator
// executes its inputs, then works on the materialized results. A scan
// filters on source columns before it lifts a row (and takes sqldb's
// columnar scan where the native path applies). A join or aggregate reads
// a scan child's surviving cells in place, lifting only the cells it
// uses; every other child arrives as a lifted relation. There is one join
// (hashing the side the planner chose) and one aggregate for every
// source. Every operator honors context cancellation at row-loop
// checkpoints and, under an obs.Profile, emits one operator frame. The
// expected results, error text and frame trees of a plan corpus are
// pinned in the package tests.
//
// # Statistics and the plan cache
//
// Statistics (row counts, sampled per-column distinct counts, graph degree
// histograms) are collected per catalog epoch and cached, and prepared
// decision lists are cached process-wide in DefaultCache keyed by the
// optimized plan's Explain fingerprint plus the catalog epoch. Catalogs
// sharing an epoch — clones of one frozen dataset master — therefore pay
// the planning cost once; a zero epoch opts a catalog out of both caches.
// Cached decisions are re-validated against the live plan shape when
// applied, so a stale or poisoned entry degrades to a fresh cost pass, and
// closures in the plan (FuncPred, custom aggregates) are rebound on every
// execution, never captured by the cache. Explain on a prepared plan
// annotates each node with the cost model's view: "rows~N cost~C", a
// "native" marker on pushdown scans and "build=left|right" on joins.
//
// The planner is read-only by construction: scans lift rows out of the
// substrates and never write back, so running a federated plan against the
// cloned state of a sandbox run is exactly as safe as the per-substrate
// bindings (the frozen-master/clone protocol of the evaluation pipeline
// carries over unchanged, including under the parallel runner's worker
// pool).
package federate

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dataframe"
	"repro/internal/graph"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// Source names for Scan nodes.
const (
	SourceGraph = "graph"
	SourceFrame = "frame"
	SourceSQL   = "sql"
)

// Graph-source virtual tables. "nodes" and "edges" lift the attributed
// graph into relational form; the rest push a whole graph computation down
// into the graph substrate and lift its result as rows.
const (
	GraphTableNodes      = "nodes"
	GraphTableEdges      = "edges"
	GraphTableDegree     = "degree"
	GraphTablePageRank   = "pagerank"
	GraphTableComponents = "components"
)

// Catalog is the set of substrates a federated plan can scan: one
// application instance's graph, frames and database. Any member may be nil;
// scans against a missing source fail with a descriptive error.
type Catalog struct {
	Graph  *graph.Graph
	Frames map[string]*dataframe.Frame
	DB     *sqldb.DB

	// Epoch tags the catalog's dataset generation for the plan cache and
	// the statistics cache: catalogs sharing an epoch (clones of one
	// frozen master) share prepared-plan decisions and table statistics.
	// Allocate epochs with NewEpoch; zero (the default) disables caching
	// for this catalog. Epoch staleness is a plan-quality concern only —
	// every cached decision is re-validated against live state at
	// execution time, falling back to the generic path on any mismatch.
	Epoch uint64

	// ctx is the execution context installed by Prepared.ExecuteContext on
	// a per-run shallow copy of the catalog (the caller's catalog is never
	// mutated). Operator row loops poll it at cancelCheckEvery-row
	// checkpoints so a cancelled request abandons a large join or
	// aggregation promptly.
	ctx context.Context

	// prof is the per-operator execution profile, installed alongside ctx
	// by ExecuteContext when the context carries an obs.Profile. Nil (the
	// default) keeps execution on the unprofiled fast path.
	prof *obs.Profile
}

// cancelCheckEvery is the operator row-loop checkpoint stride: contexts
// are polled once per this many rows, keeping the poll off the per-row
// fast path while bounding cancellation latency to one stride.
const cancelCheckEvery = 1024

// cancelled reports the context error, if any, at checkpoint i (only
// multiples of cancelCheckEvery are polled; pass i = 0 to force a poll).
func (c *Catalog) cancelled(i int) error {
	if c.ctx == nil || i%cancelCheckEvery != 0 {
		return nil
	}
	if err := c.ctx.Err(); err != nil {
		return fmt.Errorf("federate: %w", err)
	}
	return nil
}

// context returns the run's execution context (never nil), for delegating
// to context-aware substrates like the SQL engine.
func (c *Catalog) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// Sources lists the sources present in the catalog, in canonical order.
func (c *Catalog) Sources() []string {
	var out []string
	if c.Graph != nil {
		out = append(out, SourceGraph)
	}
	if len(c.Frames) > 0 {
		out = append(out, SourceFrame)
	}
	if c.DB != nil {
		out = append(out, SourceSQL)
	}
	return out
}

// Tables lists the tables scannable from one source (sorted for the frame
// source, creation order for SQL, fixed order for the graph).
func (c *Catalog) Tables(source string) ([]string, error) {
	switch source {
	case SourceGraph:
		if c.Graph == nil {
			return nil, fmt.Errorf("federate: catalog has no graph source")
		}
		return []string{GraphTableNodes, GraphTableEdges, GraphTableDegree, GraphTablePageRank, GraphTableComponents}, nil
	case SourceFrame:
		if len(c.Frames) == 0 {
			return nil, fmt.Errorf("federate: catalog has no frame source")
		}
		names := make([]string, 0, len(c.Frames))
		for name := range c.Frames {
			names = append(names, name)
		}
		sort.Strings(names)
		return names, nil
	case SourceSQL:
		if c.DB == nil {
			return nil, fmt.Errorf("federate: catalog has no sql source")
		}
		return c.DB.TableNames(), nil
	default:
		return nil, fmt.Errorf("federate: unknown source %q (have graph, frame, sql)", source)
	}
}

// Relation is the uniform tabular result flowing between plan stages: named
// columns over rows of nql values (nil, bool, int64, float64, string; graph
// attributes that are lists or maps lift to *nql.List / *nql.Map).
type Relation struct {
	Cols []string
	Rows [][]nql.Value
}

// colIndex resolves a column name; the error names the available columns so
// generated-plan failures are self-explanatory.
func (r *Relation) colIndex(name string) (int, error) {
	return colIndex(r.Cols, name)
}

func colIndex(cols []string, name string) (int, error) {
	for i, c := range cols {
		if c == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("federate: column %q does not exist (have %v)", name, cols)
}

// NumRows returns the row count.
func (r *Relation) NumRows() int { return len(r.Rows) }

// Value lifts the relation into the NQL result domain: a list of
// insertion-ordered maps, one per row, keyed by column name.
func (r *Relation) Value() nql.Value {
	items := make([]nql.Value, len(r.Rows))
	for i, row := range r.Rows {
		m := nql.NewMap()
		for j, c := range r.Cols {
			_ = m.Set(c, row[j])
		}
		items[i] = m
	}
	return nql.NewList(items...)
}

// Frame materializes the relation as a dataframe (for interop with the
// pandas-style bindings).
func (r *Relation) Frame() *dataframe.Frame {
	f := dataframe.New(r.Cols...)
	for _, row := range r.Rows {
		vals := make([]any, len(row))
		for i, v := range row {
			vals[i] = toCell(v)
		}
		f.AppendRow(vals...)
	}
	return f
}

// toCell converts an nql value into the dataframe cell domain.
func toCell(v nql.Value) any {
	switch x := v.(type) {
	case nil, bool, int64, float64, string:
		return x
	default:
		return nql.Repr(v)
	}
}

// liftValue converts a substrate attribute value into the relation's value
// domain (deterministic: map keys sort ascending).
func liftValue(v any) nql.Value {
	switch x := v.(type) {
	case nil, bool, int64, float64, string:
		return x
	case []any:
		items := make([]nql.Value, len(x))
		for i, it := range x {
			items[i] = liftValue(it)
		}
		return nql.NewList(items...)
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		m := nql.NewMap()
		for _, k := range keys {
			_ = m.Set(k, liftValue(x[k]))
		}
		return m
	case graph.Attrs:
		return liftValue(map[string]any(x))
	default:
		return graph.Normalize(v)
	}
}
