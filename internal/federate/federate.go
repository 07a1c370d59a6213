// Package federate implements a federated query planner and executor over
// the three execution substrates the framework exposes to generated code:
// the attributed graph (internal/graph), the columnar dataframes
// (internal/dataframe) and the SQL database (internal/sqldb).
//
// A single logical plan — scan, filter, project, join, aggregate, sort,
// limit — is planned across heterogeneous sources: every scan names a
// (source, table) pair, the optimizer pushes filters and projections down
// into the scans (testing them on source cells before a row is lifted, with
// one evaluator for every substrate), and the executor evaluates the
// remaining operators over the scans' cells in place, returning a uniform
// relation of nql.Value rows. Graph
// scans can also push whole computations down — degree, PageRank,
// connected components — so a plan can join, say, a SQL probe table
// against graph centrality, which none of the single-substrate backends
// can express.
//
// # Prepare and execute
//
// Run/RunContext split a query into a prepare step and an execute step.
// Prepare optimizes the plan (filter and projection pushdown, conjunction
// folding), collects table statistics from the catalog, and estimates each
// operator's output rows and cost for Explain. Prepared.ExecuteContext
// then runs the optimized plan on one recursive executor,
// single-goroutine per query. Every operator reads its input as one kind
// of column source, in place: a scan filters on source cells before
// anything is lifted, Filter and Project narrow their input's rows and
// columns with the same filter (selectRows) whatever the predicate, Sort
// lifts only its key columns and permutes row positions, and Limit cuts
// them. Join and Aggregate lift only the cells they read into a new
// relation. Only the rows the plan returns are lifted in full. sqldb's
// tables are frames, so a SQL scan is the frame scan of its table: it
// never goes through SQL text or sqldb's executor, and a pushed predicate
// keeps one meaning whichever source or plan position runs it. There is
// one join and one aggregate for every source.
//
// Two plan shapes read only the rows they return. A frame or SQL scan
// whose first pushed predicate is == or prefix against a string literal
// seeks it in the string index a frozen frame master shares with its
// unwritten clones (dataframe.Frame.StringRows and PrefixRows; prefix also
// needs every cell of the column to be a string), and runs its other
// predicates over the rows found. A join whose right input is a graph
// node table in node order (no predicate, sort or limit touched it), keyed
// on id, looks each left key up in the graph's node index instead of
// hashing every node, and reads only the matched nodes' attributes. Every
// other join hashes its smaller input. Rows, their order and error text
// are the same either way. Every operator honors context cancellation at
// row-loop checkpoints (a join also allocates its output in checkpointed
// chunks, and a sort polls from its comparator) and, under an
// obs.Profile, emits one operator frame. The expected results, error text
// and frame trees of a plan corpus are pinned in the package tests.
//
// # Statistics and the plan cache
//
// Statistics (row counts, sampled per-column distinct counts, graph degree
// histograms) are collected per catalog epoch and cached, and prepared
// estimate lists are cached process-wide in DefaultCache keyed by the
// optimized plan's Explain rendering plus the catalog epoch. Catalogs
// sharing an epoch — clones of one frozen dataset master — therefore pay
// the planning cost once; a zero epoch opts a catalog out of both caches.
// Execution never reads an estimate, and closures in the plan (FuncPred)
// are never captured by the cache. Explain on a prepared plan annotates
// each operator with the cost model's view: "rows~N cost~C".
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
	// frozen master) share prepared-plan estimates and table statistics.
	// Allocate epochs with NewEpoch; zero (the default) disables caching
	// for this catalog. A stale epoch can only make Explain's estimates
	// inaccurate: execution reads the live substrates alone.
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

// Relation is the uniform tabular result of a plan, and what Join and
// Aggregate build: named columns over rows of nql values (nil, bool, int64, float64, string; graph
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
// insertion-ordered maps, one per row, keyed by column name. Every row map
// shares one key layout, and the maps and their values are carved from
// two allocations. A repeated column name keeps its first position and its
// last value, as setting the columns one by one would.
func (r *Relation) Value() nql.Value {
	keys := make([]nql.Value, len(r.Cols))
	for i, c := range r.Cols {
		keys[i] = c
	}
	shape := nql.NewMapShape(keys)
	return nql.NewList(shape.Rows(len(r.Rows), func(i int, vals []nql.Value) {
		for j, v := range r.Rows[i] {
			vals[shape.Slot(j)] = v
		}
	})...)
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

// LiftValue converts a substrate attribute value (a graph attribute or a
// frame or table cell) into an NQL value: scalars pass through, lists and
// maps convert recursively with map keys in ascending order, and any other
// value goes through graph.Normalize. The host bindings use it too, so a
// value reads the same through every substrate.
func LiftValue(v any) nql.Value {
	switch x := v.(type) {
	case nil, bool, int64, float64, string:
		return x
	case []any:
		items := make([]nql.Value, len(x))
		for i, it := range x {
			items[i] = LiftValue(it)
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
			_ = m.Set(k, LiftValue(x[k]))
		}
		return m
	case graph.Attrs:
		return LiftValue(map[string]any(x))
	default:
		return graph.Normalize(v)
	}
}
