package federate

import "math"

// This file is the cost model: it walks an optimized logical plan and
// produces one decision per node (pre-order) — resolved source for
// SourceAny scans and join build side — plus row and cost estimates for
// explain output. Decisions are pure data, independent of any closure in
// the plan, which is what makes them cacheable across sessions (see
// prepare.go).

// SourceAny lets a scan defer its substrate: the planner resolves it to
// the cheapest source exposing the table (preferring sql, then frame,
// then graph on ties).
const SourceAny = "any"

// decision is the planner's verdict for one plan node, aligned with the
// optimized plan by pre-order position.
type decision struct {
	Kind      byte    // node kind tag, validated when replaying from cache
	Source    string  // scans: resolved source (copied from the node unless SourceAny)
	BuildLeft bool    // joins: hash the smaller (left) input
	EstRows   float64 // estimated output rows
	EstCost   float64 // estimated cumulative cost (arbitrary units)
}

// Node kind tags for decision validation.
const (
	kindScan  = byte('s')
	kindFilt  = byte('f')
	kindProj  = byte('p')
	kindJoin  = byte('j')
	kindAgg   = byte('a')
	kindSort  = byte('o')
	kindLimit = byte('l')
	kindOther = byte('?')
)

func nodeKind(n Node) byte {
	switch n.(type) {
	case *Scan:
		return kindScan
	case *Filter:
		return kindFilt
	case *Project:
		return kindProj
	case *Join:
		return kindJoin
	case *Aggregate:
		return kindAgg
	case *Sort:
		return kindSort
	case *Limit:
		return kindLimit
	default:
		return kindOther
	}
}

// Per-row costs of scanning substrate rows into the relation's value
// domain.
const (
	liftCostSQL   = 0.5  // sqldb columnar scan
	liftCostFrame = 1.0  // direct frame lift
	liftCostGraph = 1.5  // graph attr lift
	computeCost   = 25.0 // per-row surcharge for whole-graph virtual tables
)

// annotate computes the decision list for an optimized plan. It never
// fails: unknown tables or sources get pessimistic defaults and execution
// surfaces the real error.
func annotate(cat *Catalog, plan Node) []decision {
	cs := statsFor(cat)
	var decs []decision
	costNode(cat, cs, plan, &decs)
	return decs
}

// nodeEst carries the per-subtree estimates the parent needs: output
// rows, and the bottoming scan's statistics while the subtree is a
// scan/filter/project chain (for join-key distinct estimates).
type nodeEst struct {
	rows float64
	cost float64
	scan *TableStats
}

func costNode(cat *Catalog, cs *catalogStats, n Node, decs *[]decision) nodeEst {
	idx := len(*decs)
	*decs = append(*decs, decision{Kind: nodeKind(n)})
	var est nodeEst
	switch x := n.(type) {
	case *Scan:
		est = costScan(cat, cs, x, &(*decs)[idx])
	case *Filter:
		in := costNode(cat, cs, x.Input, decs)
		est = nodeEst{rows: in.rows * predSelectivity(x.Pred, in), cost: in.cost + in.rows, scan: in.scan}
	case *Project:
		in := costNode(cat, cs, x.Input, decs)
		est = nodeEst{rows: in.rows, cost: in.cost + in.rows, scan: in.scan}
	case *Join:
		l := costNode(cat, cs, x.Left, decs)
		r := costNode(cat, cs, x.Right, decs)
		d := &(*decs)[idx]
		d.BuildLeft = l.rows < r.rows
		dl := keyDistinct(l, x.LeftKey)
		dr := keyDistinct(r, x.RightKey)
		dmax := math.Max(math.Max(dl, dr), 1)
		est = nodeEst{rows: l.rows * r.rows / dmax, cost: l.cost + r.cost + l.rows + r.rows}
	case *Aggregate:
		in := costNode(cat, cs, x.Input, decs)
		rows := 1.0
		if len(x.GroupBy) > 0 {
			rows = 1
			for _, c := range x.GroupBy {
				rows *= keyDistinct(in, c)
			}
			rows = math.Min(rows, in.rows)
		}
		est = nodeEst{rows: rows, cost: in.cost + in.rows}
	case *Sort:
		in := costNode(cat, cs, x.Input, decs)
		nlogn := in.rows * math.Log2(math.Max(in.rows, 2))
		est = nodeEst{rows: in.rows, cost: in.cost + nlogn}
	case *Limit:
		in := costNode(cat, cs, x.Input, decs)
		est = nodeEst{rows: math.Min(in.rows, math.Max(float64(x.N), 0)), cost: in.cost + in.rows}
	default:
		est = nodeEst{rows: 1, cost: 1}
	}
	d := &(*decs)[idx]
	d.EstRows = est.rows
	d.EstCost = est.cost
	return est
}

// costScan resolves the scan's source (for SourceAny) and estimates output
// rows after the pushed predicates.
func costScan(cat *Catalog, cs *catalogStats, s *Scan, d *decision) nodeEst {
	source := s.Source
	if source == SourceAny {
		source = resolveSource(cat, cs, s)
	}
	d.Source = source
	st := cs.table(cat, source, s.Table)
	rows := 1000.0 // unknown table: pessimistic default, error surfaces at run time
	if st != nil {
		rows = float64(st.Rows)
	}
	sel := 1.0
	for _, c := range s.Pushed {
		sel *= cmpSelectivity(c, st)
	}
	return nodeEst{rows: rows * sel, cost: rows * liftCost(source, st), scan: st}
}

// liftCost is the per-row cost of a scan of source (st may be nil).
func liftCost(source string, st *TableStats) float64 {
	switch source {
	case SourceSQL:
		return liftCostSQL
	case SourceGraph:
		if st != nil && st.Compute {
			return liftCostGraph + computeCost
		}
		return liftCostGraph
	}
	return liftCostFrame
}

// resolveSource picks the cheapest substrate exposing the table for a
// SourceAny scan; ties and the no-candidate case prefer sql, then frame,
// then graph.
func resolveSource(cat *Catalog, cs *catalogStats, s *Scan) string {
	best, bestCost := "", math.Inf(1)
	for _, source := range []string{SourceSQL, SourceFrame, SourceGraph} {
		st := cs.table(cat, source, s.Table)
		if st == nil {
			continue
		}
		if c := float64(st.Rows) * liftCost(source, st); c < bestCost {
			best, bestCost = source, c
		}
	}
	if best != "" {
		return best
	}
	// No substrate has the table: resolve to the most natural present
	// source so execution reports its unknown-table error.
	switch {
	case cat.DB != nil:
		return SourceSQL
	case len(cat.Frames) > 0:
		return SourceFrame
	default:
		return SourceGraph
	}
}

// keyDistinct estimates the distinct count of a key column at a node,
// scaled down when filters shrank the scan (capped at the row estimate).
func keyDistinct(e nodeEst, col string) float64 {
	d := math.Sqrt(math.Max(e.rows, 1))
	if e.scan != nil {
		d = float64(e.scan.distinctOf(col))
	}
	return math.Max(math.Min(d, math.Max(e.rows, 1)), 1)
}

func predSelectivity(p Pred, in nodeEst) float64 {
	switch x := p.(type) {
	case Cmp:
		return cmpSelectivity(x, in.scan)
	case And:
		sel := 1.0
		for _, sub := range x.Preds {
			sel *= predSelectivity(sub, in)
		}
		return sel
	default: // FuncPred and future kinds
		return 1.0 / 3
	}
}

func cmpSelectivity(c Cmp, st *TableStats) float64 {
	switch c.Op {
	case "==":
		d := 1.0
		if st != nil {
			d = float64(st.distinctOf(c.Col))
		}
		return 1 / math.Max(d, 1)
	case "!=":
		d := 1.0
		if st != nil {
			d = float64(st.distinctOf(c.Col))
		}
		return 1 - 1/math.Max(d, 1)
	case "<", "<=", ">", ">=":
		return 1.0 / 3
	case "prefix", "contains":
		return 1.0 / 4
	default:
		return 1.0 / 3
	}
}
