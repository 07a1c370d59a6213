package federate

import "math"

// This file is the cost model: it walks an optimized logical plan and
// estimates each node's output rows and cumulative cost (pre-order), the
// annotations Prepared.Explain prints. Estimates are pure data,
// independent of any closure in the plan, which is what makes them
// cacheable across sessions (see prepare.go). Execution never reads them:
// a join sizes its own build side from the exact row counts of its
// inputs.

// estimate is the cost model's view of one plan node, aligned with the
// optimized plan by pre-order position.
type estimate struct {
	EstRows float64 // estimated output rows
	EstCost float64 // estimated cumulative cost (arbitrary units)
}

// Per-row costs of scanning substrate rows into the relation's value
// domain.
const (
	liftCostSQL   = 0.5  // sqldb columnar scan
	liftCostFrame = 1.0  // direct frame lift
	liftCostGraph = 1.5  // graph attr lift
	computeCost   = 25.0 // per-row surcharge for whole-graph virtual tables
)

// annotate computes the estimate list for an optimized plan. It never
// fails: unknown tables or sources get pessimistic defaults and execution
// surfaces the real error.
func annotate(cat *Catalog, plan Node) []estimate {
	cs := statsFor(cat)
	var ests []estimate
	costNode(cat, cs, plan, &ests)
	return ests
}

// nodeEst carries the per-subtree estimates the parent needs: output
// rows, and the bottoming scan's statistics while the subtree is a
// scan/filter/project chain (for join-key distinct estimates).
type nodeEst struct {
	rows float64
	cost float64
	scan *TableStats
}

func costNode(cat *Catalog, cs *catalogStats, n Node, ests *[]estimate) nodeEst {
	idx := len(*ests)
	*ests = append(*ests, estimate{})
	var est nodeEst
	switch x := n.(type) {
	case *Scan:
		est = costScan(cat, cs, x)
	case *Filter:
		in := costNode(cat, cs, x.Input, ests)
		est = nodeEst{rows: in.rows * predSelectivity(x.Pred, in), cost: in.cost + in.rows, scan: in.scan}
	case *Project:
		in := costNode(cat, cs, x.Input, ests)
		est = nodeEst{rows: in.rows, cost: in.cost + in.rows, scan: in.scan}
	case *Join:
		l := costNode(cat, cs, x.Left, ests)
		r := costNode(cat, cs, x.Right, ests)
		dl := keyDistinct(l, x.LeftKey)
		dr := keyDistinct(r, x.RightKey)
		dmax := math.Max(math.Max(dl, dr), 1)
		est = nodeEst{rows: l.rows * r.rows / dmax, cost: l.cost + r.cost + l.rows + r.rows}
	case *Aggregate:
		in := costNode(cat, cs, x.Input, ests)
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
		in := costNode(cat, cs, x.Input, ests)
		nlogn := in.rows * math.Log2(math.Max(in.rows, 2))
		est = nodeEst{rows: in.rows, cost: in.cost + nlogn}
	case *Limit:
		in := costNode(cat, cs, x.Input, ests)
		est = nodeEst{rows: math.Min(in.rows, math.Max(float64(x.N), 0)), cost: in.cost + in.rows}
	default:
		est = nodeEst{rows: 1, cost: 1}
	}
	d := &(*ests)[idx]
	d.EstRows = est.rows
	d.EstCost = est.cost
	return est
}

// costScan estimates a scan's output rows after its pushed predicates.
func costScan(cat *Catalog, cs *catalogStats, s *Scan) nodeEst {
	st := cs.table(cat, s.Source, s.Table)
	rows := 1000.0 // unknown table: pessimistic default, error surfaces at run time
	if st != nil {
		rows = float64(st.Rows)
	}
	sel := 1.0
	for _, c := range s.Pushed {
		sel *= cmpSelectivity(c, st)
	}
	return nodeEst{rows: rows * sel, cost: rows * liftCost(s.Source, st), scan: st}
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
