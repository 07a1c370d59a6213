package federate

import (
	"fmt"
	"strings"

	"repro/internal/nql"
)

// Node is one operator of the logical plan. Plans are immutable trees built
// by the bindings (or directly in Go) and consumed by Optimize/Run; sharing
// subtrees between plans is safe.
type Node interface {
	// label renders the operator (without children) for Explain.
	label() string
	children() []Node
}

// Comparison operators accepted by Cmp predicates.
var cmpOps = map[string]bool{
	"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true,
	"contains": true, "prefix": true,
}

// ValidOp reports whether op is a structured comparison operator.
func ValidOp(op string) bool { return cmpOps[op] }

// Pred is a row predicate: either a structured comparison (Cmp), which the
// optimizer can push into scans, or an opaque function (FuncPred), which
// always evaluates in the executor.
type Pred interface {
	predLabel() string
}

// Cmp compares one column against a literal: ==, !=, <, <=, >, >=,
// contains (substring) or prefix.
type Cmp struct {
	Col   string
	Op    string
	Value nql.Value
}

func (c Cmp) predLabel() string { return fmt.Sprintf("%s %s %s", c.Col, c.Op, nql.Repr(c.Value)) }

// FuncPred wraps an arbitrary row predicate (e.g. an NQL lambda). It is
// never pushed down.
type FuncPred struct {
	Fn func(row *nql.Map) (bool, error)
}

func (FuncPred) predLabel() string { return "fn(row)" }

// And is a conjunction of predicates, evaluated left to right with
// short-circuiting. The optimizer splits an And directly above a scan and
// folds each Cmp conjunct into the scan's pushdown list individually.
type And struct {
	Preds []Pred
}

func (a And) predLabel() string {
	parts := make([]string, len(a.Preds))
	for i, p := range a.Preds {
		parts[i] = p.predLabel()
	}
	return strings.Join(parts, " and ")
}

// Scan reads one table of one source. Pushed and Cols are filled by the
// optimizer: the scan applies Pushed predicates at the source, on source
// cells before the row lift, and then projects to Cols (nil means all
// columns, in the table's natural order).
type Scan struct {
	Source string
	Table  string
	Pushed []Cmp
	Cols   []string
}

func (s *Scan) children() []Node { return nil }
func (s *Scan) label() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scan %s.%s", s.Source, s.Table)
	for _, c := range s.Pushed {
		fmt.Fprintf(&sb, " [%s]", c.predLabel())
	}
	if s.Cols != nil {
		fmt.Fprintf(&sb, " cols=(%s)", strings.Join(s.Cols, ", "))
	}
	return sb.String()
}

// Filter keeps the input rows satisfying Pred.
type Filter struct {
	Input Node
	Pred  Pred
}

func (f *Filter) children() []Node { return []Node{f.Input} }
func (f *Filter) label() string    { return "filter " + f.Pred.predLabel() }

// Project keeps (and reorders to) the named columns.
type Project struct {
	Input Node
	Cols  []string
}

func (p *Project) children() []Node { return []Node{p.Input} }
func (p *Project) label() string    { return "project (" + strings.Join(p.Cols, ", ") + ")" }

// Join is an inner hash equi-join on LeftKey = RightKey. Output columns are
// the left columns followed by the right columns minus the join key; a
// right column whose name collides with a left column is suffixed "_r".
type Join struct {
	Left, Right       Node
	LeftKey, RightKey string
}

func (j *Join) children() []Node { return []Node{j.Left, j.Right} }
func (j *Join) label() string    { return fmt.Sprintf("join on %s = %s", j.LeftKey, j.RightKey) }

// Aggregate functions.
const (
	AggCount = "count"
	AggSum   = "sum"
	AggMean  = "mean"
	AggMin   = "min"
	AggMax   = "max"
)

// AggSpec is one aggregation: Fn over Col, emitted as column As. AggCount
// ignores Col.
type AggSpec struct {
	Col string
	Fn  string
	As  string
}

// Aggregate groups the input by the GroupBy columns (empty means one global
// group) and computes the Aggs per group. Groups appear in first-appearance
// order of the input rows; output columns are GroupBy followed by the agg
// names.
type Aggregate struct {
	Input   Node
	GroupBy []string
	Aggs    []AggSpec
}

func (a *Aggregate) children() []Node { return []Node{a.Input} }
func (a *Aggregate) label() string {
	parts := make([]string, len(a.Aggs))
	for i, sp := range a.Aggs {
		parts[i] = fmt.Sprintf("%s(%s) as %s", sp.Fn, sp.Col, sp.As)
	}
	return fmt.Sprintf("aggregate group=(%s) aggs=(%s)",
		strings.Join(a.GroupBy, ", "), strings.Join(parts, ", "))
}

// Sort stably orders rows by the given columns; Ascending applies to every
// key (pandas-style single flag).
type Sort struct {
	Input     Node
	Cols      []string
	Ascending bool
}

func (s *Sort) children() []Node { return []Node{s.Input} }
func (s *Sort) label() string {
	dir := "asc"
	if !s.Ascending {
		dir = "desc"
	}
	return fmt.Sprintf("sort (%s) %s", strings.Join(s.Cols, ", "), dir)
}

// Limit keeps the first N rows.
type Limit struct {
	Input Node
	N     int
}

func (l *Limit) children() []Node { return []Node{l.Input} }
func (l *Limit) label() string    { return fmt.Sprintf("limit %d", l.N) }

// Explain renders a plan as an indented operator tree (one operator per
// line, children indented), the federated analogue of EXPLAIN.
func Explain(n Node) string {
	var sb strings.Builder
	explainInto(&sb, n, 0, nil, new(int))
	return sb.String()
}

// explainInto renders n's subtree at depth. Each operator's line carries
// the estimate ests[*pos] when there is one, *pos counting operators in
// the order they render.
func explainInto(sb *strings.Builder, n Node, depth int, ests []estimate, pos *int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.label())
	if *pos < len(ests) {
		fmt.Fprintf(sb, "  -- rows~%.0f cost~%.0f", ests[*pos].EstRows, ests[*pos].EstCost)
	}
	*pos++
	sb.WriteString("\n")
	for _, c := range n.children() {
		explainInto(sb, c, depth+1, ests, pos)
	}
}
