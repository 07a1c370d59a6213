package federate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataframe"
	"repro/internal/nql"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// This file is the pipelined executor: every operator of a prepared plan
// runs as its own goroutine, streaming column-major batches downstream over
// bounded channels, so a scan can lift rows while the join above it hashes
// and the aggregate above that folds. A scan stage runs execScan, the same
// scan the row interpreter calls: it filters on source columns before it
// lifts a row, and serves SQL tables from sqldb's native columnar scan
// (falling back to SQL text on ErrPushdown). Planner-fused join/aggregate
// stages push the whole subtree into the SQL substrate.
//
// The pipeline is observationally identical to the legacy recursive
// executor (exec.go), which stays in place both as the fallback for plans
// classify() rejects and as the differential oracle for tests. Three rules
// keep the behaviors aligned:
//
//   - Resolution timing: stages resolve column names when the schema
//     message arrives (before any rows), except per-row predicates, which
//     resolve lazily with short-circuiting exactly like selectRows.
//   - Error precedence: a stage hitting its own error keeps draining its
//     input; if the input ends with an error, that upstream error wins —
//     the legacy executor evaluates inputs fully before the parent stage.
//   - All-or-nothing stages: join, aggregate and sort emit nothing until
//     their input completed cleanly, so downstream stages never observe
//     rows from a failing subtree.

// pipeChanCap bounds each inter-stage channel: enough for the producer to
// stay ahead without unbounded buffering.
const pipeChanCap = 2

// pmsg is one message on an inter-stage channel: the schema (first
// message), a batch, or a terminal error (last message before close).
type pmsg struct {
	schema []string
	b      *batch
	err    error
}

// pipePanic transports a stage goroutine's panic to the caller goroutine,
// where sink re-raises it (so sandbox-level recovery behaves as if the
// legacy executor had panicked inline).
type pipePanic struct{ val any }

func (p *pipePanic) Error() string { return fmt.Sprintf("federate: pipeline panic: %v", p.val) }

type pipeline struct {
	cat  *Catalog // per-run copy: ctx is the pipeline context, prof cleared
	prof *obs.Profile
	pctx context.Context
	// done closes when runPipeline returns. It is the senders' escape
	// hatch for the one case a downstream consumer stops draining (a
	// panicked stage); live cancellation still flows through ordinary
	// error messages, which must never be dropped.
	done chan struct{}
}

// runPipeline executes a prepared pipeline-mode plan.
func runPipeline(ctx context.Context, cat *Catalog, p *Prepared) (*Relation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	prof := obs.ProfileFrom(ctx)
	if ctx != context.Background() || prof != nil {
		// Refuse to start on a dead context (the ExecContext contract).
		probe := *cat
		probe.ctx = ctx
		if err := probe.cancelled(0); err != nil {
			return nil, err
		}
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	defer close(done)
	run := *cat
	run.ctx = pctx
	run.prof = nil
	pl := &pipeline{cat: &run, prof: prof, pctx: pctx, done: done}
	pos := 0
	out := pl.build(p.plan, p.decs, &pos, nil)
	return pl.sink(out)
}

// build wires up the stage graph for a plan subtree (pre-order aligned
// with the decision list) and returns the subtree's output channel.
func (pl *pipeline) build(n Node, decs []decision, pos *int, parent *obs.ProfNode) <-chan pmsg {
	var d decision
	if *pos < len(decs) {
		d = decs[*pos]
	}
	*pos++
	frame := pl.enter(parent, n)
	out := make(chan pmsg, pipeChanCap)
	switch x := n.(type) {
	case *Scan:
		pl.scanStage(x, frame, out)
	case *Filter:
		in := pl.build(x.Input, decs, pos, frame)
		pl.filterStage(x, frame, in, out)
	case *Project:
		in := pl.build(x.Input, decs, pos, frame)
		pl.projectStage(x, frame, in, out)
	case *Join:
		if d.Fuse == fuseSQLJoin {
			*pos += 2 // the two fused scan children
			pl.fusedJoinStage(x, d, frame, out)
		} else {
			left := pl.build(x.Left, decs, pos, frame)
			right := pl.build(x.Right, decs, pos, frame)
			pl.joinStage(x, d, frame, left, right, out)
		}
	case *Aggregate:
		if d.Fuse == fuseSQLAgg {
			*pos++ // the fused scan child
			pl.fusedAggStage(x, frame, out)
		} else {
			in := pl.build(x.Input, decs, pos, frame)
			pl.aggStage(x, frame, in, out)
		}
	case *Sort:
		in := pl.build(x.Input, decs, pos, frame)
		pl.sortStage(x, frame, in, out)
	case *Limit:
		in := pl.build(x.Input, decs, pos, frame)
		pl.limitStage(x, frame, in, out)
	default:
		// classify() keeps unknown operators on the legacy executor; this
		// is a safety net, not a supported path.
		pl.legacyStage(n, frame, out)
	}
	return out
}

// enter pre-builds the stage's profile frame under its parent (frames are
// created top-down at build time; each stage closes its own with Exit).
func (pl *pipeline) enter(parent *obs.ProfNode, n Node) *obs.ProfNode {
	if pl.prof == nil {
		return nil
	}
	name := opName(n)
	return pl.prof.EnterChild(parent, name, strings.TrimPrefix(strings.TrimPrefix(n.label(), name), " "))
}

// stageCat returns the catalog a stage hands to substrate calls: the run
// catalog, with the stage's profile frame threaded through the context so
// sqldb's frames nest under this stage.
func (pl *pipeline) stageCat(frame *obs.ProfNode) *Catalog {
	if frame == nil {
		return pl.cat
	}
	c := *pl.cat
	c.ctx = obs.WithFrame(pl.pctx, frame)
	return &c
}

// spawn launches a stage goroutine that owns (and always closes) out,
// converting a panic into a pipePanic message first.
func (pl *pipeline) spawn(out chan<- pmsg, body func(out chan<- pmsg)) {
	go func() {
		defer close(out)
		defer func() {
			if r := recover(); r != nil {
				pl.send(out, pmsg{err: &pipePanic{val: r}})
			}
		}()
		body(out)
	}()
}

// send delivers a message downstream. Every live stage drains its input
// to close, so a send only fails once the pipeline has already returned
// (teardown after a result, an error — or a panicked consumer).
func (pl *pipeline) send(out chan<- pmsg, m pmsg) bool {
	select {
	case out <- m:
		return true
	case <-pl.done:
		return false
	}
}

// finishStage closes out a stage: forward the error (frame rows -1) or
// record the emitted row count.
func (pl *pipeline) finishStage(frame *obs.ProfNode, out chan<- pmsg, rows int64, err error) {
	if err != nil {
		pl.prof.Exit(frame, -1)
		pl.send(out, pmsg{err: err})
		return
	}
	pl.prof.Exit(frame, rows)
}

// consume drains the input channel, dispatching the schema message and
// each batch until a callback errors; after that it keeps draining. The
// upstream error, arriving last, takes precedence over the stage's own.
func (pl *pipeline) consume(in <-chan pmsg, onSchema func([]string) error, onBatch func(*batch) error) error {
	var upErr, ownErr error
	for m := range in {
		switch {
		case m.err != nil:
			upErr = m.err
		case ownErr != nil:
			// already failed: drain only
		case m.schema != nil:
			ownErr = onSchema(m.schema)
		case m.b != nil:
			ownErr = onBatch(m.b)
		}
	}
	if upErr != nil {
		return upErr
	}
	return ownErr
}

// collect materializes a subtree's output as a row-major relation (for
// the all-or-nothing stages: join, aggregate input is streamed instead).
func (pl *pipeline) collect(in <-chan pmsg) (*Relation, error) {
	rel := &Relation{}
	err := pl.consume(in,
		func(schema []string) error {
			rel.Cols = schema
			return nil
		},
		func(b *batch) error {
			for r := 0; r < b.n; r++ {
				rel.Rows = append(rel.Rows, b.row(r, nil))
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return rel, nil
}

// sink drains the root stage into the caller's relation.
func (pl *pipeline) sink(in <-chan pmsg) (*Relation, error) {
	rel, err := pl.collect(in)
	if err != nil {
		var pp *pipePanic
		if errors.As(err, &pp) {
			panic(pp.val)
		}
		return nil, err
	}
	return rel, nil
}

// streamRel emits a materialized relation downstream as batches.
func (pl *pipeline) streamRel(out chan<- pmsg, rel *Relation) {
	w := &batchWriter{pl: pl, out: out}
	w.start(rel.Cols)
	for _, row := range rel.Rows {
		w.add(row)
	}
	w.flush()
}

// streamColumns lifts a native columnar result straight into batches —
// no row-major detour — and returns the row count.
func (pl *pipeline) streamColumns(out chan<- pmsg, names []string, data [][]any) int64 {
	schema := names
	if schema == nil {
		schema = []string{}
	}
	if !pl.send(out, pmsg{schema: schema}) {
		return 0
	}
	n := 0
	if len(data) > 0 {
		n = len(data[0])
	}
	for off := 0; off < n; off += batchRows {
		end := off + batchRows
		if end > n {
			end = n
		}
		b := &batch{cols: make([][]nql.Value, len(names)), n: end - off}
		for i := range names {
			col := make([]nql.Value, end-off)
			for r := off; r < end; r++ {
				col[r-off] = liftValue(data[i][r])
			}
			b.cols[i] = col
		}
		if !pl.send(out, pmsg{b: b}) {
			break
		}
	}
	return int64(n)
}

// --- stages --------------------------------------------------------------

func (pl *pipeline) scanStage(s *Scan, frame *obs.ProfNode, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		rel, err := execScan(pl.stageCat(frame), s)
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		pl.streamRel(out, rel)
		pl.finishStage(frame, out, int64(len(rel.Rows)), nil)
	})
}

func (pl *pipeline) filterStage(f *Filter, frame *obs.ProfNode, in <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		var shim *Relation
		w := &batchWriter{pl: pl, out: out}
		var rowbuf []nql.Value
		polled := 0
		err := pl.consume(in,
			func(schema []string) error {
				shim = &Relation{Cols: schema}
				w.start(schema)
				return nil
			},
			func(b *batch) error {
				for r := 0; r < b.n; r++ {
					if err := pl.cat.cancelled(polled); err != nil {
						return err
					}
					polled++
					rowbuf = b.row(r, rowbuf)
					keep, err := evalPred(shim, rowbuf, f.Pred)
					if err != nil {
						return err
					}
					if keep {
						w.add(rowbuf)
					}
				}
				return nil
			})
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		w.flush()
		pl.finishStage(frame, out, w.rows, nil)
	})
}

func (pl *pipeline) projectStage(p *Project, frame *obs.ProfNode, in <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		var idx []int
		var rows int64
		err := pl.consume(in,
			func(schema []string) error {
				shim := &Relation{Cols: schema}
				idx = make([]int, len(p.Cols))
				for i, c := range p.Cols {
					j, err := shim.colIndex(c)
					if err != nil {
						return err
					}
					idx[i] = j
				}
				pl.send(out, pmsg{schema: append([]string{}, p.Cols...)})
				return nil
			},
			func(b *batch) error {
				nb := &batch{cols: make([][]nql.Value, len(idx)), n: b.n}
				for i, j := range idx {
					nb.cols[i] = b.cols[j]
				}
				rows += int64(b.n)
				pl.send(out, pmsg{b: nb})
				return nil
			})
		pl.finishStage(frame, out, rows, err)
	})
}

func (pl *pipeline) joinStage(j *Join, d decision, frame *obs.ProfNode, left, right <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		lrel, lerr := pl.collect(left)
		rrel, rerr := pl.collect(right)
		err := lerr
		if err == nil {
			err = rerr
		}
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		rel, err := joinRelations(pl.cat, j, d.BuildLeft, lrel, rrel)
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		pl.streamRel(out, rel)
		pl.finishStage(frame, out, int64(len(rel.Rows)), nil)
	})
}

func (pl *pipeline) fusedJoinStage(j *Join, d decision, frame *obs.ProfNode, out chan<- pmsg) {
	ls := j.Left.(*Scan)
	rs := j.Right.(*Scan)
	pl.spawn(out, func(out chan<- pmsg) {
		cat := pl.stageCat(frame)
		lnat, _ := splitConds(ls.Pushed)
		rnat, _ := splitConds(rs.Pushed)
		spec := sqldb.JoinSpec{
			Left:      sqldb.ScanSpec{Table: ls.Table, Conds: lnat, Cols: ls.Cols},
			Right:     sqldb.ScanSpec{Table: rs.Table, Conds: rnat, Cols: rs.Cols},
			LeftKey:   j.LeftKey,
			RightKey:  j.RightKey,
			BuildLeft: d.BuildLeft,
		}
		names, data, err := cat.DB.JoinColumns(cat.context(), spec)
		if err != nil {
			if errors.Is(err, sqldb.ErrPushdown) {
				pl.runLegacy(j, frame, out)
				return
			}
			pl.finishStage(frame, out, 0, err)
			return
		}
		rows := pl.streamColumns(out, names, data)
		pl.finishStage(frame, out, rows, nil)
	})
}

func (pl *pipeline) aggStage(a *Aggregate, frame *obs.ProfNode, in <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		var st *aggState
		var rowbuf []nql.Value
		polled := 0
		err := pl.consume(in,
			func(schema []string) error {
				s, err := newAggState(a, schema)
				if err != nil {
					return err
				}
				st = s
				return nil
			},
			func(b *batch) error {
				for r := 0; r < b.n; r++ {
					if err := pl.cat.cancelled(polled); err != nil {
						return err
					}
					polled++
					rowbuf = b.row(r, rowbuf)
					if err := st.add(rowbuf); err != nil {
						return err
					}
				}
				return nil
			})
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		rel := st.finish()
		pl.streamRel(out, rel)
		pl.finishStage(frame, out, int64(len(rel.Rows)), nil)
	})
}

func (pl *pipeline) fusedAggStage(a *Aggregate, frame *obs.ProfNode, out chan<- pmsg) {
	s := a.Input.(*Scan)
	pl.spawn(out, func(out chan<- pmsg) {
		cat := pl.stageCat(frame)
		native, _ := splitConds(s.Pushed)
		spec := sqldb.GroupSpec{
			Input:   sqldb.ScanSpec{Table: s.Table, Conds: native, Cols: s.Cols},
			GroupBy: a.GroupBy,
		}
		for _, sp := range a.Aggs {
			spec.Aggs = append(spec.Aggs, sqldb.GroupAgg{Col: sp.Col, Fn: sp.Fn, As: sp.As})
		}
		names, data, err := cat.DB.GroupColumns(cat.context(), spec)
		if err != nil {
			if errors.Is(err, sqldb.ErrPushdown) {
				pl.runLegacy(a, frame, out)
				return
			}
			pl.finishStage(frame, out, 0, err)
			return
		}
		rows := pl.streamColumns(out, names, data)
		pl.finishStage(frame, out, rows, nil)
	})
}

func (pl *pipeline) sortStage(s *Sort, frame *obs.ProfNode, in <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		var idx []int
		rel := &Relation{}
		err := pl.consume(in,
			func(schema []string) error {
				rel.Cols = schema
				shim := &Relation{Cols: schema}
				idx = make([]int, len(s.Cols))
				for i, c := range s.Cols {
					j, err := shim.colIndex(c)
					if err != nil {
						return err
					}
					idx[i] = j
				}
				return nil
			},
			func(b *batch) error {
				for r := 0; r < b.n; r++ {
					rel.Rows = append(rel.Rows, b.row(r, nil))
				}
				return nil
			})
		if err == nil {
			err = pl.cat.cancelled(0)
		}
		if err != nil {
			pl.finishStage(frame, out, 0, err)
			return
		}
		rows := rel.Rows
		sort.SliceStable(rows, func(a, b int) bool {
			for _, j := range idx {
				cmp := dataframe.CompareValues(rows[a][j], rows[b][j])
				if cmp != 0 {
					if s.Ascending {
						return cmp < 0
					}
					return cmp > 0
				}
			}
			return false
		})
		pl.streamRel(out, rel)
		pl.finishStage(frame, out, int64(len(rel.Rows)), nil)
	})
}

func (pl *pipeline) limitStage(l *Limit, frame *obs.ProfNode, in <-chan pmsg, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		n := l.N
		if n < 0 {
			n = 0
		}
		var sent int64
		err := pl.consume(in,
			func(schema []string) error {
				if schema == nil {
					schema = []string{}
				}
				pl.send(out, pmsg{schema: schema})
				return nil
			},
			func(b *batch) error {
				// Past the limit the stage keeps draining (discarding) so an
				// upstream error still surfaces, like the legacy executor,
				// which materializes its input before trimming.
				if sent >= int64(n) {
					return nil
				}
				take := b.n
				if int64(take) > int64(n)-sent {
					take = int(int64(n) - sent)
				}
				nb := b
				if take < b.n {
					nb = &batch{cols: make([][]nql.Value, len(b.cols)), n: take}
					for i := range b.cols {
						nb.cols[i] = b.cols[i][:take]
					}
				}
				sent += int64(take)
				pl.send(out, pmsg{b: nb})
				return nil
			})
		pl.finishStage(frame, out, sent, err)
	})
}

// runLegacy executes a logical subtree via the legacy recursive executor
// inside the current stage (the ErrPushdown fallback: native entry points
// return before emitting anything, so the legacy result — and its exact
// errors — replace the stage's output wholesale).
func (pl *pipeline) runLegacy(n Node, frame *obs.ProfNode, out chan<- pmsg) {
	rel, err := execNode(pl.stageCat(frame), n)
	if err != nil {
		pl.finishStage(frame, out, 0, err)
		return
	}
	pl.streamRel(out, rel)
	pl.finishStage(frame, out, int64(len(rel.Rows)), nil)
}

func (pl *pipeline) legacyStage(n Node, frame *obs.ProfNode, out chan<- pmsg) {
	pl.spawn(out, func(out chan<- pmsg) {
		pl.runLegacy(n, frame, out)
	})
}
