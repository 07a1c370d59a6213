package federate

import "repro/internal/nql"

// batchRows is the pipeline's column-chunk size: large enough to amortize
// channel sends and per-batch bookkeeping, small enough that a handful of
// in-flight batches per stage keeps memory bounded.
const batchRows = 1024

// batch is one column-major chunk of rows flowing between pipeline stages:
// len(cols) value slices of n cells each. Batches are immutable once sent —
// a stage that reshapes data builds new column slices (projection and limit
// may alias received columns, which is why nobody writes into one).
type batch struct {
	cols [][]nql.Value
	n    int
}

// newBatch allocates a batch of width columns with room for capHint rows.
// Writers start small and only reserve full batchRows capacity after a
// batch actually fills — small results (the common case for analytic
// queries over modest datasets) then never pay for 1024-row columns.
func newBatch(width, capHint int) *batch {
	b := &batch{cols: make([][]nql.Value, width)}
	for i := range b.cols {
		b.cols[i] = make([]nql.Value, 0, capHint)
	}
	return b
}

// row gathers one row of the batch into dst (grown as needed); pass nil to
// allocate a fresh row.
func (b *batch) row(r int, dst []nql.Value) []nql.Value {
	dst = dst[:0]
	for _, c := range b.cols {
		dst = append(dst, c[r])
	}
	return dst
}

// batchWriter accumulates rows into batches and sends them downstream,
// flushing at batchRows. Once the pipeline is tearing down (a send fails)
// it keeps counting rows for the profile but stops building batches.
type batchWriter struct {
	pl    *pipeline
	out   chan<- pmsg
	width int
	b     *batch
	rows  int64
	dead  bool
	full  bool // a previous batch filled: allocate full capacity up front
}

// start sends the schema message opening the stage's output stream.
func (w *batchWriter) start(schema []string) {
	if schema == nil {
		schema = []string{}
	}
	w.width = len(schema)
	if !w.pl.send(w.out, pmsg{schema: schema}) {
		w.dead = true
	}
}

func (w *batchWriter) add(row []nql.Value) {
	w.rows++
	if w.dead {
		return
	}
	if w.b == nil {
		hint := 16
		if w.full {
			hint = batchRows
		}
		w.b = newBatch(w.width, hint)
	}
	for i, v := range row {
		w.b.cols[i] = append(w.b.cols[i], v)
	}
	w.b.n++
	if w.b.n >= batchRows {
		w.full = true
		w.flush()
	}
}

func (w *batchWriter) flush() {
	if w.b != nil && w.b.n > 0 && !w.dead {
		if !w.pl.send(w.out, pmsg{b: w.b}) {
			w.dead = true
		}
	}
	w.b = nil
}
