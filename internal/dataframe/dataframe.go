// Package dataframe implements a small columnar dataframe in the spirit of
// pandas. It is the tabular execution substrate for LLM-generated programs:
// the traffic-analysis and MALT applications expose their node and edge
// tables as frames, and generated code filters, sorts, groups, aggregates
// and joins them.
//
// Values are normalized to nil, bool, int64, float64 or string. Column order
// is preserved; row order is the frame's observable order.
package dataframe

import (
	"fmt"
	"sort"
	"strings"
)

// Frame is an immutable-by-convention columnar table. Operations return new
// frames; mutating helpers (SetCell, AppendRow) exist for building.
//
// A frame can be frozen into a master (Freeze), after which Clone shares
// its column storage copy-on-write: the clone copies columns only when
// first mutated. This mirrors graph.Freeze/Clone and is what lets the
// evaluation matrix hand every sandboxed trial its own table state without
// re-copying thousands of rows per cell.
type Frame struct {
	cols   []string
	data   map[string][]any
	nrows  int
	frozen bool // immutable master; mutating it is a programming error
	shared bool // columns are shared with a frozen master or a reader (Share); copy before write
}

// New creates an empty frame with the given column names.
func New(cols ...string) *Frame {
	f := &Frame{cols: append([]string(nil), cols...), data: map[string][]any{}}
	for _, c := range cols {
		if _, dup := f.data[c]; dup {
			panic(fmt.Sprintf("dataframe: duplicate column %q", c))
		}
		f.data[c] = nil
	}
	return f
}

// FromRecords builds a frame from row maps using the provided column order.
// Missing keys become nil; extra keys are ignored.
func FromRecords(cols []string, records []map[string]any) *Frame {
	f := New(cols...)
	for _, r := range records {
		row := make([]any, len(cols))
		for i, c := range cols {
			row[i] = r[c]
		}
		f.AppendRow(row...)
	}
	return f
}

// FromColumns builds a frame of rows rows that takes over the given column
// slices, one per name and each rows long, whose cells are already in the
// frame's value domain (as read from another frame). The caller must not
// use the slices afterwards.
func FromColumns(cols []string, data [][]any, rows int) *Frame {
	f := New(cols...)
	if len(data) != len(cols) {
		panic(fmt.Sprintf("dataframe: FromColumns got %d columns for %d names", len(data), len(cols)))
	}
	for i, c := range cols {
		if len(data[i]) != rows {
			panic(fmt.Sprintf("dataframe: FromColumns column %q has %d rows, want %d", c, len(data[i]), rows))
		}
		f.data[c] = data[i]
	}
	f.nrows = rows
	return f
}

// normalize coerces values into the frame's value domain.
func normalize(v any) any {
	switch x := v.(type) {
	case nil, bool, int64, float64, string:
		return x
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Columns returns the column names in order (copy).
func (f *Frame) Columns() []string { return append([]string(nil), f.cols...) }

// NumRows returns the row count.
func (f *Frame) NumRows() int { return f.nrows }

// NumCols returns the column count.
func (f *Frame) NumCols() int { return len(f.cols) }

// HasColumn reports whether the column exists.
func (f *Frame) HasColumn(name string) bool {
	_, ok := f.data[name]
	return ok
}

// Column returns the values of one column (live slice — treat as read-only).
// It errors on unknown columns, surfacing the "imaginary attribute" failure
// class of generated code.
func (f *Frame) Column(name string) ([]any, error) {
	col, ok := f.data[name]
	if !ok {
		return nil, fmt.Errorf("dataframe: column %q does not exist (have %v)", name, f.cols)
	}
	return col, nil
}

// Cell returns the value at (row, col).
func (f *Frame) Cell(row int, col string) (any, error) {
	c, err := f.Column(col)
	if err != nil {
		return nil, err
	}
	if row < 0 || row >= f.nrows {
		return nil, fmt.Errorf("dataframe: row %d out of range [0,%d)", row, f.nrows)
	}
	return c[row], nil
}

// SetCell assigns the value at (row, col) in place.
func (f *Frame) SetCell(row int, col string, v any) error {
	if _, err := f.Column(col); err != nil {
		return err
	}
	if row < 0 || row >= f.nrows {
		return fmt.Errorf("dataframe: row %d out of range [0,%d)", row, f.nrows)
	}
	f.ensureOwned()
	f.data[col][row] = normalize(v)
	return nil
}

// AppendRow appends one row; the argument count must match the column count.
func (f *Frame) AppendRow(vals ...any) {
	if len(vals) != len(f.cols) {
		panic(fmt.Sprintf("dataframe: AppendRow got %d values for %d columns", len(vals), len(f.cols)))
	}
	f.ensureOwned()
	for i, c := range f.cols {
		f.data[c] = append(f.data[c], normalize(vals[i]))
	}
	f.nrows++
}

// Row returns row i as a map keyed by column name.
func (f *Frame) Row(i int) map[string]any {
	out := make(map[string]any, len(f.cols))
	for _, c := range f.cols {
		out[c] = f.data[c][i]
	}
	return out
}

// Records returns all rows as maps (row order preserved).
func (f *Frame) Records() []map[string]any {
	out := make([]map[string]any, f.nrows)
	for i := 0; i < f.nrows; i++ {
		out[i] = f.Row(i)
	}
	return out
}

// Share marks the frame copy-on-write: its next in-place write (SetCell,
// AppendRow) copies the columns first, so column slices read before Share
// keep the cells they hold now. Treat those slices as read-only.
func (f *Frame) Share() {
	// A frozen master is never written, and a shared frame copies before
	// its next write already; leaving both untouched keeps concurrent
	// readers of one master free of writes.
	if !f.frozen && !f.shared {
		f.shared = true
	}
}

// Select returns a new frame containing only the named columns, in the given
// order.
func (f *Frame) Select(cols ...string) (*Frame, error) {
	out := New(cols...)
	for _, c := range cols {
		src, err := f.Column(c)
		if err != nil {
			return nil, err
		}
		out.data[c] = append([]any(nil), src...)
	}
	out.nrows = f.nrows
	return out, nil
}

// Drop returns a new frame without the named columns.
func (f *Frame) Drop(cols ...string) (*Frame, error) {
	dropped := map[string]bool{}
	for _, c := range cols {
		if !f.HasColumn(c) {
			return nil, fmt.Errorf("dataframe: column %q does not exist", c)
		}
		dropped[c] = true
	}
	var keep []string
	for _, c := range f.cols {
		if !dropped[c] {
			keep = append(keep, c)
		}
	}
	return f.Select(keep...)
}

// Rename returns a new frame with column old renamed to new.
func (f *Frame) Rename(oldName, newName string) (*Frame, error) {
	if !f.HasColumn(oldName) {
		return nil, fmt.Errorf("dataframe: column %q does not exist", oldName)
	}
	if f.HasColumn(newName) && newName != oldName {
		return nil, fmt.Errorf("dataframe: column %q already exists", newName)
	}
	out := f.Clone()
	for i, c := range out.cols {
		if c == oldName {
			out.cols[i] = newName
		}
	}
	out.data[newName] = out.data[oldName]
	if newName != oldName {
		delete(out.data, oldName)
	}
	return out, nil
}

// Freeze marks the frame as an immutable master: subsequent Clones share
// its column storage copy-on-write instead of deep-copying. Mutating a
// frozen frame panics.
func (f *Frame) Freeze() { f.frozen = true }

// Clone returns a copy of the frame. Cloning a frozen master is O(columns):
// the clone shares the master's column slices and copies them only when it
// is first mutated. Cloning an unfrozen frame deep-copies as before.
func (f *Frame) Clone() *Frame {
	out := New(f.cols...)
	if f.frozen {
		for _, c := range f.cols {
			out.data[c] = f.data[c]
		}
		out.nrows = f.nrows
		out.shared = true
		return out
	}
	for _, c := range f.cols {
		out.data[c] = append([]any(nil), f.data[c]...)
	}
	out.nrows = f.nrows
	return out
}

// ensureOwned makes the frame's column storage private before an in-place
// mutation (SetCell, AppendRow): a frame sharing its columns with a frozen
// master or with a reader (Share) copies them first.
func (f *Frame) ensureOwned() {
	if f.frozen {
		panic("dataframe: mutating a frozen frame")
	}
	if !f.shared {
		return
	}
	for c, col := range f.data {
		f.data[c] = append([]any(nil), col...)
	}
	f.shared = false
}

// FilterIdx returns the rows for which pred(i) is true. It never
// materializes row maps: predicates read columns directly. Kept rows are
// copied at visit time, so rows a predicate appends are visited too, and
// cells it sets in rows not yet visited show in the result.
func (f *Frame) FilterIdx(pred func(i int) (bool, error)) (*Frame, error) {
	out := New(f.cols...)
	vals := make([]any, len(f.cols))
	for i := 0; i < f.nrows; i++ {
		keep, err := pred(i)
		if err != nil {
			return nil, err
		}
		if keep {
			for j, c := range f.cols {
				vals[j] = f.data[c][i]
			}
			out.AppendRow(vals...)
		}
	}
	return out, nil
}

// FilterEq returns the rows where column == value (normalized comparison).
func (f *Frame) FilterEq(col string, value any) (*Frame, error) {
	if !f.HasColumn(col) {
		return nil, fmt.Errorf("dataframe: column %q does not exist", col)
	}
	want := normalize(value)
	c := f.data[col]
	return f.FilterIdx(func(i int) (bool, error) {
		return CompareValues(c[i], want) == 0 && typedSameKind(c[i], want), nil
	})
}

// Head returns the first n rows (all rows if n exceeds the count).
func (f *Frame) Head(n int) *Frame {
	if n > f.nrows {
		n = f.nrows
	}
	if n < 0 {
		n = 0
	}
	out := New(f.cols...)
	for _, c := range f.cols {
		out.data[c] = append([]any(nil), f.data[c][:n]...)
	}
	out.nrows = n
	return out
}

// SortBy returns a new frame sorted by the given columns; ascending controls
// the direction of every key (pandas-style single flag). The sort is stable.
func (f *Frame) SortBy(ascending bool, cols ...string) (*Frame, error) {
	for _, c := range cols {
		if !f.HasColumn(c) {
			return nil, fmt.Errorf("dataframe: column %q does not exist", c)
		}
	}
	idx := make([]int, f.nrows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, c := range cols {
			cmp := CompareValues(f.data[c][idx[a]], f.data[c][idx[b]])
			if cmp != 0 {
				if ascending {
					return cmp < 0
				}
				return cmp > 0
			}
		}
		return false
	})
	return f.Take(idx), nil
}

// Take returns a new frame holding rows idx of f, in that order.
func (f *Frame) Take(idx []int) *Frame {
	out := New(f.cols...)
	for _, c := range f.cols {
		col := make([]any, len(idx))
		for i, j := range idx {
			col[i] = f.data[c][j]
		}
		out.data[c] = col
	}
	out.nrows = len(idx)
	return out
}

// Mutate returns a new frame with an added (or replaced) column computed per
// row.
func (f *Frame) Mutate(col string, fn func(row map[string]any) (any, error)) (*Frame, error) {
	out := f.Clone()
	vals := make([]any, f.nrows)
	for i := 0; i < f.nrows; i++ {
		v, err := fn(f.Row(i))
		if err != nil {
			return nil, err
		}
		vals[i] = normalize(v)
	}
	if !out.HasColumn(col) {
		out.cols = append(out.cols, col)
	}
	out.data[col] = vals
	return out, nil
}

// MutateIdx is Mutate with an index-based callback (no row-map building).
func (f *Frame) MutateIdx(col string, fn func(i int) (any, error)) (*Frame, error) {
	out := f.Clone()
	vals := make([]any, f.nrows)
	for i := 0; i < f.nrows; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		vals[i] = normalize(v)
	}
	if !out.HasColumn(col) {
		out.cols = append(out.cols, col)
	}
	out.data[col] = vals
	return out, nil
}

// Unique returns the distinct values of a column in first-appearance order.
func (f *Frame) Unique(col string) ([]any, error) {
	c, err := f.Column(col)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var out []any
	for _, v := range c {
		k := keyString(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// CompareValues orders two normalized values: nil < bool < number < string,
// numbers compare across int64/float64.
func CompareValues(a, b any) int {
	ra, rb := rank(a), rank(b)
	if ra != rb {
		return ra - rb
	}
	switch x := a.(type) {
	case nil:
		return 0
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case int64:
		return cmpFloat(float64(x), asFloat(b))
	case float64:
		return cmpFloat(x, asFloat(b))
	case string:
		return strings.Compare(x, b.(string))
	default:
		return strings.Compare(fmt.Sprintf("%v", a), fmt.Sprintf("%v", b))
	}
}

func rank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case bool:
		return 1
	case int64, float64:
		return 2
	case string:
		return 3
	default:
		return 4
	}
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func typedSameKind(a, b any) bool { return rank(a) == rank(b) }

func keyString(v any) string {
	switch x := v.(type) {
	case nil:
		return "\x00nil"
	case bool:
		return fmt.Sprintf("\x01%v", x)
	case int64:
		return fmt.Sprintf("\x02%v", float64(x))
	case float64:
		return fmt.Sprintf("\x02%v", x)
	case string:
		return "\x03" + x
	default:
		return "\x04" + fmt.Sprintf("%v", x)
	}
}

// Equal reports deep equality of two frames: same columns (order-sensitive),
// same rows in the same order, numeric values compared across int/float.
// A column whose storage both frames share (an unwritten clone of a
// frozen frame, or a SQL table a clone never wrote) is equal without a
// walk: CompareValues is reflexive, NaN included, so identity is equality.
func Equal(a, b *Frame) bool {
	if a.nrows != b.nrows || len(a.cols) != len(b.cols) {
		return false
	}
	for i, c := range a.cols {
		if b.cols[i] != c {
			return false
		}
	}
	for _, c := range a.cols {
		ac, bc := a.data[c], b.data[c]
		if len(ac) > 0 && len(ac) == len(bc) && &ac[0] == &bc[0] {
			continue
		}
		// Values of different ranks (a string and a number) never compare
		// 0, and int64 and float64 of one magnitude do.
		for i := 0; i < a.nrows; i++ {
			if CompareValues(ac[i], bc[i]) != 0 {
				return false
			}
		}
	}
	return true
}

// String renders the frame as an aligned text table (up to 20 rows).
func (f *Frame) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(f.cols, "\t"))
	sb.WriteString("\n")
	limit := f.nrows
	if limit > 20 {
		limit = 20
	}
	for i := 0; i < limit; i++ {
		parts := make([]string, len(f.cols))
		for j, c := range f.cols {
			parts[j] = fmt.Sprintf("%v", f.data[c][i])
		}
		sb.WriteString(strings.Join(parts, "\t"))
		sb.WriteString("\n")
	}
	if f.nrows > limit {
		fmt.Fprintf(&sb, "... (%d rows total)\n", f.nrows)
	}
	return sb.String()
}
