// Package dataframe implements a small columnar dataframe in the spirit of
// pandas. It is the tabular execution substrate for LLM-generated programs:
// the traffic-analysis and MALT applications expose their node and edge
// tables as frames, and generated code filters, sorts, groups, aggregates
// and joins them.
//
// Values are normalized to nil, bool, int64, float64 or string, the domain
// of package scalar, whose key and order contract GroupBy, Unique, Merge,
// SortBy and Equal follow. Column order is preserved; row order is the
// frame's observable order.
package dataframe

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/scalar"
)

// Frame is an immutable-by-convention columnar table. Operations return new
// frames; mutating helpers (SetCell, AppendRow) exist for building.
//
// A frame can be frozen into a master (Freeze), after which Clone shares
// its column storage copy-on-write: the clone copies columns only when
// first mutated. This mirrors graph.Freeze/Clone and is what lets the
// evaluation matrix hand every sandboxed trial its own table state without
// re-copying thousands of rows per cell. A master and its unwritten clones
// also share one string index (StringRows, PrefixRows).
type Frame struct {
	cols   []string
	data   map[string][]any
	nrows  int
	frozen bool                 // immutable master; mutating it is a programming error
	shared bool                 // columns are shared with a frozen master or a reader (Share); copy before write
	index  map[string]*colIndex // the frozen master's index; nil once the frame writes
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
	out.cols = slices.Clone(f.cols) // a clone of a frozen master shares its list
	out.cols[slices.Index(out.cols, oldName)] = newName
	out.data[newName] = out.data[oldName]
	if newName != oldName {
		delete(out.data, oldName)
	}
	return out, nil
}

// Freeze marks the frame as an immutable master: subsequent Clones share
// its column storage copy-on-write instead of deep-copying. Mutating a
// frozen frame panics. Freezing also gives the master an empty string
// index, whose columns are built on first lookup (StringRows, PrefixRows)
// and shared by every clone that has not written.
func (f *Frame) Freeze() {
	if f.frozen {
		return
	}
	f.frozen = true
	f.index = make(map[string]*colIndex, len(f.cols))
	for _, c := range f.cols {
		f.index[c] = &colIndex{data: f.data[c]}
	}
}

// Clone returns a copy of the frame. Cloning a frozen master is O(columns):
// the clone shares the master's column slices and index until its first
// mutation drops them, and its column list, which it never writes in place
// (Rename copies it, and adding a column reallocates it). Cloning an
// unfrozen frame deep-copies as before.
func (f *Frame) Clone() *Frame {
	if f.frozen {
		return &Frame{cols: slices.Clip(f.cols), data: maps.Clone(f.data), nrows: f.nrows, shared: true, index: f.index}
	}
	out := New(f.cols...)
	for _, c := range f.cols {
		out.data[c] = append([]any(nil), f.data[c]...)
	}
	out.nrows = f.nrows
	return out
}

// ensureOwned makes the frame's column storage private before an in-place
// mutation (SetCell, AppendRow): a frame sharing its columns with a frozen
// master or with a reader (Share) copies them first. The frame stops
// reading its master's index, which the write may make wrong.
func (f *Frame) ensureOwned() {
	if f.frozen {
		panic("dataframe: mutating a frozen frame")
	}
	f.index = nil
	if !f.shared {
		return
	}
	for c, col := range f.data {
		f.data[c] = append([]any(nil), col...)
	}
	f.shared = false
}

// colIndex is a frozen master's string index of one column, built on first
// lookup: strs holds the distinct strings the column's cells hold, sorted,
// and rows[i] the ascending positions of the cells holding strs[i].
// allStrings records that every cell is a string. StringRows answers
// sqldb's and federate's string-equality seeks from it, and PrefixRows
// federate's prefix seeks. Freeze fills the frame's map of them once, so
// concurrent lookups through clones need no lock beyond each column's
// Once.
type colIndex struct {
	data       []any
	once       sync.Once
	strs       []string
	rows       [][]int32
	allStrings bool
}

// build fills strs and rows, carving every position list from one array.
func (ci *colIndex) build() {
	counts := map[string]int32{}
	total := 0
	for _, v := range ci.data {
		if s, ok := v.(string); ok {
			counts[s]++
			total++
		}
	}
	ci.allStrings = total == len(ci.data)
	ci.strs = make([]string, 0, len(counts))
	for s := range counts {
		ci.strs = append(ci.strs, s)
	}
	slices.Sort(ci.strs)
	ci.rows = make([][]int32, len(ci.strs))
	all := make([]int32, total)
	off := 0
	for i, s := range ci.strs {
		n := int(counts[s])
		ci.rows[i] = all[off : off : off+n]
		off += n
		counts[s] = int32(i) // from here on, s's position in strs
	}
	for i, v := range ci.data {
		if s, ok := v.(string); ok {
			j := counts[s]
			ci.rows[j] = append(ci.rows[j], int32(i))
		}
	}
}

// usableIndex returns the index of col when the frame may read it: the
// frame is a frozen master or an unwritten clone of one, and its column
// col is still the master's (same backing array and length). Nil leaves
// the caller to scan.
func (f *Frame) usableIndex(col string) *colIndex {
	if f.index == nil {
		return nil
	}
	ci := f.index[col]
	cur, has := f.data[col]
	if ci == nil || !has || len(cur) != len(ci.data) || len(cur) > 0 && &cur[0] != &ci.data[0] {
		return nil
	}
	ci.once.Do(ci.build)
	return ci
}

// StringRows returns the ascending positions of the rows whose cell in col
// is the string s, read from the index of the frame's frozen master. ok is
// false when the frame has no usable index for col: it is neither a frozen
// master nor an unwritten clone of one, or its column col is not the
// master's column (renamed, added or rebuilt since). The caller then scans.
// sqldb seeks through it for a WHERE that leads with col = 'string', and
// federate for a frame scan whose first pushed predicate is == against a
// string. The positions are shared; treat them as read-only.
func (f *Frame) StringRows(col, s string) (rows []int32, ok bool) {
	ci := f.usableIndex(col)
	if ci == nil {
		return nil, false
	}
	if i, found := slices.BinarySearch(ci.strs, s); found {
		return ci.rows[i], true
	}
	return nil, true
}

// PrefixRows returns the ascending positions of the rows whose cell in col
// is a string starting with prefix, from the same index as StringRows: a
// binary search finds the run of sorted strings sharing the prefix, and
// their position lists are merged. ok is false where StringRows's is, and
// also when some cell of col is not a string, where a prefix test fails;
// the caller scans and raises that failure at its row. Federate seeks
// through it for a frame scan whose first pushed predicate is prefix
// against a string. A single matching string's positions are shared;
// treat the result as read-only.
func (f *Frame) PrefixRows(col, prefix string) (rows []int32, ok bool) {
	ci := f.usableIndex(col)
	if ci == nil || !ci.allStrings {
		return nil, false
	}
	lo, _ := slices.BinarySearch(ci.strs, prefix)
	hi := lo + sort.Search(len(ci.strs)-lo, func(i int) bool { return !strings.HasPrefix(ci.strs[lo+i], prefix) })
	switch hi - lo {
	case 0:
		return nil, true
	case 1:
		return ci.rows[lo], true
	}
	rows = slices.Concat(ci.rows[lo:hi]...)
	slices.Sort(rows)
	return rows, true
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
		return scalar.Equal(c[i], want), nil
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
	keys := make([][]any, len(cols))
	desc := make([]bool, len(cols))
	for i, c := range cols {
		keys[i], desc[i] = f.data[c], !ascending
	}
	scalar.SortStable(idx, keys, desc, nil)
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
	seen := map[scalar.Key]bool{}
	var out []any
	for _, v := range c {
		k, _ := scalar.KeyOf(v)
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// Equal reports deep equality of two frames: same columns (order-sensitive),
// same rows in the same order, cells compared by scalar.Equal. A column
// whose storage both frames share (an unwritten clone of a frozen frame,
// or a SQL table a clone never wrote) is equal without a walk:
// scalar.Equal is reflexive, NaN included, so identity is equality.
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
		for i := 0; i < a.nrows; i++ {
			if !scalar.Equal(ac[i], bc[i]) {
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
