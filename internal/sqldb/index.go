package sqldb

import (
	"bytes"
	"fmt"
	"sort"
)

// Index is a secondary hash index over one or more columns: key tuple →
// row positions. Indexes are created explicitly with CREATE INDEX and
// automatically for every FOREIGN KEY column set, so PK/FK lookups,
// referential-integrity checks and equality WHERE clauses resolve without
// scanning (the LoggedSystemState hot path).
type Index struct {
	Name   string
	Cols   []string
	colIdx []int
	// rows maps a key tuple to its bucket, the positions of the rows that
	// project onto it. A bucket is held by pointer, so a row whose key has
	// one joins it in place: the map is indexed with the key's bytes, and
	// no key string is made. Every LoggedSystemState row of a campaign
	// joins the one bucket of the campaignName index.
	rows map[string]*[]int
}

// buildIndex resolves an index definition against a table and populates it
// from the current rows.
func (t *Table) buildIndex(name string, cols []string) (*Index, error) {
	colIdx, err := t.colIndexes(cols)
	if err != nil {
		return nil, err
	}
	idx := &Index{Name: name, Cols: cols, colIdx: colIdx}
	idx.populate(t.Rows)
	return idx, nil
}

func (ix *Index) populate(rows [][]Value) {
	ix.rows = make(map[string]*[]int, len(rows))
	for ri, row := range rows {
		ix.insert(ri, row)
	}
}

// appendKey appends the index key tuple of a row to buf. Rows with a NULL
// component are not indexed (reported as !ok): SQL equality never matches
// NULL, so no equality lookup — WHERE selection, FK check or referencer
// scan — can ever need them, and skipping them keeps a mostly-NULL column
// (such as LoggedSystemState.parentExperiment) from piling every row into
// one bucket.
func (ix *Index) appendKey(buf []byte, row []Value) ([]byte, bool) {
	for _, ci := range ix.colIdx {
		if row[ci].IsNull() {
			return buf, false
		}
	}
	return appendRowKey(buf, row, ix.colIdx), true
}

// add puts row ri into the bucket of key, which it opens if there is none.
func (ix *Index) add(key []byte, ri int) {
	if b := ix.rows[string(key)]; b != nil {
		*b = append(*b, ri)
		return
	}
	ix.rows[string(key)] = &[]int{ri}
}

func (ix *Index) insert(ri int, row []Value) {
	var buf [keyBytes]byte
	if k, ok := ix.appendKey(buf[:0], row); ok {
		ix.add(k, ri)
	}
}

func (ix *Index) update(ri int, old, next []Value) {
	var oldBuf, nextBuf [keyBytes]byte
	ok, okIn := ix.appendKey(oldBuf[:0], old)
	nk, nkIn := ix.appendKey(nextBuf[:0], next)
	if okIn == nkIn && bytes.Equal(ok, nk) {
		return
	}
	if okIn {
		b := ix.rows[string(ok)]
		if *b = removeInt(*b, ri); len(*b) == 0 {
			delete(ix.rows, string(ok))
		}
	}
	if nkIn {
		ix.add(nk, ri)
	}
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// covers reports whether every index column has an equality binding.
func (ix *Index) covers(eq map[string]Value) bool {
	for _, c := range ix.Cols {
		if _, ok := eq[c]; !ok {
			return false
		}
	}
	return true
}

// lookup returns the candidate rows for the bound key tuple.
func (ix *Index) lookup(eq map[string]Value) []int {
	vals := make([]Value, len(ix.Cols))
	for i, c := range ix.Cols {
		vals[i] = eq[c]
	}
	if b := ix.rows[keyString(vals)]; b != nil {
		return *b
	}
	return nil
}

// addIndex attaches a populated index to the table. Index names are unique
// per table.
func (t *Table) addIndex(name string, cols []string) error {
	for _, ix := range t.Indexes {
		if ix.Name == name {
			return fmt.Errorf("sqldb: index %q already exists on table %s", name, t.Name)
		}
	}
	ix, err := t.buildIndex(name, cols)
	if err != nil {
		return err
	}
	t.Indexes = append(t.Indexes, ix)
	return nil
}

// indexOn returns the index whose columns are exactly cols, in order, or
// nil.
func (t *Table) indexOn(cols []string) *Index {
	for _, ix := range t.Indexes {
		if equalStrings(ix.Cols, cols) {
			return ix
		}
	}
	return nil
}

// hasKey reports whether some row projects onto cols as key (appendRowKey's
// encoding). cols is the table's primary key or an index's columns, as
// every foreign key's two sides are.
func (t *Table) hasKey(cols []string, key []byte) bool {
	if equalStrings(cols, t.PKCols) {
		_, ok := t.pkIndex[string(key)]
		return ok
	}
	ix := t.indexOn(cols)
	if ix == nil {
		return false
	}
	b := ix.rows[string(key)]
	return b != nil && len(*b) > 0
}

// eqBindings walks the top-level AND conjunction of a WHERE clause and
// collects `column = constant` bindings usable for index selection. Only
// literals and parameters count as constants; a binding whose value kind
// cannot equal the column's values (NULL, or an incomparable kind) is
// dropped, leaving the residual predicate to row-level evaluation.
func eqBindings(t *Table, e Expr, args []Value, out map[string]Value) {
	b, ok := e.(*Binary)
	if !ok {
		return
	}
	switch b.Op {
	case "AND":
		eqBindings(t, b.L, args, out)
		eqBindings(t, b.R, args, out)
	case "=":
		col, val, ok := constEq(b, args)
		if !ok {
			return
		}
		ci, err := t.colIndex(col)
		if err != nil || val.IsNull() || !kindsComparable(t.Cols[ci].Type, val.K) {
			return
		}
		if _, dup := out[col]; !dup {
			out[col] = val
		}
	}
}

// constEq decomposes `col = const` (either operand order) into its column
// name and constant value.
func constEq(b *Binary, args []Value) (string, Value, bool) {
	if c, ok := b.L.(*ColRef); ok {
		if v, ok := constVal(b.R, args); ok {
			return c.Name, v, true
		}
	}
	if c, ok := b.R.(*ColRef); ok {
		if v, ok := constVal(b.L, args); ok {
			return c.Name, v, true
		}
	}
	return "", Value{}, false
}

func constVal(e Expr, args []Value) (Value, bool) {
	switch e := e.(type) {
	case *Lit:
		return e.V, true
	case *Param:
		if e.Idx < len(args) {
			return args[e.Idx], true
		}
	}
	return Value{}, false
}

// kindsComparable reports whether Compare can ever find values of the two
// kinds equal (numbers cross-compare; text and blob only with themselves).
func kindsComparable(a, b Kind) bool {
	num := func(k Kind) bool { return k == KInt || k == KReal }
	if num(a) && num(b) {
		return true
	}
	return a == b
}

// indexCandidates plans an equality-indexed scan for a WHERE clause. It
// returns the candidate row positions (ascending) and ok=true when the
// primary key or a secondary index covers the clause's equality bindings;
// the caller still evaluates the full WHERE on each candidate, so the
// result set equals a full scan's.
func (t *Table) indexCandidates(where Expr, args []Value) ([]int, bool) {
	if where == nil {
		return nil, false
	}
	eq := make(map[string]Value)
	eqBindings(t, where, args, eq)
	if len(eq) == 0 {
		return nil, false
	}
	// Primary key first: unique, at most one candidate.
	if len(t.PKCols) > 0 && t.pkIndex != nil {
		covered := true
		for _, c := range t.PKCols {
			if _, ok := eq[c]; !ok {
				covered = false
				break
			}
		}
		if covered {
			vals := make([]Value, len(t.PKCols))
			for i, c := range t.PKCols {
				vals[i] = eq[c]
			}
			if ri, ok := t.pkIndex[keyString(vals)]; ok {
				return []int{ri}, true
			}
			return nil, true
		}
	}
	for _, ix := range t.Indexes {
		if !ix.covers(eq) {
			continue
		}
		cand := ix.lookup(eq)
		out := make([]int, len(cand))
		copy(out, cand)
		sort.Ints(out)
		return out, true
	}
	return nil, false
}
