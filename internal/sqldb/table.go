package sqldb

import (
	"fmt"
)

// Column is one column of a table schema.
type Column struct {
	Name    string
	Type    Kind
	NotNull bool
}

// ForeignKey is a FOREIGN KEY (Cols) REFERENCES RefTable (RefCols)
// constraint.
type ForeignKey struct {
	Cols     []string
	RefTable string
	RefCols  []string
}

// Table holds a schema and its rows. Access is coordinated by DB.
type Table struct {
	Name    string
	Cols    []Column
	PKCols  []string
	FKs     []ForeignKey
	Indexes []*Index
	Rows    [][]Value
	// pkIndex maps a row's primary key to its position. The key is the
	// row's own string when the key is one TEXT column (textPK) — a row
	// costs the index no key of its own — and its tuple's appendRowKey
	// encoding otherwise.
	pkIndex map[string]int
	pkCols  []int   // cached PKCols positions
	fkCols  [][]int // cached FK column positions, parallel to FKs
}

// colIndex returns the index of a column by name.
func (t *Table) colIndex(name string) (int, error) {
	for i, c := range t.Cols {
		if c.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqldb: table %s has no column %q", t.Name, name)
}

// colIndexes maps a list of names to indexes.
func (t *Table) colIndexes(names []string) ([]int, error) {
	out := make([]int, len(names))
	for i, n := range names {
		ci, err := t.colIndex(n)
		if err != nil {
			return nil, err
		}
		out[i] = ci
	}
	return out, nil
}

// pkColIdx returns the cached positions of the primary key columns.
func (t *Table) pkColIdx() []int {
	if t.pkCols == nil && len(t.PKCols) > 0 {
		idx, err := t.colIndexes(t.PKCols)
		if err != nil {
			return nil
		}
		t.pkCols = idx
	}
	return t.pkCols
}

// fkColIdx returns the cached positions of the i-th foreign key's columns.
func (t *Table) fkColIdx(i int) ([]int, error) {
	if t.fkCols == nil {
		t.fkCols = make([][]int, len(t.FKs))
	}
	if t.fkCols[i] == nil {
		idx, err := t.colIndexes(t.FKs[i].Cols)
		if err != nil {
			return nil, err
		}
		t.fkCols[i] = idx
	}
	return t.fkCols[i], nil
}

// textPK reports whether the primary key is one TEXT column, whose values
// are their own index keys: every value of the column is text (checkRow),
// none is NULL (pkCheck), so the string alone tells them apart.
func (t *Table) textPK() bool {
	idx := t.pkColIdx()
	return len(idx) == 1 && t.Cols[idx[0]].Type == KText
}

// pkKey extracts the primary key tuple of a row as an index key. Returns
// "" when the table has no primary key.
func (t *Table) pkKey(row []Value) string {
	if len(t.PKCols) == 0 {
		return ""
	}
	if t.textPK() {
		return row[t.pkCols[0]].S
	}
	return rowKey(row, t.pkColIdx())
}

// pkKeyOf is pkKey for a tuple of values in PKCols order; ok is false when
// no row can have that key.
func (t *Table) pkKeyOf(vals []Value) (key string, ok bool) {
	if t.textPK() {
		return vals[0].S, vals[0].K == KText
	}
	return keyString(vals), true
}

// rebuildIndex reconstructs the primary key index and every secondary
// index from the rows.
func (t *Table) rebuildIndex() error {
	if len(t.PKCols) == 0 {
		t.pkIndex = nil
	} else {
		t.pkIndex = make(map[string]int, len(t.Rows))
		for i, row := range t.Rows {
			k := t.pkKey(row)
			if _, dup := t.pkIndex[k]; dup {
				return fmt.Errorf("sqldb: duplicate primary key %s in table %s", k, t.Name)
			}
			t.pkIndex[k] = i
		}
	}
	for _, ix := range t.Indexes {
		ix.populate(t.Rows)
	}
	return nil
}

// indexInsert records a freshly appended row (at position ri) in every
// secondary index.
func (t *Table) indexInsert(ri int, row []Value) {
	for _, ix := range t.Indexes {
		ix.insert(ri, row)
	}
}

// indexUpdate re-keys row ri in every secondary index after an update.
func (t *Table) indexUpdate(ri int, old, next []Value) {
	for _, ix := range t.Indexes {
		ix.update(ri, old, next)
	}
}

// checkRow validates a row against column constraints (type, NOT NULL).
// It does not check the primary key or foreign keys; those need DB
// context.
func (t *Table) checkRow(row []Value) error {
	if len(row) != len(t.Cols) {
		return fmt.Errorf("sqldb: table %s has %d columns, got %d values",
			t.Name, len(t.Cols), len(row))
	}
	for i, v := range row {
		c := t.Cols[i]
		if v.IsNull() {
			if c.NotNull {
				return fmt.Errorf("sqldb: column %s.%s is NOT NULL", t.Name, c.Name)
			}
			continue
		}
		if v.K != c.Type {
			return fmt.Errorf("sqldb: column %s.%s: cannot store %s value in %s column",
				t.Name, c.Name, v.K, c.Type)
		}
	}
	return nil
}
