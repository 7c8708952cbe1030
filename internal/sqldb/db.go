package sqldb

import (
	"fmt"
	"sort"
	"sync"
)

// DB is an in-memory relational database with optional file persistence.
// It is safe for concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string // creation order, for stable persistence and listing

	stmtMu sync.RWMutex
	stmts  map[string]Statement // parsed-statement cache, keyed by SQL text

	// disableIndexSelect forces matchRows onto the full-scan path; used by
	// property tests to compare indexed and unindexed execution.
	disableIndexSelect bool

	// Durability (optional): when a WAL is attached, every write
	// statement is appended to it under mu, and Checkpoint compacts the
	// log into the snapshot at snapPath. epoch counts checkpoints; a
	// snapshot and its log carry matching epochs so a stale log is never
	// replayed onto a newer snapshot.
	wal      *WAL
	snapPath string
	epoch    uint64
	// dirty tracks whether statements were appended to the WAL since the
	// last checkpoint; a clean database's snapshot is already complete,
	// so idle compaction (e.g. the daemon's tenant manager) can skip it.
	dirty bool
}

// stmtCacheLimit bounds the parsed-statement cache. Campaign workloads
// reuse a small set of statements, so the cache is cleared, not evicted,
// when it fills.
const stmtCacheLimit = 512

// Open returns an empty database.
func Open() *DB {
	return &DB{tables: make(map[string]*Table), stmts: make(map[string]Statement)}
}

// parseCached parses a statement, memoizing the AST. Statements are
// immutable after parsing (execution never writes to the tree), so a
// cached AST can be shared across goroutines.
func (db *DB) parseCached(sql string) (Statement, error) {
	db.stmtMu.RLock()
	st, ok := db.stmts[sql]
	db.stmtMu.RUnlock()
	if ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	db.stmtMu.Lock()
	if db.stmts == nil || len(db.stmts) >= stmtCacheLimit {
		db.stmts = make(map[string]Statement)
	}
	db.stmts[sql] = st
	db.stmtMu.Unlock()
	return st, nil
}

// Result is the outcome of a SELECT.
type Result struct {
	Cols []string
	Rows [][]Value
}

// ColIndex returns the index of a result column by name.
func (r *Result) ColIndex(name string) (int, error) {
	for i, c := range r.Cols {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqldb: result has no column %q", name)
}

// TableNames lists the tables in creation order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// Exec runs a statement that does not return rows. It returns the number
// of rows affected (0 for DDL).
func (db *DB) Exec(sql string, args ...Value) (int64, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return 0, err
	}
	return db.execStmt(sql, st, args)
}

func (db *DB) execStmt(sql string, st Statement, args []Value) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	var n int64
	var err error
	switch st := st.(type) {
	case *CreateTable:
		err = db.createTable(st)
	case *CreateIndex:
		err = db.createIndex(st)
	case *Insert:
		n, err = db.insert(st, args)
	case *Update:
		n, err = db.update(st, args)
	case *Delete:
		n, err = db.delete(st, args)
	case *Select:
		return 0, fmt.Errorf("sqldb: use Query for SELECT")
	default:
		return 0, fmt.Errorf("sqldb: unsupported statement %T", st)
	}
	// Log after execution, under db.mu, so log order equals apply order.
	// Failed statements are logged too: a mid-statement error can leave
	// partial effects, and deterministic re-execution reproduces exactly
	// those. The execution error stays the caller's primary error.
	if werr := db.logStmt(sql, args); werr != nil && err == nil {
		err = werr
	}
	return n, err
}

// Stmt is a prepared statement: parsed once, executable many times
// without the per-call cache lookup. The AST is immutable after parse, so
// a Stmt is safe for concurrent use.
type Stmt struct {
	db  *DB
	sql string
	st  Statement
	// fastTable, fastWidth and fastRows describe an INSERT of fastRows
	// rows of fastWidth values each, every value the positional parameter
	// of its slot: its rows are windows of the arguments, and no
	// expression is evaluated.
	fastTable string
	fastWidth int
	fastRows  int
}

// fastInsertParams reports whether st is `INSERT INTO t VALUES (?, ...,
// ?), ...` — one or more rows of one width, row r's value c the positional
// parameter r*width+c — and returns its table, width and row count;
// ("", 0, 0) otherwise.
func fastInsertParams(st Statement) (table string, width, rows int) {
	ins, ok := st.(*Insert)
	if !ok || len(ins.Rows) == 0 || len(ins.Rows[0]) == 0 {
		return "", 0, 0
	}
	width = len(ins.Rows[0])
	for r, exprRow := range ins.Rows {
		if len(exprRow) != width {
			return "", 0, 0
		}
		for c, e := range exprRow {
			if p, ok := e.(*Param); !ok || p.Idx != r*width+c {
				return "", 0, 0
			}
		}
	}
	return ins.Table, width, len(ins.Rows)
}

// Prepare parses a statement for repeated execution. This is the write
// half of the storage hot path: the campaign store prepares its
// LoggedSystemState INSERT once per batch size and replays it per batch.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	s := &Stmt{db: db, sql: sql, st: st}
	s.fastTable, s.fastWidth, s.fastRows = fastInsertParams(st)
	return s, nil
}

// Exec runs the prepared statement with the given parameters. A
// pure-parameter INSERT (fastInsertParams) stores its rows as windows of
// args, which the table keeps: whoever calls it hands args over and must
// not change them afterwards. It does what the general path does — the
// rows inserted in order up to the first that fails, whose error comes
// back with the count of those before it, and the statement logged either
// way — without a copy of a value or an evaluation. Any other shape of
// statement or arguments takes the general path, so error messages stay
// identical.
func (s *Stmt) Exec(args ...Value) (int64, error) {
	if s.fastRows > 0 && len(args) == s.fastRows*s.fastWidth {
		s.db.mu.Lock()
		t, ok := s.db.tables[s.fastTable]
		if ok && len(t.Cols) == s.fastWidth {
			var inserted int64
			var err error
			for lo := 0; lo < len(args); lo += s.fastWidth {
				if err = s.db.insertRow(t, args[lo:lo+s.fastWidth:lo+s.fastWidth]); err != nil {
					break
				}
				inserted++
			}
			if werr := s.db.logStmt(s.sql, args); werr != nil && err == nil {
				err = werr
			}
			s.db.mu.Unlock()
			return inserted, err
		}
		s.db.mu.Unlock()
	}
	return s.db.execStmt(s.sql, s.st, args)
}

// Query runs a SELECT and returns its result rows.
func (db *DB) Query(sql string, args ...Value) (*Result, error) {
	st, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*Select)
	if !ok {
		return nil, fmt.Errorf("sqldb: Query requires a SELECT statement")
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.selectRows(sel, args)
}

// MustExec is Exec that panics on error; for tests and fixed DDL whose
// correctness is covered by tests.
func (db *DB) MustExec(sql string, args ...Value) {
	if _, err := db.Exec(sql, args...); err != nil {
		panic(err)
	}
}

func (db *DB) createTable(ct *CreateTable) error {
	if _, exists := db.tables[ct.Name]; exists {
		if ct.IfNotExists {
			return nil
		}
		return fmt.Errorf("sqldb: table %q already exists", ct.Name)
	}
	if len(ct.Cols) == 0 {
		return fmt.Errorf("sqldb: table %q has no columns", ct.Name)
	}
	t := &Table{Name: ct.Name}
	seen := make(map[string]bool)
	for _, cd := range ct.Cols {
		if seen[cd.Name] {
			return fmt.Errorf("sqldb: duplicate column %q in table %q", cd.Name, ct.Name)
		}
		seen[cd.Name] = true
		t.Cols = append(t.Cols, Column{Name: cd.Name, Type: cd.Type, NotNull: cd.NotNull})
		if cd.PK {
			t.PKCols = append(t.PKCols, cd.Name)
		}
	}
	for _, fk := range ct.Foreign {
		if err := t.checkFK(fk, db.tables[fk.RefTable]); err != nil {
			return err
		}
		t.FKs = append(t.FKs, fk)
	}
	if err := t.rebuildIndex(); err != nil {
		return err
	}
	if err := t.ensureFKIndexes(); err != nil {
		return err
	}
	db.tables[ct.Name] = t
	db.order = append(db.order, ct.Name)
	return nil
}

// ensureFKIndexes creates an automatic secondary index for every foreign
// key column set, so fkCheck and referencers resolve by hash lookup. Sets
// already covered by the primary key or an existing index are skipped.
func (t *Table) ensureFKIndexes() error {
	for i, fk := range t.FKs {
		if equalStrings(fk.Cols, t.PKCols) || t.indexOn(fk.Cols) != nil {
			continue
		}
		name := fmt.Sprintf("%s_fk%d_auto", t.Name, i)
		if err := t.addIndex(name, fk.Cols); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) createIndex(ci *CreateIndex) error {
	t, ok := db.tables[ci.Table]
	if !ok {
		return fmt.Errorf("sqldb: no table %q", ci.Table)
	}
	for _, ix := range t.Indexes {
		if ix.Name == ci.Name {
			if ci.IfNotExists {
				return nil
			}
			return fmt.Errorf("sqldb: index %q already exists on table %s", ci.Name, ci.Table)
		}
	}
	return t.addIndex(ci.Name, ci.Cols)
}

// checkFK validates a foreign key of t against ref, the table it
// references: its columns exist, and it names ref's primary key, in order.
// That is what lets fkCheck and referencers resolve it by one key lookup.
func (t *Table) checkFK(fk ForeignKey, ref *Table) error {
	if ref == nil {
		return fmt.Errorf("sqldb: foreign key references unknown table %q", fk.RefTable)
	}
	if len(fk.Cols) != len(fk.RefCols) {
		return fmt.Errorf("sqldb: foreign key arity mismatch in table %q", t.Name)
	}
	if !equalStrings(fk.RefCols, ref.PKCols) {
		return fmt.Errorf("sqldb: foreign key of table %q must reference the primary key of %q", t.Name, ref.Name)
	}
	_, err := t.colIndexes(fk.Cols)
	return err
}

// fkCheck verifies that a row's foreign key tuples exist in the referenced
// tables. NULL components skip the check (SQL MATCH SIMPLE).
func (db *DB) fkCheck(t *Table, row []Value) error {
	for fi := range t.FKs {
		fk := &t.FKs[fi]
		idx, err := t.fkColIdx(fi)
		if err != nil {
			return err
		}
		hasNull := false
		for _, ci := range idx {
			if row[ci].IsNull() {
				hasNull = true
				break
			}
		}
		if hasNull {
			continue
		}
		ref := db.tables[fk.RefTable]
		if ref == nil {
			return fmt.Errorf("sqldb: foreign key references missing table %q", fk.RefTable)
		}
		// The FK values in fk.Cols order are the referenced primary key's
		// in its order, so the same projection keys both sides.
		if !ref.hasKey(fk.RefCols, row, idx) {
			return fmt.Errorf("sqldb: foreign key violation: %s%v not in %s(%v)",
				t.Name, fk.Cols, fk.RefTable, fk.RefCols)
		}
	}
	return nil
}

// referencers returns an error if any row in another table references
// row, a row of t. A foreign key names t's primary key, and the
// referencing columns are their table's primary key or carry the index
// ensureFKIndexes built, so each is one lookup, whatever the tables hold.
func (db *DB) referencers(t *Table, row []Value) error {
	idx := t.pkColIdx()
	for _, name := range db.order { // in creation order: the error names the first referencer
		other := db.tables[name]
		for _, fk := range other.FKs {
			if fk.RefTable == t.Name && other.hasKey(fk.Cols, row, idx) {
				return fmt.Errorf("sqldb: row in %s is referenced by %s", t.Name, other.Name)
			}
		}
	}
	return nil
}

// pkCheck verifies primary-key uniqueness for a candidate row, ignoring
// the row at skipIdx (for updates). pkKey is the row's precomputed primary
// key tuple ("" when the table has no PK); passing it in lets insert and
// update reuse the key for the index maintenance that follows.
func (db *DB) pkCheck(t *Table, row []Value, pkKey string, skipIdx int) error {
	if len(t.PKCols) == 0 {
		return nil
	}
	// PK components must not be NULL. Checked first: a NULL text key is
	// the empty string as an index key.
	for _, ci := range t.pkColIdx() {
		if row[ci].IsNull() {
			return fmt.Errorf("sqldb: NULL in primary key of table %s", t.Name)
		}
	}
	if i, dup := t.pkIndex[pkKey]; dup && i != skipIdx {
		return fmt.Errorf("sqldb: duplicate primary key in table %s", t.Name)
	}
	return nil
}

func (db *DB) insert(ins *Insert, args []Value) (int64, error) {
	t, ok := db.tables[ins.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", ins.Table)
	}
	ctx := &evalCtx{args: args}
	var inserted int64
	// Every row of the statement is a window of one allocation.
	width := len(t.Cols)
	slab := make([]Value, len(ins.Rows)*width)
	for r, exprRow := range ins.Rows {
		row := slab[r*width : (r+1)*width : (r+1)*width]
		if len(exprRow) != width {
			return inserted, fmt.Errorf("sqldb: table %s has %d columns, got %d values",
				t.Name, width, len(exprRow))
		}
		for i, e := range exprRow {
			v, err := eval(e, ctx)
			if err != nil {
				return inserted, err
			}
			row[i] = v
		}
		if err := db.insertRow(t, row); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}

// insertRow validates one assembled row and appends it with full index
// maintenance. Shared by the general INSERT path and the prepared-
// statement fast path.
func (db *DB) insertRow(t *Table, row []Value) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	key := t.pkKey(row)
	if err := db.pkCheck(t, row, key, -1); err != nil {
		return err
	}
	if err := db.fkCheck(t, row); err != nil {
		return err
	}
	t.Rows = append(t.Rows, row)
	if len(t.PKCols) > 0 {
		t.pkIndex[key] = len(t.Rows) - 1
	}
	t.indexInsert(len(t.Rows)-1, row)
	return nil
}

// matchRows returns the indexes of rows satisfying the WHERE clause.
// When the clause's equality bindings are covered by the primary key or a
// secondary index, only the index candidates are evaluated; the full WHERE
// still runs on each candidate, so results match a full scan.
func (db *DB) matchRows(t *Table, where Expr, args []Value) ([]int, error) {
	ctx := &evalCtx{table: t, args: args}
	if where != nil && !db.disableIndexSelect {
		if cand, ok := t.indexCandidates(where, args); ok {
			var out []int
			for _, ri := range cand {
				ctx.row = t.Rows[ri]
				v, err := eval(where, ctx)
				if err != nil {
					return nil, err
				}
				if v.Truth() {
					out = append(out, ri)
				}
			}
			return out, nil
		}
	}
	var out []int
	for i, row := range t.Rows {
		if where == nil {
			out = append(out, i)
			continue
		}
		ctx.row = row
		v, err := eval(where, ctx)
		if err != nil {
			return nil, err
		}
		if v.Truth() {
			out = append(out, i)
		}
	}
	return out, nil
}

func (db *DB) update(up *Update, args []Value) (int64, error) {
	t, ok := db.tables[up.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", up.Table)
	}
	setIdx := make([]int, len(up.Set))
	for i, a := range up.Set {
		ci, err := t.colIndex(a.Col)
		if err != nil {
			return 0, err
		}
		setIdx[i] = ci
	}
	matched, err := db.matchRows(t, up.Where, args)
	if err != nil {
		return 0, err
	}
	ctx := &evalCtx{table: t, args: args}
	var updated int64
	for _, ri := range matched {
		old := t.Rows[ri]
		next := make([]Value, len(old))
		copy(next, old)
		ctx.row = old
		for i, a := range up.Set {
			v, err := eval(a.E, ctx)
			if err != nil {
				return updated, err
			}
			next[setIdx[i]] = v
		}
		if err := t.checkRow(next); err != nil {
			return updated, err
		}
		newKey := t.pkKey(next)
		if err := db.pkCheck(t, next, newKey, ri); err != nil {
			return updated, err
		}
		if err := db.fkCheck(t, next); err != nil {
			return updated, err
		}
		// If the PK tuple changes, no other table may reference the old
		// tuple (RESTRICT).
		oldKey := t.pkKey(old)
		if len(t.PKCols) > 0 && oldKey != newKey {
			if err := db.referencers(t, old); err != nil {
				return updated, err
			}
		}
		t.Rows[ri] = next
		// Maintain the PK index per row so uniqueness checks within this
		// statement (and any query after an early error return) see a
		// consistent index.
		if len(t.PKCols) > 0 && oldKey != newKey {
			delete(t.pkIndex, oldKey)
			t.pkIndex[newKey] = ri
		}
		t.indexUpdate(ri, old, next)
		updated++
	}
	return updated, nil
}

func (db *DB) delete(del *Delete, args []Value) (int64, error) {
	t, ok := db.tables[del.Table]
	if !ok {
		return 0, fmt.Errorf("sqldb: no table %q", del.Table)
	}
	matched, err := db.matchRows(t, del.Where, args)
	if err != nil {
		return 0, err
	}
	for _, ri := range matched {
		if err := db.referencers(t, t.Rows[ri]); err != nil {
			return 0, err
		}
	}
	drop := make(map[int]bool, len(matched))
	for _, ri := range matched {
		drop[ri] = true
	}
	var kept [][]Value
	for i, row := range t.Rows {
		if !drop[i] {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	if err := t.rebuildIndex(); err != nil {
		return 0, err
	}
	return int64(len(matched)), nil
}

func (db *DB) selectRows(sel *Select, args []Value) (*Result, error) {
	t, ok := db.tables[sel.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %q", sel.Table)
	}
	matched, err := db.matchRows(t, sel.Where, args)
	if err != nil {
		return nil, err
	}

	aggregate := len(sel.GroupBy) > 0
	for _, se := range sel.Exprs {
		if _, ok := se.E.(*Call); ok {
			aggregate = true
		}
	}

	var res *Result
	hidden := 0
	if aggregate {
		res, err = db.selectAggregate(sel, t, matched, args)
	} else {
		res, hidden, err = db.selectPlain(sel, t, matched, args)
	}
	if err != nil {
		return nil, err
	}

	if len(sel.OrderBy) > 0 {
		if err := orderResult(res, sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if hidden > 0 {
		res.Cols = res.Cols[:len(res.Cols)-hidden]
		for i, row := range res.Rows {
			res.Rows[i] = row[:len(row)-hidden]
		}
	}
	if sel.Distinct {
		res.Rows = distinctRows(res.Rows)
	}
	if err := applyLimit(res, sel.Limit, args); err != nil {
		return nil, err
	}
	return res, nil
}

// selectPlain projects matched rows. ORDER BY may reference table columns
// that are not in the select list; those are appended as hidden trailing
// columns (stripped after sorting) — hidden reports how many.
func (db *DB) selectPlain(sel *Select, t *Table, matched []int, args []Value) (res *Result, hidden int, err error) {
	res = &Result{}
	// Column headers.
	for _, se := range sel.Exprs {
		if se.Star {
			for _, c := range t.Cols {
				res.Cols = append(res.Cols, c.Name)
			}
			continue
		}
		name := se.Alias
		if name == "" {
			name = exprName(se.E)
		}
		res.Cols = append(res.Cols, name)
	}
	// Hidden ORDER BY support columns.
	var hiddenIdx []int
	for _, k := range sel.OrderBy {
		if _, err := res.ColIndex(k.Col); err == nil {
			continue
		}
		ci, err := t.colIndex(k.Col)
		if err != nil {
			return nil, 0, fmt.Errorf("sqldb: ORDER BY %s: %w", k.Col, err)
		}
		res.Cols = append(res.Cols, k.Col)
		hiddenIdx = append(hiddenIdx, ci)
	}
	hidden = len(hiddenIdx)
	ctx := &evalCtx{table: t, args: args}
	if len(matched) > 0 {
		res.Rows = make([][]Value, 0, len(matched))
	}
	for _, ri := range matched {
		ctx.row = t.Rows[ri]
		out := make([]Value, 0, len(res.Cols))
		for _, se := range sel.Exprs {
			if se.Star {
				out = append(out, t.Rows[ri]...)
				continue
			}
			v, err := eval(se.E, ctx)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, v)
		}
		for _, ci := range hiddenIdx {
			out = append(out, t.Rows[ri][ci])
		}
		res.Rows = append(res.Rows, out)
	}
	return res, hidden, nil
}

func (db *DB) selectAggregate(sel *Select, t *Table, matched []int, args []Value) (*Result, error) {
	for _, se := range sel.Exprs {
		if se.Star {
			return nil, fmt.Errorf("sqldb: * cannot be mixed with aggregates")
		}
	}
	groupIdx, err := t.colIndexes(sel.GroupBy)
	if err != nil {
		return nil, err
	}
	// Partition matched rows into groups (single group when no GROUP BY).
	type group struct {
		key  string
		rows []int
	}
	var groups []*group
	byKey := make(map[string]*group)
	for _, ri := range matched {
		key := ""
		if len(groupIdx) > 0 {
			vals := make([]Value, len(groupIdx))
			for i, ci := range groupIdx {
				vals[i] = t.Rows[ri][ci]
			}
			key = keyString(vals)
		}
		g, ok := byKey[key]
		if !ok {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, ri)
	}
	if len(groupIdx) == 0 && len(groups) == 0 {
		groups = append(groups, &group{}) // aggregates over empty input yield one row
	}

	res := &Result{}
	for _, se := range sel.Exprs {
		name := se.Alias
		if name == "" {
			name = exprName(se.E)
		}
		res.Cols = append(res.Cols, name)
	}

	ctx := &evalCtx{table: t, args: args}
	for _, g := range groups {
		var out []Value
		for _, se := range sel.Exprs {
			v, err := evalAggExpr(se.E, t, g.rows, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// evalAggExpr evaluates an expression over a row group: aggregate calls
// accumulate over the group; everything else evaluates against the first
// row (valid for GROUP BY columns, which are constant within a group).
func evalAggExpr(e Expr, t *Table, rows []int, ctx *evalCtx) (Value, error) {
	if call, ok := e.(*Call); ok {
		st := &aggState{fn: call.Fn}
		for _, ri := range rows {
			if call.Star {
				st.addStar()
				continue
			}
			ctx.row = t.Rows[ri]
			v, err := eval(call.Arg, ctx)
			if err != nil {
				return Value{}, err
			}
			if err := st.add(v); err != nil {
				return Value{}, err
			}
		}
		return st.result(), nil
	}
	if len(rows) == 0 {
		return Null(), nil
	}
	ctx.row = t.Rows[rows[0]]
	return eval(e, ctx)
}

func orderResult(res *Result, keys []OrderKey) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		ci, err := res.ColIndex(k.Col)
		if err != nil {
			return fmt.Errorf("sqldb: ORDER BY %s: column must appear in the select list", k.Col)
		}
		idx[i] = ci
	}
	var sortErr error
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for i, ci := range idx {
			va, vb := res.Rows[a][ci], res.Rows[b][ci]
			// NULLs sort first.
			switch {
			case va.IsNull() && vb.IsNull():
				continue
			case va.IsNull():
				return !keys[i].Desc
			case vb.IsNull():
				return keys[i].Desc
			}
			c, err := Compare(va, vb)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if keys[i].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

func distinctRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	var out [][]Value
	for _, r := range rows {
		k := keyString(r)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, r)
	}
	return out
}

// applyLimit keeps the first LIMIT rows; a negative limit keeps them all.
func applyLimit(res *Result, limit Expr, args []Value) error {
	if limit == nil {
		return nil
	}
	v, err := eval(limit, &evalCtx{args: args})
	if err != nil {
		return err
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	if n >= 0 && n < int64(len(res.Rows)) {
		res.Rows = res.Rows[:n]
	}
	return nil
}

// CheckIntegrity verifies the structural invariants of every table: row
// arity, column types, NOT NULL, primary-key uniqueness and index
// consistency, and foreign-key validity. Crash-recovery tests call it
// after WAL replay to assert that a torn write never surfaces as a
// half-applied row or a dangling reference.
func (db *DB) CheckIntegrity() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, name := range db.order {
		t := db.tables[name]
		for ri, row := range t.Rows {
			if len(row) != len(t.Cols) {
				return fmt.Errorf("sqldb: integrity: table %s row %d has %d values, want %d",
					name, ri, len(row), len(t.Cols))
			}
			for ci, col := range t.Cols {
				v := row[ci]
				if v.IsNull() {
					if col.NotNull {
						return fmt.Errorf("sqldb: integrity: NULL in NOT NULL column %s.%s (row %d)",
							name, col.Name, ri)
					}
					continue
				}
				if v.K != col.Type {
					return fmt.Errorf("sqldb: integrity: %s value in %s column %s.%s (row %d)",
						v.K, col.Type, name, col.Name, ri)
				}
			}
			if len(t.PKCols) > 0 {
				key := t.pkKey(row)
				got, ok := t.pkIndex[key]
				if !ok || got != ri {
					return fmt.Errorf("sqldb: integrity: table %s primary-key index inconsistent at row %d", name, ri)
				}
			}
			if err := db.fkCheck(t, row); err != nil {
				return fmt.Errorf("sqldb: integrity: %w", err)
			}
		}
		if len(t.PKCols) > 0 && len(t.pkIndex) != len(t.Rows) {
			return fmt.Errorf("sqldb: integrity: table %s has %d rows but %d primary-key entries",
				name, len(t.Rows), len(t.pkIndex))
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
