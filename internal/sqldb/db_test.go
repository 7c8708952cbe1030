package sqldb

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec(t, db, `CREATE TABLE targets (
		name TEXT PRIMARY KEY,
		chip TEXT NOT NULL,
		bits INTEGER
	)`)
	mustExec(t, db, `CREATE TABLE campaigns (
		id INTEGER PRIMARY KEY,
		name TEXT NOT NULL,
		target TEXT,
		faults INTEGER,
		FOREIGN KEY (target) REFERENCES targets (name)
	)`)
	return db
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) int64 {
	t.Helper()
	n, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return n
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Result {
	t.Helper()
	r, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return r
}

func seed(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `INSERT INTO targets VALUES ('thor-rd', 'THOR-S', 5412)`)
	mustExec(t, db, `INSERT INTO targets VALUES ('board2', 'THOR-S', 5412)`)
	mustExec(t, db, `INSERT INTO campaigns VALUES
		(1, 'pid-scifi', 'thor-rd', 1000),
		(2, 'sort-swifi', 'thor-rd', 500),
		(3, 'idle', 'board2', 0)`)
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT name, faults FROM campaigns WHERE faults > 100 ORDER BY faults DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	if r.Rows[0][0].S != "pid-scifi" || r.Rows[0][1].I != 1000 {
		t.Errorf("row 0 = %v", r.Rows[0])
	}
	if r.Rows[1][0].S != "sort-swifi" {
		t.Errorf("row 1 = %v", r.Rows[1])
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT * FROM targets ORDER BY name`)
	if len(r.Cols) != 3 || r.Cols[0] != "name" {
		t.Errorf("cols = %v", r.Cols)
	}
	if len(r.Rows) != 2 || r.Rows[0][0].S != "board2" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestParams(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT id FROM campaigns WHERE target = ? AND faults >= ?`,
		Text("thor-rd"), Int(500))
	if len(r.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(r.Rows))
	}
	if _, err := db.Query(`SELECT id FROM campaigns WHERE target = ?`); err == nil {
		t.Error("missing parameter did not error")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	if _, err := db.Exec(`INSERT INTO targets VALUES ('thor-rd', 'dup', 1)`); err == nil {
		t.Error("duplicate PK accepted")
	}
	if _, err := db.Exec(`INSERT INTO campaigns VALUES (1, 'dup', ?, 0)`, Null()); err == nil {
		t.Error("duplicate integer PK accepted")
	}
}

func TestNotNull(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`INSERT INTO targets VALUES ('x', ?, 1)`, Null()); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
}

func TestForeignKeyEnforcement(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	// Insert referencing a missing target.
	if _, err := db.Exec(`INSERT INTO campaigns VALUES (9, 'bad', 'ghost', 1)`); err == nil {
		t.Error("FK violation on insert accepted")
	}
	// NULL FK is allowed (MATCH SIMPLE).
	mustExec(t, db, `INSERT INTO campaigns VALUES (10, 'detached', ?, 1)`, Null())
	// Deleting a referenced parent is rejected.
	if _, err := db.Exec(`DELETE FROM targets WHERE name = 'thor-rd'`); err == nil {
		t.Error("delete of referenced row accepted")
	}
	// Deleting an unreferenced parent works once children are gone.
	mustExec(t, db, `DELETE FROM campaigns WHERE target = 'board2'`)
	if n := mustExec(t, db, `DELETE FROM targets WHERE name = 'board2'`); n != 1 {
		t.Errorf("deleted %d rows, want 1", n)
	}
	// Updating a child to reference a missing parent is rejected.
	if _, err := db.Exec(`UPDATE campaigns SET target = 'ghost' WHERE id = 1`); err == nil {
		t.Error("FK violation on update accepted")
	}
	// Changing a referenced PK is rejected.
	if _, err := db.Exec(`UPDATE targets SET name = 'renamed' WHERE name = 'thor-rd'`); err == nil {
		t.Error("PK change of referenced row accepted")
	}
}

// TestForeignKeyMustNamePrimaryKey: a foreign key references its table's
// primary key, whole and in order, or CREATE TABLE refuses it — the one
// shape fkCheck and referencers resolve by key lookup.
func TestForeignKeyMustNamePrimaryKey(t *testing.T) {
	db := testDB(t)
	for _, sql := range []string{
		`CREATE TABLE bad (c TEXT, FOREIGN KEY (c) REFERENCES targets (chip))`,
		`CREATE TABLE bad (c TEXT, FOREIGN KEY (c) REFERENCES ghost (name))`,
		`CREATE TABLE bad (c TEXT, d TEXT, FOREIGN KEY (c, d) REFERENCES targets (name))`,
		`CREATE TABLE bad (c TEXT, FOREIGN KEY (nope) REFERENCES targets (name))`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted %s", sql)
		}
	}
	if got := db.TableNames(); len(got) != 2 {
		t.Errorf("tables = %v, want the two of the fixture", got)
	}
}

func TestCreateIfNotExists(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS targets (name TEXT PRIMARY KEY, chip TEXT, bits INTEGER)`)
	if _, err := db.Exec(`CREATE TABLE targets (x INTEGER)`); err == nil {
		t.Error("duplicate CREATE TABLE accepted")
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	n := mustExec(t, db, `UPDATE campaigns SET faults = ?, name = 'renamed' WHERE target = 'thor-rd'`, Int(1010))
	if n != 2 {
		t.Fatalf("updated %d rows, want 2", n)
	}
	r := mustQuery(t, db, `SELECT faults FROM campaigns WHERE id = 1`)
	if r.Rows[0][0].I != 1010 {
		t.Errorf("faults = %d, want 1010", r.Rows[0][0].I)
	}
}

func TestUpdatePrimaryKeyMaintainsIndex(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	// Shift one PK; the old key must become free, the new one taken.
	mustExec(t, db, `UPDATE t SET id = 9 WHERE id = 1`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 99)`) // old key reusable
	if _, err := db.Exec(`INSERT INTO t VALUES (9, 0)`); err == nil {
		t.Error("new key not indexed")
	}
	// A multi-row update that would transiently collide is rejected and
	// must leave the index usable afterwards.
	if _, err := db.Exec(`UPDATE t SET id = 2 WHERE v >= 10`); err == nil {
		t.Error("colliding multi-row PK update accepted")
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE id = 9`)
	if r.Rows[0][0].I != 1 {
		t.Errorf("index inconsistent after failed update: %v", r.Rows)
	}
	// The table still accepts consistent operations.
	mustExec(t, db, `UPDATE t SET id = 100 WHERE id = 9`)
	if _, err := db.Exec(`INSERT INTO t VALUES (100, 0)`); err == nil {
		t.Error("stale index after successful update")
	}
}

func TestDeleteWithWhere(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	n := mustExec(t, db, `DELETE FROM campaigns WHERE faults = 0`)
	if n != 1 {
		t.Fatalf("deleted %d, want 1", n)
	}
	r := mustQuery(t, db, `SELECT COUNT(*) FROM campaigns`)
	if r.Rows[0][0].I != 2 {
		t.Errorf("remaining = %d, want 2", r.Rows[0][0].I)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT COUNT(*), SUM(faults), MIN(faults), MAX(faults), AVG(faults) FROM campaigns`)
	row := r.Rows[0]
	if row[0].I != 3 || row[1].I != 1500 || row[2].I != 0 || row[3].I != 1000 {
		t.Errorf("aggregates = %v", row)
	}
	if row[4].K != KReal || row[4].Float() != 500 {
		t.Errorf("avg faults = %v, want the REAL 500", row[4])
	}
}

func TestAggregatesEmptyInput(t *testing.T) {
	db := testDB(t)
	r := mustQuery(t, db, `SELECT COUNT(*), SUM(faults), MIN(faults) FROM campaigns`)
	row := r.Rows[0]
	if row[0].I != 0 {
		t.Errorf("count = %v", row[0])
	}
	if !row[1].IsNull() || !row[2].IsNull() {
		t.Errorf("sum/min over empty input = %v, %v, want NULLs", row[1], row[2])
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT target, COUNT(*) AS n, SUM(faults) AS total
		FROM campaigns GROUP BY target ORDER BY n DESC`)
	if len(r.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(r.Rows))
	}
	if r.Rows[0][0].S != "thor-rd" || r.Rows[0][1].I != 2 || r.Rows[0][2].I != 1500 {
		t.Errorf("group 0 = %v", r.Rows[0])
	}
	if r.Rows[1][0].S != "board2" || r.Rows[1][1].I != 1 {
		t.Errorf("group 1 = %v", r.Rows[1])
	}
}

func TestDistinctRows(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT DISTINCT target FROM campaigns`)
	if len(r.Rows) != 2 {
		t.Errorf("distinct rows = %d, want 2", len(r.Rows))
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	r := mustQuery(t, db, `SELECT id FROM campaigns ORDER BY id LIMIT 2`)
	if len(r.Rows) != 2 || r.Rows[0][0].I != 1 {
		t.Errorf("LIMIT = %v", r.Rows)
	}
	r = mustQuery(t, db, `SELECT id FROM campaigns ORDER BY id DESC LIMIT ?`, Int(1))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 3 {
		t.Errorf("parameterised LIMIT = %v", r.Rows)
	}
	if _, err := db.Query(`SELECT id FROM campaigns ORDER BY id LIMIT 2 OFFSET 2`); err == nil {
		t.Error("OFFSET accepted")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	mustExec(t, db, `INSERT INTO campaigns VALUES (5, 'extra', 'board2', 0)`)
	r := mustQuery(t, db, `SELECT target, faults FROM campaigns ORDER BY target ASC, faults DESC`)
	if r.Rows[0][0].S != "board2" {
		t.Errorf("first row = %v", r.Rows[0])
	}
	// Within thor-rd, faults descend.
	var thorFaults []int64
	for _, row := range r.Rows {
		if row[0].S == "thor-rd" {
			thorFaults = append(thorFaults, row[1].I)
		}
	}
	if len(thorFaults) != 2 || thorFaults[0] < thorFaults[1] {
		t.Errorf("thor-rd faults order = %v", thorFaults)
	}
}

func TestBlobRoundTrip(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE states (id INTEGER PRIMARY KEY, vec BLOB)`)
	mustExec(t, db, `INSERT INTO states VALUES (1, ?), (2, ?)`, Blob([]byte{0xde, 0xad, 0xbe, 0xef}), Blob(nil))
	mustExec(t, db, `INSERT INTO states VALUES (3, ?)`, Blob([]byte{1, 2, 3}))
	r := mustQuery(t, db, `SELECT vec FROM states ORDER BY id`)
	for i, want := range [][]byte{{0xde, 0xad, 0xbe, 0xef}, nil, {1, 2, 3}} {
		if v := r.Rows[i][0]; v.K != KBlob || !bytes.Equal(v.B, want) {
			t.Errorf("blob %d = %v, want x'%x'", i+1, v, want)
		}
	}
	r = mustQuery(t, db, `SELECT id FROM states WHERE vec = ?`, Blob([]byte{1, 2, 3}))
	if len(r.Rows) != 1 || r.Rows[0][0].I != 3 {
		t.Errorf("blob equality = %v", r.Rows)
	}
}

func TestMultiRowInsert(t *testing.T) {
	db := testDB(t)
	n := mustExec(t, db, `INSERT INTO targets VALUES ('a', 'c1', 1), ('b', 'c2', 2)`)
	if n != 2 {
		t.Errorf("inserted %d, want 2", n)
	}
}

// TestTypeCoercion: a value is stored as the kind its column declares or
// not at all — no kind is converted into another, and the row stays as it
// was.
func TestTypeCoercion(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	for _, c := range []struct {
		sql  string
		args []Value
	}{
		{`UPDATE campaigns SET faults = 'many' WHERE id = 1`, nil},
		{`UPDATE campaigns SET faults = ? WHERE id = 1`, []Value{Real(1)}},
		{`UPDATE campaigns SET name = ? WHERE id = 1`, []Value{Blob([]byte("pid-scifi"))}},
		{`INSERT INTO targets VALUES ('x', 'chip', ?)`, []Value{Text("5412")}},
		{`INSERT INTO targets VALUES ('x', 'chip', ?)`, []Value{Real(5412)}},
	} {
		_, err := db.Exec(c.sql, c.args...)
		if err == nil || !strings.Contains(err.Error(), "cannot store") {
			t.Errorf("%s %v: err = %v, want a wrong-kind error", c.sql, c.args, err)
		}
	}
	r := mustQuery(t, db, `SELECT name, faults FROM campaigns WHERE id = 1`)
	if r.Rows[0][0].S != "pid-scifi" || r.Rows[0][1].K != KInt || r.Rows[0][1].I != 1000 {
		t.Errorf("row after refused writes = %v", r.Rows[0])
	}
	if r := mustQuery(t, db, `SELECT COUNT(*) FROM targets`); r.Rows[0][0].I != 2 {
		t.Errorf("targets = %d after refused inserts, want 2", r.Rows[0][0].I)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, db2, `SELECT COUNT(*) FROM campaigns`)
	if r.Rows[0][0].I != 3 {
		t.Errorf("loaded campaigns = %d, want 3", r.Rows[0][0].I)
	}
	// FK constraints survive the round trip.
	if _, err := db2.Exec(`DELETE FROM targets WHERE name = 'thor-rd'`); err == nil {
		t.Error("FK not enforced after load")
	}
	// PK index survives.
	if _, err := db2.Exec(`INSERT INTO targets VALUES ('thor-rd', 'dup', 0)`); err == nil {
		t.Error("PK not enforced after load")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	path := t.TempDir() + "/test.db"
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	if err := db2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got := db2.TableNames(); len(got) != 2 || got[0] != "targets" {
		t.Errorf("loaded tables = %v", got)
	}
	if err := db2.LoadFile(path + ".missing"); err == nil {
		t.Error("loading missing file did not error")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	db := Open()
	if err := db.Load(bytes.NewReader([]byte("not a database"))); err == nil {
		t.Error("garbage load accepted")
	}
}

func TestErrorsSurfaceCleanly(t *testing.T) {
	db := testDB(t)
	cases := []string{
		`SELECT nope FROM targets`,
		`SELECT * FROM ghost`,
		`INSERT INTO ghost VALUES (1)`,
		`INSERT INTO targets VALUES (1)`,
		`UPDATE ghost SET x = 1`,
		`DELETE FROM ghost`,
		`SELECT * FROM targets WHERE`,
		`CREATE TABLE bad (x WIBBLE)`,
		`SELECT * FROM targets ORDER BY ghostcol`,
		`SELECT SUM(*) FROM targets`,
		`SELECT name FROM targets WHERE name = `,
	}
	for _, sql := range cases {
		if _, err := db.Query(sql); err == nil {
			if _, err2 := db.Exec(sql); err2 == nil {
				t.Errorf("no error for %q", sql)
			}
		}
	}
}

func TestValueStrings(t *testing.T) {
	for v, want := range map[string]string{
		Null().String():             "NULL",
		Int(-5).String():            "-5",
		Real(2.5).String():          "2.5",
		Text("o'brien").String():    "'o''brien'",
		Blob([]byte{0xab}).String(): "x'ab'",
	} {
		if v != want {
			t.Errorf("String() = %q, want %q", v, want)
		}
	}
}

// TestValueSize: a REAL keeps its bits in I, so a Value is a kind, an
// integer, a string and a slice — 56 bytes on a 64-bit host, where a field
// of its own for the REAL made it 64 — and a REAL still goes to the log and
// the snapshot as its eight little-endian bytes.
func TestValueSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Value{}), 8+8+unsafe.Sizeof("")+unsafe.Sizeof([]byte(nil)); got != want {
		t.Errorf("a Value takes %d bytes, want %d", got, want)
	}
	for _, r := range []float64{0, -0.5, 2.5, math.MaxFloat64, math.Inf(-1), math.SmallestNonzeroFloat64} {
		v := Real(r)
		if v.K != KReal || v.Float() != r || v.I != int64(math.Float64bits(r)) {
			t.Errorf("Real(%g) = %+v", r, v)
		}
		want := binary.LittleEndian.AppendUint64([]byte{byte(KReal)}, math.Float64bits(r))
		if got := AppendValue(nil, v); !bytes.Equal(got, want) {
			t.Errorf("Real(%g) encodes as %x, want %x", r, got, want)
		}
		if back, _, err := ReadValue(want); err != nil || back.K != v.K || back.I != v.I {
			t.Errorf("%x reads back as %+v (%v), want %+v", want, back, err, v)
		}
	}
}

func TestCompareCrossKind(t *testing.T) {
	if c, err := Compare(Int(1), Real(1.5)); err != nil || c != -1 {
		t.Errorf("Compare(1, 1.5) = %d, %v", c, err)
	}
	if _, err := Compare(Int(1), Text("x")); err == nil {
		t.Error("cross-kind compare accepted")
	}
	if _, err := Compare(Null(), Int(1)); err == nil {
		t.Error("NULL compare accepted")
	}
	db := testDB(t)
	seed(t, db)
	mustExec(t, db, `INSERT INTO campaigns VALUES (4, 'orphan', ?, 7)`, Null())
	if r := mustQuery(t, db, `SELECT id FROM campaigns WHERE target = ?`, Null()); len(r.Rows) != 0 {
		t.Errorf("NULL = NULL matched %v, must be false", r.Rows)
	}
}

func TestConcurrentReads(t *testing.T) {
	db := testDB(t)
	seed(t, db)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 100; j++ {
				if _, err := db.Query(`SELECT COUNT(*) FROM campaigns`); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemovedGrammarFailsToParse: the grammar is the SQL GOOFI sends, and
// every production cut from it is a parse error, not a statement that runs
// with some other meaning.
func TestRemovedGrammarFailsToParse(t *testing.T) {
	for _, c := range []struct{ name, sql string }{
		{"DropTable", `DROP TABLE targets`},
		{"TablePrimaryKey", `CREATE TABLE t (a INTEGER, PRIMARY KEY (a))`},
		{"Unique", `CREATE TABLE t (a TEXT UNIQUE)`},
		{"RealColumn", `CREATE TABLE t (a REAL)`},
		{"InsertColumnList", `INSERT INTO targets (name, chip) VALUES ('a', 'b')`},
		{"Offset", `SELECT name FROM targets LIMIT 1 OFFSET 1`},
		{"ImplicitAlias", `SELECT name n FROM targets`},
		{"CountDistinct", `SELECT COUNT(DISTINCT chip) FROM targets`},
		{"AggregateInExpression", `SELECT -COUNT(*) FROM targets`},
		{"AggregateInWhere", `SELECT name FROM targets WHERE bits = MAX(bits)`},
		{"Or", `SELECT name FROM targets WHERE bits = 1 OR bits = 2`},
		{"Not", `SELECT name FROM targets WHERE NOT bits = 1`},
		{"IsNull", `SELECT name FROM targets WHERE bits IS NULL`},
		{"IsNotNull", `SELECT name FROM targets WHERE bits IS NOT NULL`},
		{"In", `SELECT name FROM targets WHERE bits IN (1, 2)`},
		{"NotIn", `SELECT name FROM targets WHERE bits NOT IN (1, 2)`},
		{"Like", `SELECT name FROM targets WHERE name LIKE 'thor%'`},
		{"Add", `SELECT bits + 1 FROM targets`},
		{"Subtract", `SELECT bits - 1 FROM targets`},
		{"Multiply", `SELECT bits * 2 FROM targets`},
		{"Divide", `SELECT bits / 2 FROM targets`},
		{"Modulo", `SELECT bits % 2 FROM targets`},
		{"Parentheses", `SELECT name FROM targets WHERE (bits = 1)`},
		{"BlobLiteral", `SELECT name FROM targets WHERE chip = x'00'`},
		{"RealLiteral", `SELECT name FROM targets WHERE bits = 1.5`},
		{"NullLiteral", `SELECT name FROM targets WHERE bits = NULL`},
		{"Comment", `SELECT name FROM targets -- all of them`},
	} {
		t.Run(c.name, func(t *testing.T) {
			if st, err := Parse(c.sql); err == nil {
				t.Errorf("%s parsed as %#v", c.sql, st)
			}
		})
	}
}

// TestDeleteCostIgnoresReferencingRows: whether a row is referenced is one
// key lookup per foreign key, so refusing to delete a referenced row
// allocates as much beside 10 referencing rows as beside 10,000 — through a
// foreign key that is its own table's primary key (AnalysisResults' shape)
// and through one that is not (LoggedSystemState's).
func TestDeleteCostIgnoresReferencingRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	allocs := func(n int64) float64 {
		db := Open()
		db.MustExec(`CREATE TABLE parent (id INTEGER PRIMARY KEY)`)
		db.MustExec(`CREATE TABLE result (id INTEGER PRIMARY KEY, FOREIGN KEY (id) REFERENCES parent (id))`)
		db.MustExec(`CREATE TABLE child (id INTEGER PRIMARY KEY, pid INTEGER,
			FOREIGN KEY (pid) REFERENCES parent (id))`)
		for i := int64(0); i < n; i++ {
			db.MustExec(`INSERT INTO parent VALUES (?)`, Int(i))
			db.MustExec(`INSERT INTO result VALUES (?)`, Int(i))
		}
		// Parent n-1 is referenced by the last result row only, parent n
		// by a child row only.
		db.MustExec(`INSERT INTO parent VALUES (?)`, Int(n))
		db.MustExec(`INSERT INTO child VALUES (0, ?)`, Int(n))
		// The fewest of a few counts: a collection that empties fmt's
		// printer pool meanwhile only adds to one.
		fewest := math.Inf(1)
		for range 5 {
			fewest = min(fewest, testing.AllocsPerRun(10, func() {
				for _, victim := range []int64{n - 1, n} {
					if _, err := db.Exec(`DELETE FROM parent WHERE id = ?`, Int(victim)); err == nil {
						t.Fatalf("deleted parent %d, which a row references", victim)
					}
				}
			}))
		}
		return fewest
	}
	if few, many := allocs(10), allocs(10_000); few != many {
		t.Errorf("refused deletes: %.0f allocations beside 10 referencing rows, %.0f beside 10,000", few, many)
	}
}
