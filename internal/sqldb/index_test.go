package sqldb

import (
	"strings"
	"testing"
)

func indexedTable(t *testing.T) *DB {
	t.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)`)
	for i := int64(0); i < 10; i++ {
		db.MustExec(`INSERT INTO t VALUES (?, ?, ?)`, Int(i), Int(i%3), Text("x"))
	}
	return db
}

func TestCreateIndexDDL(t *testing.T) {
	db := indexedTable(t)
	if _, err := db.Exec(`CREATE INDEX t_a ON t (a)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT id FROM t WHERE a = ?`, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("indexed lookup returned %d rows, want 3", len(res.Rows))
	}
	// Duplicate name errors unless IF NOT EXISTS.
	if _, err := db.Exec(`CREATE INDEX t_a ON t (a)`); err == nil {
		t.Error("duplicate index name accepted")
	}
	if _, err := db.Exec(`CREATE INDEX IF NOT EXISTS t_a ON t (a)`); err != nil {
		t.Errorf("IF NOT EXISTS errored: %v", err)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := indexedTable(t)
	if _, err := db.Exec(`CREATE INDEX nope_ix ON nope (a)`); err == nil {
		t.Error("index on unknown table accepted")
	}
	if _, err := db.Exec(`CREATE INDEX t_bad ON t (missing)`); err == nil {
		t.Error("index on unknown column accepted")
	}
}

func TestCreateIndexParseErrors(t *testing.T) {
	for _, sql := range []string{
		`CREATE INDEX ON t (a)`,
		`CREATE INDEX ix ON t`,
		`CREATE INDEX ix ON t ()`,
		`CREATE INDEX ix t (a)`,
	} {
		if _, err := Parse(sql); err == nil {
			t.Errorf("parsed invalid DDL: %s", sql)
		}
	}
}

func TestIndexMaintainedAcrossMutation(t *testing.T) {
	db := indexedTable(t)
	db.MustExec(`CREATE INDEX t_a ON t (a)`)
	db.MustExec(`UPDATE t SET a = ? WHERE a = ?`, Int(7), Int(1))
	db.MustExec(`DELETE FROM t WHERE a = ?`, Int(2))
	count := func(v int64) int64 {
		r, err := db.Query(`SELECT COUNT(*) FROM t WHERE a = ?`, Int(v))
		if err != nil {
			t.Fatal(err)
		}
		return r.Rows[0][0].I
	}
	if got := count(7); got != 3 {
		t.Errorf("a=7 count %d, want 3", got)
	}
	if got := count(1); got != 0 {
		t.Errorf("a=1 count %d, want 0", got)
	}
	if got := count(2); got != 0 {
		t.Errorf("a=2 count %d, want 0", got)
	}
}

func TestIndexPersistsAcrossSaveLoad(t *testing.T) {
	db := indexedTable(t)
	db.MustExec(`CREATE INDEX t_a ON t (a)`)
	var buf writerBuffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	t2 := db2.tables["t"]
	if t2 == nil || t2.indexOn([]string{"a"}) == nil {
		t.Fatal("index definition lost across save/load")
	}
	// The reloaded index must be populated, not just declared.
	ix := t2.indexOn([]string{"a"})
	if got := len(ix.lookup(map[string]Value{"a": Int(1)})); got != 3 {
		t.Errorf("reloaded index lookup returned %d rows, want 3", got)
	}
	// And rejected as duplicate when re-declared.
	if _, err := db2.Exec(`CREATE INDEX t_a ON t (a)`); err == nil {
		t.Error("duplicate index accepted after load")
	}
}

func TestFKIndexesAutoCreated(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE parent (id INTEGER PRIMARY KEY)`)
	db.MustExec(`CREATE TABLE child (
		cid INTEGER PRIMARY KEY,
		pid INTEGER,
		FOREIGN KEY (pid) REFERENCES parent (id)
	)`)
	c := db.tables["child"]
	if c.indexOn([]string{"pid"}) == nil {
		t.Fatal("no automatic index on FK column")
	}
	found := false
	for _, ix := range c.Indexes {
		if strings.HasSuffix(ix.Name, "_auto") {
			found = true
		}
	}
	if !found {
		t.Error("automatic FK index not named *_auto")
	}
}

func TestIndexSelectionSkipsNonEquality(t *testing.T) {
	db := indexedTable(t)
	db.MustExec(`CREATE INDEX t_a ON t (a)`)
	// Range predicates must not be routed through the index.
	r, err := db.Query(`SELECT COUNT(*) FROM t WHERE a > ?`, Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 6 {
		t.Errorf("a > 0 count %d, want 6", r.Rows[0][0].I)
	}
	r, err = db.Query(`SELECT COUNT(*) FROM t WHERE a >= ? AND a <= ?`, Int(0), Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 7 {
		t.Errorf("0 <= a <= 1 count %d, want 7", r.Rows[0][0].I)
	}
}
