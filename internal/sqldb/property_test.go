package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Property: any row inserted with parameters round-trips exactly through
// a SELECT, for every column kind.
func TestPropertyInsertSelectRoundTrip(t *testing.T) {
	f := func(id int64, txt string, num int64, blob []byte) bool {
		db := Open()
		if _, err := db.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT, i INTEGER, b BLOB)`); err != nil {
			return false
		}
		if _, err := db.Exec(`INSERT INTO t VALUES (?, ?, ?, ?)`,
			Int(id), Text(txt), Int(num), Blob(blob)); err != nil {
			return false
		}
		res, err := db.Query(`SELECT s, i, b FROM t WHERE id = ?`, Int(id))
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		row := res.Rows[0]
		return row[0].S == txt && row[1].I == num && string(row[2].B) == string(blob)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: COUNT(*) equals the number of inserted rows minus deleted
// rows, under random interleavings of inserts and deletes.
func TestPropertyCountTracksInsertsAndDeletes(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw)%60 + 1
		db := Open()
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
		live := make(map[int64]bool)
		next := int64(0)
		for i := 0; i < ops; i++ {
			if rng.Intn(3) > 0 || len(live) == 0 {
				if _, err := db.Exec(`INSERT INTO t VALUES (?)`, Int(next)); err != nil {
					return false
				}
				live[next] = true
				next++
			} else {
				var victim int64
				for k := range live {
					victim = k
					break
				}
				if _, err := db.Exec(`DELETE FROM t WHERE id = ?`, Int(victim)); err != nil {
					return false
				}
				delete(live, victim)
			}
		}
		res, err := db.Query(`SELECT COUNT(*) FROM t`)
		if err != nil {
			return false
		}
		return res.Rows[0][0].I == int64(len(live))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ORDER BY returns rows sorted, and LIMIT keeps a prefix of
// that order.
func TestPropertyOrderByIsSorted(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%40 + 1
		db := Open()
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
		for i := 0; i < n; i++ {
			db.MustExec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(rng.Int63n(100)))
		}
		res, err := db.Query(`SELECT v FROM t ORDER BY v`)
		if err != nil || len(res.Rows) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if res.Rows[i-1][0].I > res.Rows[i][0].I {
				return false
			}
		}
		// LIMIT k equals the first k rows of the full ordering.
		k := rng.Intn(n + 1)
		sliced, err := db.Query(`SELECT v FROM t ORDER BY v LIMIT ?`, Int(int64(k)))
		if err != nil {
			return false
		}
		want := res.Rows[:k]
		if len(sliced.Rows) != len(want) {
			return false
		}
		for i := range want {
			if sliced.Rows[i][0].I != want[i][0].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SUM/MIN/MAX/AVG agree with host-side computation over random
// integer columns.
func TestPropertyAggregatesAgree(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%30 + 1
		db := Open()
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
		var sum, minV, maxV int64
		for i := 0; i < n; i++ {
			v := rng.Int63n(2001) - 1000
			if i == 0 {
				minV, maxV = v, v
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			sum += v
			db.MustExec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Int(v))
		}
		res, err := db.Query(`SELECT SUM(v), MIN(v), MAX(v), AVG(v), COUNT(*) FROM t`)
		if err != nil {
			return false
		}
		row := res.Rows[0]
		wantAvg := float64(sum) / float64(n)
		return row[0].I == sum && row[1].I == minV && row[2].I == maxV &&
			abs(row[3].R-wantAvg) < 1e-9 && row[4].I == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: save/load round-trips arbitrary table contents, preserving
// row counts and primary key enforcement.
func TestPropertySaveLoadPreservesRows(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 30
		db := Open()
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, b BLOB)`)
		for i := 0; i < n; i++ {
			blob := make([]byte, rng.Intn(32))
			rng.Read(blob)
			db.MustExec(`INSERT INTO t VALUES (?, ?)`, Int(int64(i)), Blob(blob))
		}
		var buf writerBuffer
		if err := db.Save(&buf); err != nil {
			return false
		}
		db2 := Open()
		if err := db2.Load(&buf); err != nil {
			return false
		}
		res, err := db2.Query(`SELECT COUNT(*) FROM t`)
		if err != nil || res.Rows[0][0].I != int64(n) {
			return false
		}
		if n > 0 {
			if _, err := db2.Exec(`INSERT INTO t VALUES (0, ?)`, Null()); err == nil {
				return false // duplicate PK must be rejected after load
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// writerBuffer is a minimal in-memory io.ReadWriter.
type writerBuffer struct {
	data []byte
	off  int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.data) {
		return 0, fmt.Errorf("EOF")
	}
	n := copy(p, w.data[w.off:])
	w.off += n
	return n, nil
}

// Property: the lexer+parser never panic on arbitrary input; they either
// parse or return an error.
func TestPropertyParserNeverPanics(t *testing.T) {
	f := func(input string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = Parse(input)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: the table registry lists every table once, in creation order,
// through CREATE TABLE statements that succeed, are no-ops or fail, and
// across a save and a load.
func TestPropertyTableRegistryConsistent(t *testing.T) {
	db := Open()
	names := []string{"alpha", "beta", "gamma", "delta"}
	for _, n := range names {
		db.MustExec(fmt.Sprintf(`CREATE TABLE %s (id INTEGER PRIMARY KEY)`, n))
	}
	db.MustExec(`CREATE TABLE IF NOT EXISTS beta (x INTEGER)`)
	for _, sql := range []string{
		`CREATE TABLE gamma (id INTEGER)`,
		`CREATE TABLE omega (id INTEGER, FOREIGN KEY (id) REFERENCES ghost (id))`,
		`CREATE TABLE omega (id INTEGER, id TEXT)`,
	} {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("accepted %s", sql)
		}
	}
	var img writerBuffer
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	back := Open()
	if err := back.Load(&img); err != nil {
		t.Fatal(err)
	}
	got := back.TableNames()
	want := names
	if len(got) != len(want) {
		t.Fatalf("tables = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tables[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// valueKey renders a value for result comparison in the index properties.
func valueKey(v Value) string {
	switch v.K {
	case KNull:
		return "∅"
	case KInt:
		return fmt.Sprintf("i%d", v.I)
	case KReal:
		return fmt.Sprintf("r%v", v.R)
	case KText:
		return "t" + v.S
	default:
		return "b" + string(v.B)
	}
}

func rowsKey(rows [][]Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, v := range row {
			s += valueKey(v) + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func sameRows(a, b [][]Value) bool {
	ka, kb := rowsKey(a), rowsKey(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// randIndexedDB builds a table with a PK, a secondary index, and random
// contents drawn from a small domain (so equality predicates hit many
// rows and NULLs appear).
func randIndexedDB(rng *rand.Rand, n int) *DB {
	db := Open()
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)`)
	db.MustExec(`CREATE INDEX t_a ON t (a)`)
	for i := 0; i < n; i++ {
		a := Null()
		if rng.Intn(5) > 0 {
			a = Int(rng.Int63n(4))
		}
		db.MustExec(`INSERT INTO t VALUES (?, ?, ?)`,
			Int(int64(i)), a, Text(fmt.Sprintf("s%d", rng.Intn(3))))
	}
	return db
}

// Property: index-backed SELECT returns exactly the rows a full scan
// returns, for equality predicates over PK, indexed, and unindexed
// columns — including predicates a full scan treats specially (NULL
// comparisons, kind mismatches).
func TestPropertyIndexSelectEqualsFullScan(t *testing.T) {
	queries := []struct {
		sql  string
		args func(rng *rand.Rand) []Value
	}{
		{`SELECT * FROM t WHERE id = ?`, func(rng *rand.Rand) []Value { return []Value{Int(rng.Int63n(40))} }},
		{`SELECT * FROM t WHERE a = ?`, func(rng *rand.Rand) []Value { return []Value{Int(rng.Int63n(5))} }},
		{`SELECT * FROM t WHERE a = ? AND s = ?`, func(rng *rand.Rand) []Value {
			return []Value{Int(rng.Int63n(5)), Text(fmt.Sprintf("s%d", rng.Intn(4)))}
		}},
		{`SELECT * FROM t WHERE s = ? AND id = ?`, func(rng *rand.Rand) []Value {
			return []Value{Text(fmt.Sprintf("s%d", rng.Intn(4))), Int(rng.Int63n(40))}
		}},
		{`SELECT * FROM t WHERE a = ?`, func(rng *rand.Rand) []Value { return []Value{Null()} }},
		{`SELECT * FROM t WHERE a = ?`, func(rng *rand.Rand) []Value { return []Value{Text("not-an-int")} }},
		{`SELECT id FROM t WHERE a = ? ORDER BY id`, func(rng *rand.Rand) []Value { return []Value{Int(rng.Int63n(4))} }},
	}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		db := randIndexedDB(rng, int(nRaw)%40+1)
		for _, q := range queries {
			args := q.args(rng)
			indexed, errIdx := db.Query(q.sql, args...)
			db.disableIndexSelect = true
			full, errFull := db.Query(q.sql, args...)
			db.disableIndexSelect = false
			if (errIdx == nil) != (errFull == nil) {
				t.Logf("error divergence: %s args=%v idx=%v full=%v", q.sql, args, errIdx, errFull)
				return false
			}
			if errIdx != nil {
				continue
			}
			if !sameRows(indexed.Rows, full.Rows) {
				t.Logf("divergence: %s args=%v indexed=%d full=%d",
					q.sql, args, len(indexed.Rows), len(full.Rows))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a random interleaving of INSERT/UPDATE/DELETE statements with
// equality predicates leaves an indexed database and a full-scan-only
// database with identical contents — indexes stay consistent through
// row mutation and compaction.
func TestPropertyIndexMutationsMatchFullScan(t *testing.T) {
	f := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := int(opsRaw)%80 + 10
		indexed := randIndexedDB(rng, 10)
		full := Open()
		full.disableIndexSelect = true
		full.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, s TEXT)`)
		// Mirror the starting rows.
		start, err := indexed.Query(`SELECT * FROM t`)
		if err != nil {
			return false
		}
		for _, row := range start.Rows {
			full.MustExec(`INSERT INTO t VALUES (?, ?, ?)`, row[0], row[1], row[2])
		}
		next := int64(100)
		for i := 0; i < ops; i++ {
			var sql string
			var args []Value
			switch rng.Intn(3) {
			case 0:
				sql = `INSERT INTO t VALUES (?, ?, ?)`
				args = []Value{Int(next), Int(rng.Int63n(4)), Text(fmt.Sprintf("s%d", rng.Intn(3)))}
				next++
			case 1:
				sql = `UPDATE t SET a = ? WHERE a = ?`
				args = []Value{Int(rng.Int63n(4)), Int(rng.Int63n(4))}
			default:
				sql = `DELETE FROM t WHERE a = ? AND s = ?`
				args = []Value{Int(rng.Int63n(4)), Text(fmt.Sprintf("s%d", rng.Intn(3)))}
			}
			nIdx, errIdx := indexed.Exec(sql, args...)
			nFull, errFull := full.Exec(sql, args...)
			if (errIdx == nil) != (errFull == nil) || nIdx != nFull {
				t.Logf("op divergence: %s args=%v idx=(%d,%v) full=(%d,%v)",
					sql, args, nIdx, errIdx, nFull, errFull)
				return false
			}
		}
		a, err := indexed.Query(`SELECT * FROM t`)
		if err != nil {
			return false
		}
		b, err := full.Query(`SELECT * FROM t`)
		if err != nil {
			return false
		}
		return sameRows(a.Rows, b.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
