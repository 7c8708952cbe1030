package sqldb

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestFastInsertParamsShapes: the fast path takes an INSERT whose every
// value is the positional parameter of its slot, however many rows, and
// nothing else.
func TestFastInsertParamsShapes(t *testing.T) {
	for sql, want := range map[string][3]int{
		`INSERT INTO t VALUES (?)`:                    {1, 1},
		`INSERT INTO t VALUES (?, ?, ?)`:              {3, 1},
		`INSERT INTO t VALUES (?, ?), (?, ?), (?, ?)`: {2, 3},
		`INSERT INTO t VALUES (?, 1)`:                 {0, 0},
		`INSERT INTO t VALUES (?, ?), (?)`:            {0, 0},
		`INSERT INTO t VALUES (1, 2)`:                 {0, 0},
		`UPDATE t SET a = ? WHERE b = ?`:              {0, 0},
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		table, width, rows := fastInsertParams(st)
		if width != want[0] || rows != want[1] || (rows > 0) != (table == "t") {
			t.Errorf("%s: table %q, %d values by %d rows; want %d by %d", sql, table, width, rows, want[0], want[1])
		}
	}
}

// logSchema is LoggedSystemState's shape: a text primary key, a mostly-NULL
// indexed parent, a foreign key into a table of campaigns, which carries
// the automatic index, and two BLOBs.
var logSchema = []string{
	`CREATE TABLE camp (name TEXT PRIMARY KEY)`,
	`CREATE TABLE log (
		name   TEXT PRIMARY KEY,
		parent TEXT,
		camp   TEXT NOT NULL,
		step   INTEGER NOT NULL,
		data   BLOB NOT NULL,
		state  BLOB NOT NULL,
		FOREIGN KEY (camp) REFERENCES camp (name)
	)`,
	`CREATE INDEX logByParent ON log (parent)`,
	`INSERT INTO camp VALUES ('a')`,
	`INSERT INTO camp VALUES ('b')`,
}

// multiInsert is the INSERT of n log rows, all values parameters.
func multiInsert(n int) string {
	return `INSERT INTO log VALUES ` + strings.Repeat(`(?, ?, ?, ?, ?, ?), `, n-1) + `(?, ?, ?, ?, ?, ?)`
}

// indexDump lists every secondary index's buckets, keys sorted.
func indexDump(db *DB) string {
	var sb strings.Builder
	for _, name := range db.TableNames() {
		for _, ix := range db.tables[name].Indexes {
			keys := make([]string, 0, len(ix.rows))
			for k := range ix.rows {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&sb, "%s.%s %q %v\n", name, ix.Name, k, *ix.rows[k])
			}
		}
	}
	return sb.String()
}

// TestPreparedInsertMatchesExec: a multi-row INSERT run through a prepared
// statement's fast path and the same text run through DB.Exec's general
// path leave equal tables and indexes and byte-equal log records, whether
// every row goes in or row k of n breaks a constraint — a duplicate primary
// key, within the statement or against an earlier one, an unknown campaign,
// or a NULL where none may be. Then both return the same error and the
// same count, keep the same k-1 rows, and a replay of the log reproduces
// exactly that. The fast path keeps the rows as windows of the arguments.
func TestPreparedInsertMatchesExec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var fastLog, execLog bytes.Buffer
	fast, general := Open(), Open()
	fast.AttachWAL(NewWAL(&fastLog, SyncNever))
	general.AttachWAL(NewWAL(&execLog, SyncNever))
	for _, ddl := range logSchema {
		fast.MustExec(ddl)
		general.MustExec(ddl)
	}
	stmts := map[int]*Stmt{}
	var names []string
	failures := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		args := make([]Value, 0, 6*n)
		for r := 0; r < n; r++ {
			name := fmt.Sprintf("c/exp%05d", len(names)+r)
			parent := Null()
			if rng.Intn(8) == 0 {
				parent = Text(fmt.Sprintf("c/exp%05d", rng.Intn(len(names)+r+1)))
			}
			data := make([]byte, rng.Intn(40))
			rng.Read(data)
			args = append(args, Text(name), parent, Text([]string{"a", "b"}[rng.Intn(2)]),
				Int(int64(rng.Intn(3)-1)), Blob(data), Blob(data[:rng.Intn(len(data)+1)]))
		}
		bad := -1
		if rng.Intn(4) == 0 {
			bad = rng.Intn(n)
			row := args[6*bad : 6*bad+6]
			switch rng.Intn(4) {
			case 0: // a duplicate of an earlier row of the statement
				if bad > 0 {
					row[0] = args[6*rng.Intn(bad)]
					break
				}
				fallthrough
			case 1: // a duplicate of a stored row
				if len(names) > 0 {
					row[0] = Text(names[rng.Intn(len(names))])
					break
				}
				fallthrough
			case 2:
				row[2] = Text("no such campaign")
			default:
				row[3] = Null()
			}
		}
		st := stmts[n]
		if st == nil {
			var err error
			if st, err = fast.Prepare(multiInsert(n)); err != nil {
				t.Fatal(err)
			}
			stmts[n] = st
		}
		mine := slices.Clone(args)
		gotN, gotErr := st.Exec(mine...)
		wantN, wantErr := general.Exec(multiInsert(n), slices.Clone(args)...)
		if gotN != wantN || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d (%d rows, row %d bad): prepared %d, %v; Exec %d, %v", trial, n, bad, gotN, gotErr, wantN, wantErr)
		}
		if (wantErr != nil) != (bad >= 0) || (bad >= 0 && wantN != int64(bad)) {
			t.Fatalf("trial %d: row %d of %d bad, yet %d rows in and error %v", trial, bad, n, wantN, wantErr)
		}
		if gotErr != nil {
			failures++
		}
		if gotN > 0 {
			rows := fast.tables["log"].Rows
			if last := rows[len(rows)-1]; &last[0] != &mine[6*(gotN-1)] {
				t.Fatalf("trial %d: the stored row is not a window of the arguments", trial)
			}
		}
		for r := int64(0); r < gotN; r++ {
			names = append(names, args[6*r].S)
		}
	}
	if failures == 0 {
		t.Fatal("no statement broke a constraint")
	}
	if got, want := dumpDB(t, fast), dumpDB(t, general); got != want {
		t.Errorf("tables differ:\n--- prepared ---\n%s--- Exec ---\n%s", got, want)
	}
	if got, want := indexDump(fast), indexDump(general); got != want {
		t.Errorf("indexes differ:\n--- prepared ---\n%s--- Exec ---\n%s", got, want)
	}
	for _, db := range []*DB{fast, general} {
		if err := db.CheckIntegrity(); err != nil {
			t.Error(err)
		}
		if err := db.Barrier(); err != nil { // flushes the log
			t.Fatal(err)
		}
	}
	if !bytes.Equal(fastLog.Bytes(), execLog.Bytes()) {
		t.Errorf("logs differ: %d bytes prepared, %d through Exec", fastLog.Len(), execLog.Len())
	}
	replayed := Open()
	if _, err := replayed.ReplayWAL(bytes.NewReader(fastLog.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpDB(t, replayed), dumpDB(t, fast); got != want {
		t.Errorf("the replayed log differs from the store it logged")
	}
	if got, want := indexDump(replayed), indexDump(fast); got != want {
		t.Errorf("the replayed log's indexes differ from the store's")
	}
}
