package sqldb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dumpDB renders every table's rows in insertion order as SQL literals,
// for byte-exact state comparison between an original database and its
// crash-recovered replay.
func dumpDB(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		r, err := db.Query("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		fmt.Fprintf(&sb, "-- %s (%s)\n", name, strings.Join(r.Cols, ","))
		for _, row := range r.Rows {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.String()
			}
			sb.WriteString(strings.Join(cells, "|") + "\n")
		}
	}
	return sb.String()
}

// walScript is a workload that exercises every logged statement kind —
// DDL, single- and multi-row INSERT, prepared-statement fast path,
// UPDATE, DELETE — over two FK-linked tables.
type walOp struct {
	sql  string
	args []Value
}

func walScript() []walOp {
	ops := []walOp{
		{sql: `CREATE TABLE parent (id INTEGER PRIMARY KEY, label TEXT NOT NULL)`},
		{sql: `CREATE TABLE child (
			name TEXT PRIMARY KEY, pid INTEGER NOT NULL, score INTEGER, payload BLOB,
			FOREIGN KEY (pid) REFERENCES parent (id))`},
		{sql: `CREATE INDEX childByPid ON child (pid)`},
	}
	for i := 0; i < 5; i++ {
		ops = append(ops, walOp{
			sql:  `INSERT INTO parent VALUES (?, ?)`,
			args: []Value{Int(int64(i)), Text(fmt.Sprintf("p%d", i))},
		})
	}
	ops = append(ops,
		walOp{sql: `INSERT INTO child VALUES ('a', 0, 15, ?), ('b', 1, ?, ?), ('c', 1, -225, ?)`,
			args: []Value{Blob([]byte{0, 0xff}), Null(), Null(), Blob([]byte{})}},
		walOp{sql: `INSERT INTO child VALUES (?, ?, ?, ?)`,
			args: []Value{Text("d"), Int(3), Int(125), Blob([]byte{1, 2, 3})}},
		walOp{sql: `UPDATE child SET score = ? WHERE pid = 1`, args: []Value{Int(-450)}},
		walOp{sql: `UPDATE parent SET label = ? WHERE id = ?`, args: []Value{Text("renamed"), Int(4)}},
		walOp{sql: `DELETE FROM child WHERE name = 'c'`},
		walOp{sql: `DELETE FROM parent WHERE id = 2`},
	)
	return ops
}

func applyScript(t *testing.T, db *DB, ops []walOp) {
	t.Helper()
	for _, op := range ops {
		if _, err := db.Exec(op.sql, op.args...); err != nil {
			t.Fatalf("exec %q: %v", op.sql, err)
		}
	}
}

func TestWALRoundTripAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, db, walScript())
	want := dumpDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// No Checkpoint was taken: the snapshot file does not even exist and
	// the entire state must come back from WAL replay alone.
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("snapshot unexpectedly exists (err=%v)", err)
	}
	db2, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpDB(t, db2); got != want {
		t.Errorf("replayed state differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestCheckpointCompactsWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, db, walScript())
	want := dumpDB(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > 32 {
		t.Errorf("WAL not compacted: %d bytes after checkpoint", fi.Size())
	}
	// Post-checkpoint writes land in the fresh log.
	if _, err := db.Exec(`INSERT INTO parent VALUES (9, 'late')`); err != nil {
		t.Fatal(err)
	}
	want2 := dumpDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpDB(t, db2); got != want2 {
		t.Errorf("state after checkpoint+log differs:\n--- want ---\n%s--- got ---\n%s", want2, got)
	}
	if want == want2 {
		t.Fatal("sanity: post-checkpoint insert did not change state")
	}
}

// TestStaleWALDiscardedByEpoch covers the crash window between writing
// the snapshot and resetting the log: a WAL whose epoch predates the
// snapshot must not be replayed on top of it (its records are already in
// the snapshot, and replaying them again is not idempotent: the INSERT
// of a key an UPDATE has since moved succeeds a second time).
func TestStaleWALDiscardedByEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE acc (id INTEGER PRIMARY KEY, bal INTEGER NOT NULL)`)
	db.MustExec(`INSERT INTO acc VALUES (1, 100)`)
	db.MustExec(`UPDATE acc SET id = 2 WHERE id = 1`)

	// Preserve the pre-checkpoint (epoch 0) log, then checkpoint.
	stale, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := dumpDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: snapshot is the new epoch, log is the old one.
	if err := os.WriteFile(WALPath(path), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpDB(t, db2); got != want {
		t.Errorf("stale WAL replayed onto newer snapshot:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	r, err := db2.Query(`SELECT COUNT(*) FROM acc`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].I != 1 {
		t.Errorf("%d accounts, want 1 (the log's INSERT must not re-apply)", r.Rows[0][0].I)
	}
}

// frameBoundaries returns the byte offsets after each intact frame of a
// WAL image, starting after the epoch header.
func frameBoundaries(t *testing.T, img []byte) []int64 {
	t.Helper()
	r := bufio.NewReader(bytes.NewReader(img))
	var bounds []int64
	off := int64(0)
	for {
		_, n, err := readFrame(r)
		if err != nil {
			if err != io.EOF {
				t.Fatalf("unexpected frame error at %d: %v", off, err)
			}
			return bounds
		}
		off += n
		bounds = append(bounds, off)
	}
}

// TestCrashAtEveryRecordBoundary is the crash-injection harness of the
// issue: the WAL is cut at every record boundary (a crash exactly
// between appends) and at several offsets inside the following record (a
// torn write). Replaying each prefix must yield the state of executing
// exactly the surviving statements, and the database must pass a full
// integrity check — no partial row, no dangling foreign key.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	ops := walScript()

	// Record the full WAL image once. SyncAlways flushes the buffered
	// writer after every record, so buf always holds whole frames.
	var buf bytes.Buffer
	full := Open()
	full.AttachWAL(NewWAL(&buf, SyncAlways))
	for _, op := range ops {
		if _, err := full.Exec(op.sql, op.args...); err != nil {
			t.Fatalf("exec %q: %v", op.sql, err)
		}
	}
	img := buf.Bytes()
	bounds := frameBoundaries(t, img)
	if len(bounds) != len(ops)+1 { // +1 for the epoch header
		t.Fatalf("got %d frames, want %d", len(bounds), len(ops)+1)
	}

	// wantAt[k] is the dump after executing the first k statements.
	wantAt := make([]string, len(ops)+1)
	step := Open()
	wantAt[0] = dumpDB(t, step)
	for i, op := range ops {
		if _, err := step.Exec(op.sql, op.args...); err != nil {
			t.Fatal(err)
		}
		wantAt[i+1] = dumpDB(t, step)
	}

	for k, bound := range bounds {
		cuts := []int64{bound}
		if k+1 < len(bounds) {
			// Torn-write cuts inside the next frame: mid-header,
			// first payload byte, one byte short of complete.
			next := bounds[k+1]
			for _, d := range []int64{4, walFrameHeader + 1, next - bound - 1} {
				if c := bound + d; c > bound && c < next {
					cuts = append(cuts, c)
				}
			}
		}
		for _, cut := range cuts {
			db := Open()
			applied, err := db.ReplayWAL(bytes.NewReader(img[:cut]))
			if err != nil {
				t.Fatalf("cut %d: replay: %v", cut, err)
			}
			if applied != k {
				t.Errorf("cut %d: applied %d statements, want %d", cut, applied, k)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Errorf("cut %d: %v", cut, err)
			}
			if got := dumpDB(t, db); got != wantAt[k] {
				t.Errorf("cut %d: state differs from %d-statement prefix:\n--- want ---\n%s--- got ---\n%s",
					cut, k, wantAt[k], got)
			}
		}
	}
}

// TestOpenAtTruncatesTornTail checks recovery through the file path: a
// torn tail appended to the log is cut off on open, and the file ends at
// the last intact frame afterwards.
func TestOpenAtTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, db, walScript())
	want := dumpDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}

	for _, tail := range [][]byte{
		{0x99},                            // lone garbage byte
		{0xAA, 0xBB, 0xCC, 0xDD, 0, 0, 0}, // partial header
		append(bytes.Repeat([]byte{0x55}, walFrameHeader), 1, 2, 3), // bogus full header + partial payload
	} {
		img := append(append([]byte(nil), intact...), tail...)
		if err := os.WriteFile(WALPath(path), img, 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenAt(path, SyncBarrier)
		if err != nil {
			t.Fatalf("tail %x: %v", tail, err)
		}
		if got := dumpDB(t, db2); got != want {
			t.Errorf("tail %x: recovered state differs", tail)
		}
		if err := db2.CheckIntegrity(); err != nil {
			t.Errorf("tail %x: %v", tail, err)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(WALPath(path))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(intact)) {
			t.Errorf("tail %x: wal is %d bytes after recovery, want %d (torn tail not truncated)",
				tail, fi.Size(), len(intact))
		}
	}
}

// failingWriter fails every write once the byte budget is spent — a
// faultfs-style stand-in for a full or dying disk.
type failingWriter struct {
	budget int
	failed bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed || w.budget < len(p) {
		w.failed = true
		return 0, fmt.Errorf("disk full")
	}
	w.budget -= len(p)
	return len(p), nil
}

func TestWALWriteErrorPoisonsLog(t *testing.T) {
	db := Open()
	db.AttachWAL(NewWAL(&failingWriter{budget: 256}, SyncAlways))
	db.MustExec(`CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
	var firstErr error
	for i := 0; i < 1000; i++ {
		_, err := db.Exec(`INSERT INTO kv VALUES (?, ?)`, Text(fmt.Sprintf("k%04d", i)), Text("v"))
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("writes kept succeeding past the writer's budget")
	}
	if !strings.Contains(firstErr.Error(), "wal") || !strings.Contains(firstErr.Error(), "disk full") {
		t.Errorf("error %q does not identify the WAL failure", firstErr)
	}
	// Poisoned: the same error comes back for every later write.
	if _, err := db.Exec(`INSERT INTO kv VALUES ('late', 'v')`); err == nil || err.Error() != firstErr.Error() {
		t.Errorf("poisoned log returned %v, want %v", err, firstErr)
	}
}

func TestReplayIgnoresFailedStatements(t *testing.T) {
	// A multi-row INSERT that fails midway keeps its earlier rows (the
	// engine's documented partial-application semantics). The WAL logs
	// the statement as executed; replay must reproduce the same partial
	// state, not abort.
	var buf bytes.Buffer
	db := Open()
	db.AttachWAL(NewWAL(&buf, SyncAlways))
	db.MustExec(`CREATE TABLE u (id INTEGER PRIMARY KEY)`)
	if _, err := db.Exec(`INSERT INTO u VALUES (1), (2), (1)`); err == nil {
		t.Fatal("duplicate-PK insert unexpectedly succeeded")
	}
	want := dumpDB(t, db)

	db2 := Open()
	if _, err := db2.ReplayWAL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := dumpDB(t, db2); got != want {
		t.Errorf("replay of partially failed statement differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

func TestWALValueEncodingRoundTrip(t *testing.T) {
	args := []Value{
		Null(), Int(0), Int(-1), Int(1<<62 + 3), Real(3.5), Real(-0.0),
		Text(""), Text("it's a 'quote'\n\x00"), Blob(nil), Blob([]byte{0, 255, 7}),
	}
	payload := encodeStmtPayload(nil, "INSERT INTO t VALUES (?)", args)
	sql, got, err := decodeStmtPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if sql != "INSERT INTO t VALUES (?)" {
		t.Errorf("sql = %q", sql)
	}
	if len(got) != len(args) {
		t.Fatalf("decoded %d args, want %d", len(got), len(args))
	}
	for i := range args {
		a, b := args[i], got[i]
		if a.K != b.K || a.I != b.I || a.R != b.R || a.S != b.S || !bytes.Equal(a.B, b.B) {
			t.Errorf("arg %d: got %#v, want %#v", i, b, a)
		}
	}
}

// TestReplayRefusesUnparsableRecord: the log holds only statements that
// parsed when they ran, so one that does not parse now was written by a
// build whose SQL this one does not speak. Replay stops there with
// ErrUnparsableRecord — having applied what came before it — and OpenAt
// refuses the store, leaving its log as it found it.
func TestReplayRefusesUnparsableRecord(t *testing.T) {
	var log bytes.Buffer
	w := NewWAL(&log, SyncAlways)
	for _, sql := range []string{
		`CREATE TABLE t (id INTEGER PRIMARY KEY)`,
		`DROP TABLE t`,
		`INSERT INTO t VALUES (1)`,
	} {
		if err := w.Append(sql, nil); err != nil {
			t.Fatal(err)
		}
	}
	db := Open()
	applied, err := db.ReplayWAL(bytes.NewReader(log.Bytes()))
	if !errors.Is(err, ErrUnparsableRecord) || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("replay error = %v, want ErrUnparsableRecord naming record 2", err)
	}
	if applied != 1 || len(db.TableNames()) != 1 {
		t.Errorf("applied %d statements, tables %v; want the CREATE TABLE before the record", applied, db.TableNames())
	}

	path := filepath.Join(t.TempDir(), "goofi.db")
	if err := os.WriteFile(WALPath(path), log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenAt(path, SyncNever); !errors.Is(err, ErrUnparsableRecord) {
		if err == nil {
			db.Close()
		}
		t.Errorf("OpenAt = %v, want ErrUnparsableRecord", err)
	}
	if got, err := os.ReadFile(WALPath(path)); err != nil || !bytes.Equal(got, log.Bytes()) {
		t.Errorf("the refused log was changed (%d bytes, want %d; %v)", len(got), log.Len(), err)
	}
}
