package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// fuzzSeeds is the seed corpus for the parser/lexer fuzzers: every
// statement shape the engine supports, drawn from the GOOFI schema (Fig
// 4), the campaign store's statements, the analysis queries and this
// package's own test suite, plus edge shapes (quoting, blobs, unary
// minus, aggregates, parameters) that have historically been the risky
// corners of hand-rolled recursive-descent parsers — and the shapes the
// grammar no longer has (REAL, UNIQUE, DROP TABLE, OFFSET, OR, IN, LIKE,
// arithmetic, blob and real literals), which must fail as cleanly.
var fuzzSeeds = []string{
	// GOOFI schema (campaign.Schema) and analysis DDL.
	`CREATE TABLE IF NOT EXISTS TargetSystemData (
		targetName   TEXT PRIMARY KEY,
		testCardName TEXT NOT NULL,
		config       BLOB NOT NULL
	)`,
	`CREATE TABLE IF NOT EXISTS CampaignData (
		campaignName TEXT PRIMARY KEY,
		targetName   TEXT NOT NULL,
		testCardName TEXT,
		config       BLOB NOT NULL,
		FOREIGN KEY (targetName) REFERENCES TargetSystemData (targetName)
	)`,
	`CREATE TABLE IF NOT EXISTS LoggedSystemState (
		experimentName   TEXT PRIMARY KEY,
		parentExperiment TEXT,
		campaignName     TEXT NOT NULL,
		step             INTEGER NOT NULL,
		experimentData   BLOB NOT NULL,
		stateVector      BLOB NOT NULL,
		FOREIGN KEY (campaignName) REFERENCES CampaignData (campaignName)
	)`,
	`CREATE INDEX IF NOT EXISTS LoggedSystemStateByParent
		ON LoggedSystemState (parentExperiment)`,
	`CREATE TABLE t (a INTEGER, b REAL, c TEXT UNIQUE, d BLOB, PRIMARY KEY (a, c))`,
	`DROP TABLE IF EXISTS LoggedSystemState`,
	// Store statements.
	`INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?, ?)`,
	`INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?, ?), (?, ?, ?, ?, ?, ?)`,
	`UPDATE TargetSystemData SET testCardName = ?, config = ? WHERE targetName = ?`,
	`DELETE FROM LoggedSystemState WHERE campaignName = ?`,
	`SELECT config FROM CampaignData WHERE campaignName = ?`,
	`SELECT experimentName, parentExperiment, campaignName, step, experimentData, stateVector
		FROM LoggedSystemState WHERE campaignName = ? AND step = -1 ORDER BY experimentName`,
	`SELECT DISTINCT parentExperiment FROM LoggedSystemState WHERE campaignName = ? AND step >= 0`,
	`UPDATE CampaignCheckpoint SET planHash = ?, cursor = ? WHERE campaignName = ?`,
	// Aggregates, grouping, ordering, limits.
	`SELECT campaignName, COUNT(*), COUNT(DISTINCT step) FROM LoggedSystemState
		GROUP BY campaignName ORDER BY campaignName DESC LIMIT 10 OFFSET 2`,
	`SELECT MIN(step), MAX(step), AVG(step), SUM(step), TOTAL(step) FROM LoggedSystemState`,
	`SELECT COUNT(*) + 1, SUM(a) / COUNT(a) FROM t`,
	`SELECT * FROM t WHERE a IN (1, 2, 3) AND b BETWEEN -1.5 AND 2.5e3`,
	`SELECT a AS x, b y FROM t WHERE (a = 1 OR NOT b < 2) AND c IS NOT NULL`,
	`SELECT * FROM t WHERE c LIKE 'exp%' ORDER BY a ASC, b DESC`,
	// Literal and operator edges.
	`INSERT INTO t VALUES (-9223372036854775808, 1.5e-300, 'it''s', x'DEADBEEF')`,
	`INSERT INTO t (a, b) VALUES (1 + 2 * -3 % 4, 5.0 / 0.5)`,
	`SELECT 'unterminated`,
	`SELECT x'0`,
	`SELECT x'zz'`,
	`SELECT 1e`,
	`SELECT 1.2.3`,
	`SELECT ?`,
	`SELECT -?`,
	`SELECT ((((1))))`,
	`SELECT "double" FROM "quoted"`,
	"",
	"   \t\n  ",
	`;`,
	`SELECT`,
	`CREATE`,
	`CREATE TABLE`,
	`INSERT INTO`,
	`( ) , = < > <= >= <> != + - * / %`,
	// The generated analysis queries (analysis/sqlgen.go).
	`SELECT class, COUNT(*) AS n FROM AnalysisResults
		WHERE campaignName = ? GROUP BY class ORDER BY n DESC`,
	`SELECT mechanism, COUNT(*) AS n, AVG(latency) AS meanLatency FROM AnalysisResults
		WHERE campaignName = ? AND class = 'detected' GROUP BY mechanism ORDER BY n DESC`,
	`SELECT experimentName, mechanism, latency FROM AnalysisResults
		WHERE campaignName = ? AND class = 'detected' ORDER BY latency DESC LIMIT 10`,
	`SELECT SUM(recovered) AS totalRecoveries, COUNT(*) AS experiments
		FROM AnalysisResults WHERE campaignName = ?`,
}

// FuzzParseSQL asserts the parser never panics: any input must produce a
// statement or an error, never a crash. (A fault injection tool ought to
// survive faults injected into its own SQL.)
func FuzzParseSQL(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := Parse(sql)
		if err == nil && st == nil {
			t.Fatalf("Parse(%q) returned neither statement nor error", sql)
		}
	})
}

// FuzzLexer drives the tokenizer alone, so lexical crashes are not
// masked by early parser errors.
func FuzzLexer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		toks, err := lex(sql)
		if err == nil && len(toks) == 0 {
			t.Fatalf("lex(%q) returned no tokens and no error (missing EOF)", sql)
		}
	})
}

// storeFiles writes the WAL test script to a real store twice over — once
// compacted into the snapshot, once left in the log — and returns the two
// files: what OpenAt is handed after a crash.
func storeFiles(tb testing.TB) (snapshot, wal []byte) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncNever)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	for _, op := range walScript() {
		db.MustExec(op.sql, op.args...)
	}
	if err := db.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
	db.MustExec(`INSERT INTO parent VALUES (9, 'late')`)
	db.MustExec(`UPDATE child SET payload = ? WHERE name = 'a'`, Blob([]byte{1, 2, 3}))
	if err := db.Barrier(); err != nil {
		tb.Fatal(err)
	}
	if snapshot, err = os.ReadFile(path); err != nil {
		tb.Fatal(err)
	}
	if wal, err = os.ReadFile(WALPath(path)); err != nil {
		tb.Fatal(err)
	}
	return snapshot, wal
}

// FuzzLoadSnapshot hands Load the bytes a crashed process or a bad disk
// could leave where a snapshot was: it must fail or produce a database,
// never panic — and a database it does produce must be one Save writes back
// and Load reads again to the same image.
func FuzzLoadSnapshot(f *testing.F) {
	snapshot, _ := storeFiles(f)
	f.Add(snapshot)
	f.Add(snapshot[:len(snapshot)/2])
	f.Add(imageWithColumnFlags(f, 2)) // the UNIQUE bit no build writes any more
	f.Fuzz(func(t *testing.T, data []byte) {
		db := Open()
		if db.Load(bytes.NewReader(data)) != nil {
			return
		}
		var first, second bytes.Buffer
		if err := db.Save(&first); err != nil {
			t.Fatalf("loaded, then did not save: %v", err)
		}
		back := Open()
		if err := back.Load(bytes.NewReader(first.Bytes())); err != nil {
			t.Fatalf("saved, then did not load: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("an image changed across load and save")
		}
	})
}

// FuzzWALReplay hands replay an arbitrary log: it stops at the first frame
// it cannot use, never panics, and whatever it applied went through the
// engine's own checks, so the database is consistent. A record whose
// statement does not parse is the one error it may return.
func FuzzWALReplay(f *testing.F) {
	_, wal := storeFiles(f)
	f.Add(wal)
	f.Add(wal[:len(wal)-3])
	var log bytes.Buffer
	db := Open()
	db.AttachWAL(NewWAL(&log, SyncAlways))
	for _, op := range walScript() {
		db.MustExec(op.sql, op.args...)
	}
	f.Add(log.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, epoch := range []uint64{0, 1} { // the two epochs the seeds were logged at
			db := Open()
			db.epoch = epoch
			if _, err := db.ReplayWAL(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrUnparsableRecord) {
				t.Fatal(err)
			}
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestHostileSizesAllocateNothing: a frame length, a row count and an item
// count far beyond the bytes behind them are refused before anything is
// allocated for them.
func TestHostileSizesAllocateNothing(t *testing.T) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var img bytes.Buffer
	db := Open()
	db.MustExec(`CREATE TABLE t (a INTEGER)`)
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	header := img.Bytes()[:frameBoundaries(t, img.Bytes())[0]]
	hugeFrame := append([]byte(nil), header...)
	hugeFrame = append(hugeFrame, 0, 0, 0, 4, 1, 2, 3, 4) // a 64 MiB frame, 0 bytes of it present
	hugeRows := append(append([]byte(nil), header...),
		frame([]byte{imgRows, 0, 0xff, 0xff, 0xff, 0xff, byte(KNull)})...)
	hugeTables := frame(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(
		[]byte(imageMagic), fileVersion), 0), 1<<40))
	for name, data := range map[string][]byte{"frame": hugeFrame, "rows": hugeRows, "tables": hugeTables} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Open().Load(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: loaded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: %d bytes allocated for a %d-byte input", name, grew, len(data))
		}
	}
}
