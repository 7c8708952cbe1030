package sqldb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// randomDB builds a database of a few FK-linked tables with random column
// sets, indexes and rows, every value kind and NULL among them.
func randomDB(t testing.TB, rng *rand.Rand) *DB {
	t.Helper()
	db := Open()
	kinds := []string{"INTEGER", "TEXT", "BLOB"}
	up := Null() // what a row's foreign key names: row 0 of the table before, if it has one
	for ti := 0; ti < 1+rng.Intn(3); ti++ {
		ncols := 1 + rng.Intn(5)
		defs := []string{"id INTEGER PRIMARY KEY"}
		var colKinds []string
		for ci := 0; ci < ncols; ci++ {
			k := kinds[rng.Intn(len(kinds))]
			def := fmt.Sprintf("c%d %s", ci, k)
			if rng.Intn(4) == 0 {
				def += " NOT NULL"
			}
			defs = append(defs, def)
			colKinds = append(colKinds, k)
		}
		if ti > 0 {
			defs = append(defs, fmt.Sprintf("up INTEGER, FOREIGN KEY (up) REFERENCES t%d (id)", ti-1))
		}
		db.MustExec(fmt.Sprintf("CREATE TABLE t%d (%s)", ti, strings.Join(defs, ", ")))
		if rng.Intn(2) == 0 {
			db.MustExec(fmt.Sprintf("CREATE INDEX t%d_c0 ON t%d (c0)", ti, ti))
		}
		nrows := rng.Intn(30)
		for ri := 0; ri < nrows; ri++ {
			args := []Value{Int(int64(ri))}
			for ci, k := range colKinds {
				notNull := strings.Contains(defs[1+ci], "NOT NULL")
				switch {
				case !notNull && rng.Intn(5) == 0:
					args = append(args, Null())
				case k == "INTEGER":
					args = append(args, Int(rng.Int63()-rng.Int63()))
				case k == "TEXT":
					args = append(args, Text(strings.Repeat("é'\x00", rng.Intn(4))+fmt.Sprint(ri)))
				default:
					blob := make([]byte, rng.Intn(200))
					rng.Read(blob)
					args = append(args, Blob(blob))
				}
			}
			if ti > 0 {
				args = append(args, up)
			}
			marks := strings.TrimSuffix(strings.Repeat("?, ", len(args)), ", ")
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t%d VALUES (%s)", ti, marks), args...); err != nil {
				t.Fatal(err)
			}
		}
		if up = Null(); nrows > 0 {
			up = Int(0)
		}
	}
	return db
}

// schemaDump renders what dumpDB leaves out: keys and index definitions.
func schemaDump(db *DB) string {
	var sb strings.Builder
	for _, name := range db.order {
		t := db.tables[name]
		fmt.Fprintf(&sb, "%s %+v pk=%v fk=%+v\n", name, t.Cols, t.PKCols, t.FKs)
		for _, ix := range t.Indexes {
			fmt.Fprintf(&sb, "  index %s %v\n", ix.Name, ix.Cols)
		}
	}
	return sb.String()
}

// TestSnapshotRoundTrip: random databases come back from the image row for
// row, with their keys and indexes, at the epoch they were saved with.
func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		db := randomDB(t, rng)
		db.epoch = uint64(trial)
		wantRows, wantSchema := dumpDB(t, db), schemaDump(db)
		var img bytes.Buffer
		if err := db.Save(&img); err != nil {
			t.Fatal(err)
		}
		back := Open()
		if err := back.Load(&img); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := dumpDB(t, back); got != wantRows {
			t.Errorf("trial %d: rows differ:\n--- want ---\n%s--- got ---\n%s", trial, wantRows, got)
		}
		if got := schemaDump(back); got != wantSchema {
			t.Errorf("trial %d: schema differs:\n--- want ---\n%s--- got ---\n%s", trial, wantSchema, got)
		}
		if back.epoch != db.epoch {
			t.Errorf("trial %d: epoch %d, want %d", trial, back.epoch, db.epoch)
		}
		if err := back.CheckIntegrity(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		// The loaded rows are views into one slice per table; growing
		// one must not reach into its neighbour.
		for _, tb := range back.tables {
			for _, row := range tb.Rows {
				if cap(row) != len(row) {
					t.Fatalf("trial %d: a row of table %s has spare capacity", trial, tb.Name)
				}
			}
		}
	}
}

// TestLoadRefusesWhatIsNotAnImage: a file that does not open with the
// image's header frame — empty, text, a log, the one-gob-value image of
// builds before the framed one (its first bytes here) — is refused by name,
// not handed to a decoder, and OpenAt says the same.
func TestLoadRefusesWhatIsNotAnImage(t *testing.T) {
	var log bytes.Buffer
	db := Open()
	db.AttachWAL(NewWAL(&log, SyncAlways))
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	path := filepath.Join(t.TempDir(), "goofi.db")
	for name, data := range map[string][]byte{
		"empty": nil,
		"text":  []byte("SQLite format 3\x00"),
		"log":   log.Bytes(),
		"gob":   []byte("\x4f\xff\x81\x03\x01\x01\x0afileFormat\x01\xff\x82\x00\x01\x04\x01\x05Magic\x01\x0c\x00"),
	} {
		if err := Open().Load(bytes.NewReader(data)); !errors.Is(err, ErrNotImage) {
			t.Errorf("%s: Load = %v, want ErrNotImage", name, err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if db, err := OpenAt(path, SyncNever); !errors.Is(err, ErrNotImage) {
			if err == nil {
				db.Close()
			}
			t.Errorf("%s: OpenAt = %v, want ErrNotImage", name, err)
		}
	}
}

// TestSnapshotSpansFrames: a table larger than one rows frame is written as
// several and read back whole.
func TestSnapshotSpansFrames(t *testing.T) {
	db := Open()
	db.MustExec(`CREATE TABLE big (id INTEGER PRIMARY KEY, payload BLOB)`)
	for i := 0; i < 40; i++ {
		db.MustExec(`INSERT INTO big VALUES (?, ?)`, Int(int64(i)), Blob(bytes.Repeat([]byte{byte(i)}, 10_000)))
	}
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		t.Fatal(err)
	}
	if frames := len(frameBoundaries(t, img.Bytes())); frames < 2+400_000/imageChunk {
		t.Errorf("a %d-byte image is only %d frames", img.Len(), frames)
	}
	back := Open()
	if err := back.Load(&img); err != nil {
		t.Fatal(err)
	}
	if got, want := dumpDB(t, back), dumpDB(t, db); got != want {
		t.Error("rows differ after a multi-frame round trip")
	}
}

// TestSnapshotDamageIsAnError: no truncated prefix and no single flipped
// bit of an image loads — not as a panic, and not as a database with fewer
// rows. The same holds through OpenAt.
func TestSnapshotDamageIsAnError(t *testing.T) {
	db := randomDB(t, rand.New(rand.NewSource(3)))
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	if len(frameBoundaries(t, img)) < 3 {
		t.Fatal("fixture has no rows frame")
	}
	load := func(data []byte) error { return Open().Load(bytes.NewReader(data)) }
	if err := load(img); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "goofi.db")
	openAt := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenAt(path, SyncNever)
		if err == nil {
			db.Close()
		}
		return err
	}
	for cut := 0; cut < len(img); cut++ {
		if load(img[:cut]) == nil {
			t.Fatalf("the first %d of %d bytes loaded", cut, len(img))
		}
		if cut%17 == 0 && openAt(img[:cut]) == nil {
			t.Fatalf("the first %d of %d bytes opened", cut, len(img))
		}
	}
	damaged := make([]byte, len(img))
	for bit := 0; bit < 8*len(img); bit++ {
		copy(damaged, img)
		damaged[bit/8] ^= 1 << (bit % 8)
		if load(damaged) == nil {
			t.Fatalf("loaded with bit %d of byte %d flipped", bit%8, bit/8)
		}
		if bit%101 == 0 && openAt(damaged) == nil {
			t.Fatalf("opened with bit %d of byte %d flipped", bit%8, bit/8)
		}
	}
}

// imageWithColumnFlags is the image of a one-column table whose column
// flag byte is flags, framed and checksummed as Save frames it.
func imageWithColumnFlags(tb testing.TB, flags byte) []byte {
	tb.Helper()
	db := Open()
	db.MustExec(`CREATE TABLE t (col INTEGER NOT NULL)`)
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		tb.Fatal(err)
	}
	b := img.Bytes()
	at := bytes.Index(b, []byte("\x03col")) + len("\x03col") + 1 // past the name and the kind byte
	if b[at] != 1 {
		tb.Fatalf("flag byte at %d is %d, want NOT NULL's 1", at, b[at])
	}
	b[at] = flags
	n := binary.LittleEndian.Uint32(b[0:4])
	binary.LittleEndian.PutUint32(b[4:8], crc32.ChecksumIEEE(b[walFrameHeader:walFrameHeader+n]))
	return b
}

// TestSnapshotRefusesColumnFlags: NOT NULL is a column's one flag. An image
// whose flag byte has any other bit set — UNIQUE's 2 among them, which no
// schema ever wrote — does not load.
func TestSnapshotRefusesColumnFlags(t *testing.T) {
	for flags := 0; flags < 256; flags++ {
		err := Open().Load(bytes.NewReader(imageWithColumnFlags(t, byte(flags))))
		if (err == nil) != (flags <= 1) {
			t.Errorf("flag byte %#x: Load = %v", flags, err)
		}
	}
}

// TestCheckpointFailingBeforeLogReset is the crash between Checkpoint's two
// steps, through the real code path: the snapshot is renamed into place and
// the log reset then fails. The files left behind — the new snapshot beside
// the previous epoch's log — must recover to the full state, once.
func TestCheckpointFailingBeforeLogReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goofi.db")
	db, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	applyScript(t, db, walScript())
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Replayed onto the snapshot that holds them, these two are not
	// idempotent: the INSERT of the key the UPDATE moved succeeds again.
	db.MustExec(`INSERT INTO parent VALUES (9, 'late')`)
	db.MustExec(`UPDATE parent SET id = 10 WHERE id = 9`)
	want := dumpDB(t, db)
	if err := db.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Pull the log's file out from under it: everything up to and
	// including the rename works, the reset cannot.
	db.wal.f.Close()
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded without a log to reset")
	}
	if _, err := db.Exec(`INSERT INTO parent VALUES (11, 'after')`); err == nil {
		t.Error("a write was accepted after the failed checkpoint poisoned the log")
	}

	db2, err := OpenAt(path, SyncBarrier)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dumpDB(t, db2); got != want {
		t.Errorf("recovered state differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if db2.epoch != 2 {
		t.Errorf("recovered at epoch %d, want 2 (the renamed snapshot's)", db2.epoch)
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

// loggedStateFixture is a store the size of the benchmark's sort-solo
// campaign: the Fig 4 schema and n LoggedSystemState rows of about 1.4 KB.
func loggedStateFixture(tb testing.TB, n int) *DB {
	tb.Helper()
	db := Open()
	for _, ddl := range fuzzSeeds[:4] {
		db.MustExec(ddl)
	}
	db.MustExec(`INSERT INTO TargetSystemData VALUES ('thor', 'card', ?)`, Blob([]byte("{}")))
	db.MustExec(`INSERT INTO CampaignData VALUES ('c', 'thor', 'card', ?)`, Blob([]byte("{}")))
	rng := rand.New(rand.NewSource(6000))
	data, state := make([]byte, 380), make([]byte, 950)
	for i := 0; i < n; i++ {
		rng.Read(data)
		rng.Read(state)
		db.MustExec(`INSERT INTO LoggedSystemState VALUES (?, ?, ?, ?, ?, ?)`,
			Text(fmt.Sprintf("c/exp%05d", i)), Null(), Text("c"), Int(-1),
			Blob(bytes.Clone(data)), Blob(bytes.Clone(state)))
	}
	return db
}

func BenchmarkSnapshotSave(b *testing.B) {
	db := loggedStateFixture(b, 6000)
	var img bytes.Buffer
	if err := db.Save(&img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.Reset()
		if err := db.Save(&img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotLoad(b *testing.B) {
	var img bytes.Buffer
	if err := loggedStateFixture(b, 6000).Save(&img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Open().Load(bytes.NewReader(img.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
