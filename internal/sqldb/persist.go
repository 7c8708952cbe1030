package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// The database image is a sequence of the write-ahead log's CRC frames
// (wal.go), each payload opening with a kind byte and built from the log's
// value codec:
//
//	header   imgHeader, "GOOFI-SQLDB", uvarint version, uvarint epoch,
//	         uvarint tables, then per table: name, columns (name, kind
//	         byte, flag byte), primary key columns, foreign keys (columns,
//	         referenced table, referenced columns), index definitions
//	         (name, columns) — contents rebuild on load
//	rows     imgRows, uvarint table number, uint32 LE rows, then the rows'
//	         values, one per column; as many frames per table as its rows
//	         need at about imageChunk bytes each
//	trailer  imgTrailer, uvarint tables, then each table's row count
//
// Strings and name lists are uvarint-length-prefixed. The epoch counts
// checkpoints: a WAL whose epoch record differs from the snapshot's
// predates (or postdates) the snapshot and is never replayed onto it. An
// image without its trailer, or whose row counts differ from it, was cut
// short and does not load.
const (
	fileMagic   = "GOOFI-SQLDB"
	fileVersion = 2

	imgHeader  byte = 0x10
	imgRows    byte = 0x11
	imgTrailer byte = 0x12
	// imageMagic opens the header frame's payload; Load refuses a file
	// that does not start with it.
	imageMagic = string(imgHeader) + fileMagic

	// imageChunk is the payload size at which a rows frame is closed: big
	// enough to amortise the frame header and the write call, small enough
	// that save and load hold a sliver of a table at a time.
	imageChunk = 64 << 10
)

// Save writes the whole database to w. This is the snapshot half of
// persistence only; with a WAL attached, use Checkpoint so the log is
// compacted in step with the snapshot's epoch.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.saveLocked(w, db.epoch)
}

// saveLocked streams the snapshot with the given epoch to w, frame by
// frame through one reused payload buffer. Callers hold db.mu (read or
// write).
func (db *DB) saveLocked(w io.Writer, epoch uint64) error {
	bw := bufio.NewWriterSize(w, imageChunk)
	b := append(make([]byte, 0, imageChunk+4096), imageMagic...)
	b = binary.AppendUvarint(b, fileVersion)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, uint64(len(db.order)))
	for _, name := range db.order {
		b = appendSchema(b, db.tables[name])
	}
	err := writeFrame(bw, b)
	for ti, name := range db.order {
		rows := db.tables[name].Rows
		for len(rows) > 0 && err == nil {
			b = binary.AppendUvarint(append(b[:0], imgRows), uint64(ti))
			count := len(b) // the row count goes here once it is known
			b = append(b, 0, 0, 0, 0)
			n := 0
			for ; n < len(rows) && len(b) < imageChunk; n++ {
				for _, v := range rows[n] {
					b = AppendValue(b, v)
				}
			}
			binary.LittleEndian.PutUint32(b[count:], uint32(n))
			rows = rows[n:]
			err = writeFrame(bw, b)
		}
	}
	if err == nil {
		b = binary.AppendUvarint(append(b[:0], imgTrailer), uint64(len(db.order)))
		for _, name := range db.order {
			b = binary.AppendUvarint(b, uint64(len(db.tables[name].Rows)))
		}
		err = writeFrame(bw, b)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return fmt.Errorf("sqldb: save: %w", err)
	}
	return nil
}

func appendSchema(b []byte, t *Table) []byte {
	b = appendString(b, t.Name)
	b = binary.AppendUvarint(b, uint64(len(t.Cols)))
	for _, c := range t.Cols {
		b = appendString(b, c.Name)
		var flags byte // bit 0: NOT NULL
		if c.NotNull {
			flags = 1
		}
		b = append(b, byte(c.Type), flags)
	}
	b = appendStrings(b, t.PKCols)
	b = binary.AppendUvarint(b, uint64(len(t.FKs)))
	for _, fk := range t.FKs {
		b = appendStrings(b, fk.Cols)
		b = appendString(b, fk.RefTable)
		b = appendStrings(b, fk.RefCols)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Indexes)))
	for _, ix := range t.Indexes {
		b = appendString(b, ix.Name)
		b = appendStrings(b, ix.Cols)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// ErrNotImage is Load's error for a file that does not open with the
// image's header frame: some other file, or the one-gob-value image that
// builds before the framed one wrote and no build reads any more.
var ErrNotImage = errors.New("not a GOOFI v2 image")

// tableDTO is one table as the image holds it; Load builds the table.
type tableDTO struct {
	Name    string
	Cols    []Column
	PKCols  []string
	FKs     []ForeignKey
	Indexes []indexDTO // definitions only; contents rebuild on load
	Rows    [][]Value
}

type indexDTO struct {
	Name string
	Cols []string
}

// Load reads a database image produced by Save, replacing all contents.
func (db *DB) Load(r io.Reader) error {
	br := bufio.NewReaderSize(r, 2*imageChunk) // holds a rows frame whole
	if head, _ := br.Peek(walFrameHeader + len(imageMagic)); !bytes.HasSuffix(head, []byte(imageMagic)) {
		return fmt.Errorf("sqldb: load: %w", ErrNotImage)
	}
	epoch, tables, err := readImage(br)
	if err != nil {
		return fmt.Errorf("sqldb: load: %w", err)
	}
	byName := make(map[string]*Table, len(tables))
	order := make([]string, 0, len(tables))
	for _, td := range tables {
		if byName[td.Name] != nil {
			return fmt.Errorf("sqldb: load: table %s appears twice", td.Name)
		}
		t := &Table{Name: td.Name, Cols: td.Cols, PKCols: td.PKCols, FKs: td.FKs}
		// Keys CREATE TABLE would refuse do not load either: fkCheck and
		// referencers look every foreign key up by key.
		if _, err := t.colIndexes(t.PKCols); err != nil {
			return fmt.Errorf("sqldb: load table %s: %w", td.Name, err)
		}
		for _, fk := range t.FKs {
			if err := t.checkFK(fk, byName[fk.RefTable]); err != nil {
				return fmt.Errorf("sqldb: load table %s: %w", td.Name, err)
			}
		}
		for _, ixd := range td.Indexes {
			if err := t.addIndex(ixd.Name, ixd.Cols); err != nil {
				return fmt.Errorf("sqldb: load table %s: %w", td.Name, err)
			}
		}
		// The automatic FK indexes referencers looks rows up in: images
		// from before secondary indexes existed carry no definitions.
		if err := t.ensureFKIndexes(); err != nil {
			return fmt.Errorf("sqldb: load table %s: %w", td.Name, err)
		}
		// The rows go in after the definitions, so every index is
		// populated once, by rebuildIndex.
		t.Rows = td.Rows
		if err := t.rebuildIndex(); err != nil {
			return fmt.Errorf("sqldb: load table %s: %w", td.Name, err)
		}
		byName[td.Name] = t
		order = append(order, td.Name)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables = byName
	db.order = order
	db.epoch = epoch
	return nil
}

// readImage decodes a version 2 image. The rows of a frame are views into
// one flat value slice, sized by the frame's row count only after that
// count is known to fit the frame's payload — what is allocated follows
// the input read so far, never a number the input claims.
func readImage(r *bufio.Reader) (epoch uint64, tables []tableDTO, err error) {
	p, _, err := readFrame(r)
	if err != nil {
		return 0, nil, fmt.Errorf("header: %w", err)
	}
	p, ok := bytes.CutPrefix(p, []byte(imageMagic))
	if !ok {
		return 0, nil, errBadRecord("magic")
	}
	version, sz := binary.Uvarint(p)
	if sz <= 0 || version != fileVersion {
		return 0, nil, fmt.Errorf("unsupported version %d", version)
	}
	p = p[sz:]
	epoch, sz = binary.Uvarint(p)
	if sz <= 0 {
		return 0, nil, errBadRecord("epoch")
	}
	n, p, err := readCount(p[sz:])
	if err != nil {
		return 0, nil, err
	}
	tables = make([]tableDTO, n)
	for i := range tables {
		if tables[i], p, err = readSchema(p); err != nil {
			return 0, nil, err
		}
	}
	if len(p) != 0 {
		return 0, nil, errBadRecord("header: trailing bytes")
	}
	for {
		p, _, err := readFrame(r)
		if err != nil {
			return 0, nil, fmt.Errorf("image cut short: %w", err)
		}
		if len(p) > 0 && p[0] == imgTrailer {
			if err := checkTrailer(p[1:], tables); err != nil {
				return 0, nil, err
			}
			break
		}
		if len(p) == 0 || p[0] != imgRows {
			return 0, nil, errBadRecord("frame kind")
		}
		ti, sz := binary.Uvarint(p[1:])
		if sz <= 0 || ti >= uint64(len(tables)) {
			return 0, nil, errBadRecord("table number")
		}
		p = p[1+sz:]
		ncols := len(tables[ti].Cols)
		if len(p) < 4 || uint64(binary.LittleEndian.Uint32(p))*uint64(ncols) > uint64(len(p)-4) {
			return 0, nil, errBadRecord("row count")
		}
		nrows := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		vals := make([]Value, nrows*ncols)
		for i := range vals {
			if vals[i], p, err = ReadValue(p); err != nil {
				return 0, nil, err
			}
		}
		if len(p) != 0 {
			return 0, nil, errBadRecord("rows frame: trailing bytes")
		}
		for ; len(vals) > 0; vals = vals[ncols:] {
			tables[ti].Rows = append(tables[ti].Rows, vals[:ncols:ncols])
		}
	}
	return epoch, tables, nil
}

// checkTrailer compares the trailer's row counts with the rows decoded.
func checkTrailer(p []byte, tables []tableDTO) error {
	n, p, err := readCount(p)
	if err != nil || n != len(tables) {
		return errBadRecord("trailer")
	}
	for ti := range tables {
		want, sz := binary.Uvarint(p)
		if sz <= 0 {
			return errBadRecord("trailer")
		}
		p = p[sz:]
		if got := len(tables[ti].Rows); uint64(got) != want {
			return fmt.Errorf("table %s has %d rows, its trailer says %d", tables[ti].Name, got, want)
		}
	}
	if len(p) != 0 {
		return errBadRecord("trailer: trailing bytes")
	}
	return nil
}

func readSchema(p []byte) (td tableDTO, rest []byte, err error) {
	if td.Name, p, err = readString(p); err != nil {
		return td, nil, err
	}
	n, p, err := readCount(p)
	if err != nil {
		return td, nil, err
	}
	if n == 0 {
		return td, nil, fmt.Errorf("table %s has no columns", td.Name)
	}
	td.Cols = make([]Column, n)
	for i := range td.Cols {
		c := &td.Cols[i]
		if c.Name, p, err = readString(p); err != nil {
			return td, nil, err
		}
		// A column is INTEGER, TEXT or BLOB, and NOT NULL is its one flag.
		if k := Kind(p[0]); len(p) < 2 || k != KInt && k != KText && k != KBlob || p[1] > 1 {
			return td, nil, errBadRecord("column")
		}
		c.Type, c.NotNull = Kind(p[0]), p[1] == 1
		p = p[2:]
	}
	if td.PKCols, p, err = readStrings(p); err != nil {
		return td, nil, err
	}
	if n, p, err = readCount(p); err != nil {
		return td, nil, err
	}
	td.FKs = make([]ForeignKey, n)
	for i := range td.FKs {
		fk := &td.FKs[i]
		if fk.Cols, p, err = readStrings(p); err != nil {
			return td, nil, err
		}
		if fk.RefTable, p, err = readString(p); err != nil {
			return td, nil, err
		}
		if fk.RefCols, p, err = readStrings(p); err != nil {
			return td, nil, err
		}
	}
	if n, p, err = readCount(p); err != nil {
		return td, nil, err
	}
	td.Indexes = make([]indexDTO, n)
	for i := range td.Indexes {
		ix := &td.Indexes[i]
		if ix.Name, p, err = readString(p); err != nil {
			return td, nil, err
		}
		if ix.Cols, p, err = readStrings(p); err != nil {
			return td, nil, err
		}
	}
	return td, p, nil
}

func readStrings(p []byte) ([]string, []byte, error) {
	n, p, err := readCount(p)
	if err != nil || n == 0 {
		return nil, p, err
	}
	ss := make([]string, n)
	for i := range ss {
		if ss[i], p, err = readString(p); err != nil {
			return nil, nil, err
		}
	}
	return ss, p, nil
}

// SaveFile writes the database to a file, atomically via a temp file in
// the same directory.
func (db *DB) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".sqldb-*")
	if err != nil {
		return fmt.Errorf("sqldb: save file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := db.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sqldb: save file: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("sqldb: save file: %w", err)
	}
	return nil
}

// LoadFile reads a database image from a file.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("sqldb: load file: %w", err)
	}
	defer f.Close()
	return db.Load(f)
}

// OpenAt opens (or creates) a durable database backed by a snapshot file
// at path and a write-ahead log at path+".wal". Recovery runs on open:
// the snapshot is loaded, then the log — if its epoch matches the
// snapshot's — is replayed on top of it, with any torn tail from an
// interrupted write truncated away. Every later write statement is
// appended to the log, so the database loses at most the records since
// the last durability barrier on a crash, instead of everything since
// the last full save. A log record that does not parse fails the open with
// ErrUnparsableRecord.
func OpenAt(path string, policy SyncPolicy) (*DB, error) {
	db := Open()
	if _, err := os.Stat(path); err == nil {
		if err := db.LoadFile(path); err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("sqldb: open %s: %w", path, err)
	}
	_, statErr := os.Stat(WALPath(path))
	f, err := os.OpenFile(WALPath(path), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sqldb: open wal: %w", err)
	}
	// Replay before attaching the WAL: replayed statements re-execute
	// through Exec and must not be logged a second time.
	applied, good, err := db.replayWAL(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("sqldb: truncate wal tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("sqldb: open wal: %w", err)
	}
	wal := &WAL{bw: bufio.NewWriterSize(f, 32<<10), f: f, policy: policy}
	if good == 0 {
		// Empty or stale log: start a fresh one for the current epoch.
		wal.writeFrame(encodeEpochPayload(nil, db.epoch))
		wal.syncLocked()
		// A log file this open created is durable once its directory
		// entry is, under the same policy as its contents.
		if wal.err == nil && errors.Is(statErr, os.ErrNotExist) && policy != SyncNever {
			if err := syncDir(filepath.Dir(path)); err != nil {
				wal.err = fmt.Errorf("sqldb: open wal: %w", err)
			}
		}
		if wal.err != nil {
			f.Close()
			return nil, wal.err
		}
	}
	db.mu.Lock()
	db.wal = wal
	db.snapPath = path
	// Statements replayed from the log are ahead of the snapshot, so the
	// database opens dirty and the next checkpoint folds them in.
	db.dirty = applied > 0
	db.mu.Unlock()
	return db, nil
}

// Checkpoint compacts the log into the snapshot: the full image is
// written atomically (temp file + fsync + rename + directory fsync) with
// the next epoch, then the log is reset to that epoch. A crash between the
// two steps is safe — the snapshot's epoch no longer matches the old log,
// so recovery loads the snapshot (which already contains every logged
// record) and discards the log. The directory fsync keeps the steps in
// that order on disk: a log reset that outlived a lost rename would stand
// beside the previous snapshot, whose epoch it does not match either, and
// recovery would drop it with nothing holding its records.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil || db.snapPath == "" {
		return fmt.Errorf("sqldb: checkpoint: database has no backing file (use OpenAt)")
	}
	next := db.epoch + 1
	tmp, err := os.CreateTemp(filepath.Dir(db.snapPath), ".sqldb-*")
	if err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := db.saveLocked(tmp, next); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), db.snapPath); err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(db.snapPath)); err != nil {
		return fmt.Errorf("sqldb: checkpoint: %w", err)
	}
	if err := db.wal.Reset(next); err != nil {
		return err
	}
	db.epoch = next
	db.dirty = false
	mCompactions.Inc()
	return nil
}

// Dirty reports whether write statements reached the WAL since the last
// Checkpoint (including statements replayed from the log on open). A
// clean database needs no compaction: its snapshot already holds
// everything in memory.
func (db *DB) Dirty() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dirty
}

// Close flushes and closes the write-ahead log. In-memory databases
// (plain Open) close trivially.
func (db *DB) Close() error {
	db.mu.Lock()
	w := db.wal
	db.wal = nil
	db.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}

// syncDir fsyncs a directory, which is what makes a file created in it or
// renamed into it survive a power cut.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
