package sqldb

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// SyncPolicy selects when the write-ahead log reaches stable storage.
type SyncPolicy uint8

const (
	// SyncBarrier buffers appends and fsyncs only at explicit barriers
	// (DB.Barrier, Checkpoint, Close). Records written since the last
	// barrier may be lost in a crash, but a completed barrier guarantees
	// everything before it. This is the default: the campaign layer
	// places barriers at its own checkpoints.
	SyncBarrier SyncPolicy = iota
	// SyncAlways flushes and fsyncs after every record.
	SyncAlways
	// SyncNever buffers appends and never fsyncs; barriers still flush
	// to the OS. Durability is left to the kernel (tests, benchmarks).
	SyncNever
)

// Framing, shared by the log and the snapshot image (persist.go): every
// record is
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE of payload | payload
//
// and the payload starts with a record-kind byte. The first record of a
// log is always an epoch record; replay treats any malformed, truncated
// or CRC-mismatched frame as the torn tail of an interrupted write and
// stops there.
const (
	walFrameHeader = 8
	// maxWALRecord bounds a frame's payload; a corrupt length field must
	// not trigger an arbitrarily large allocation.
	maxWALRecord = 64 << 20

	recEpoch byte = 0 // uvarint epoch; guards replay against a newer snapshot
	recStmt  byte = 1 // uvarint len + SQL, uvarint nargs, encoded args
)

// WAL is an append-only statement log. The database appends one record
// per write statement (under its own lock, so log order equals apply
// order); replaying the records onto the snapshot the log was opened
// against reproduces the exact database state, because statement
// execution is deterministic.
//
// The first write error poisons the log: every later Append returns it,
// so a campaign cannot silently keep running on a dead log.
type WAL struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	f      *os.File // non-nil when backed by a file; enables fsync and Reset
	policy SyncPolicy
	err    error
	buf    []byte // payload scratch, reused across appends
}

// NewWAL starts a fresh log on w (epoch 0 header included) with the
// given sync policy. When w is an *os.File, barriers fsync it. Logs that
// resume an existing file are opened by OpenAt instead.
func NewWAL(w io.Writer, policy SyncPolicy) *WAL {
	wal := &WAL{bw: bufio.NewWriterSize(w, 32<<10), policy: policy}
	if f, ok := w.(*os.File); ok {
		wal.f = f
	}
	wal.writeFrame(encodeEpochPayload(nil, 0))
	return wal
}

// Append logs one statement. Safe for concurrent use, though the
// database already serialises writers.
func (w *WAL) Append(sql string, args []Value) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.buf = encodeStmtPayload(w.buf[:0], sql, args)
	w.writeFrame(w.buf)
	if w.err == nil && w.policy == SyncAlways {
		w.syncLocked()
	}
	return w.err
}

// Sync is a durability barrier: it flushes buffered records and, for
// file-backed logs (unless SyncNever), fsyncs.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	return w.err
}

// Reset discards the log and starts a new one for the given epoch; the
// snapshot that made the old records redundant has already been written.
// Only file-backed logs can truncate; for others Reset just starts a new
// epoch in the stream.
func (w *WAL) Reset(epoch uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f != nil {
		w.bw.Reset(w.f)
		if err := w.f.Truncate(0); err != nil {
			w.err = fmt.Errorf("sqldb: wal reset: %w", err)
			return w.err
		}
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			w.err = fmt.Errorf("sqldb: wal reset: %w", err)
			return w.err
		}
	}
	w.writeFrame(encodeEpochPayload(nil, epoch))
	w.syncLocked()
	return w.err
}

// Close flushes, fsyncs and closes a file-backed log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.syncLocked()
	if w.f != nil {
		if err := w.f.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("sqldb: wal close: %w", err)
		}
		w.f = nil
	}
	return w.err
}

func (w *WAL) writeFrame(payload []byte) {
	if w.err != nil {
		return
	}
	if err := writeFrame(w.bw, payload); err != nil {
		w.err = fmt.Errorf("sqldb: wal append: %w", err)
		return
	}
	mWALRecords.Inc()
	mWALBytes.Add(uint64(walFrameHeader + len(payload)))
}

// writeFrame writes one frame. A payload readFrame would refuse is an
// error here, not an unreadable record later. The header is put together
// in w's own free space, so that writing it allocates nothing.
func writeFrame(w *bufio.Writer, payload []byte) error {
	if len(payload) > maxWALRecord {
		return fmt.Errorf("record of %d bytes exceeds the %d-byte frame limit", len(payload), maxWALRecord)
	}
	hdr := binary.LittleEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func (w *WAL) syncLocked() {
	if w.err != nil {
		return
	}
	mWALBarriers.Inc()
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("sqldb: wal flush: %w", err)
		return
	}
	if w.f != nil && w.policy != SyncNever {
		if err := w.f.Sync(); err != nil {
			w.err = fmt.Errorf("sqldb: wal sync: %w", err)
		}
	}
}

// encodeEpochPayload appends an epoch record payload.
func encodeEpochPayload(b []byte, epoch uint64) []byte {
	b = append(b, recEpoch)
	return binary.AppendUvarint(b, epoch)
}

// encodeStmtPayload appends a statement record payload: the SQL text and
// its parameter values.
func encodeStmtPayload(b []byte, sql string, args []Value) []byte {
	b = append(b, recStmt)
	b = appendString(b, sql)
	b = binary.AppendUvarint(b, uint64(len(args)))
	for _, v := range args {
		b = AppendValue(b, v)
	}
	return b
}

func decodeStmtPayload(p []byte) (sql string, args []Value, err error) {
	if len(p) == 0 || p[0] != recStmt {
		return "", nil, errBadRecord("kind")
	}
	sql, p, err = readString(p[1:])
	if err != nil {
		return "", nil, err
	}
	nargs, p, err := readCount(p)
	if err != nil {
		return "", nil, err
	}
	args = make([]Value, nargs)
	for i := range args {
		if args[i], p, err = ReadValue(p); err != nil {
			return "", nil, err
		}
	}
	if len(p) != 0 {
		return "", nil, errBadRecord("trailing bytes")
	}
	return sql, args, nil
}

// AppendValue and ReadValue are the one value codec of the log, the
// snapshot image and the shard report frame. Values use the same kinds as
// the engine: a kind byte followed by varint (INTEGER), 8-byte LE float
// bits (REAL), or a uvarint-length-prefixed byte string (TEXT, BLOB);
// NULL is bare.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case KInt:
		b = binary.AppendVarint(b, v.I)
	case KReal:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.I))
	case KText:
		b = appendString(b, v.S)
	case KBlob:
		b = binary.AppendUvarint(b, uint64(len(v.B)))
		b = append(b, v.B...)
	}
	return b
}

// ReadValue decodes one value from the front of p and returns the rest.
// A BLOB aliases p, capacity clipped, instead of copying it: the caller
// must hand over a payload it will not reuse.
func ReadValue(p []byte) (Value, []byte, error) {
	if len(p) == 0 {
		return Value{}, nil, errBadRecord("value kind")
	}
	k := Kind(p[0])
	p = p[1:]
	switch k {
	case KNull:
		return Null(), p, nil
	case KInt:
		iv, sz := binary.Varint(p)
		if sz <= 0 {
			return Value{}, nil, errBadRecord("integer")
		}
		return Int(iv), p[sz:], nil
	case KReal:
		if len(p) < 8 {
			return Value{}, nil, errBadRecord("real")
		}
		return Value{K: KReal, I: int64(binary.LittleEndian.Uint64(p))}, p[8:], nil
	case KText, KBlob:
		data, rest, err := readBytes(p)
		if err != nil {
			return Value{}, nil, err
		}
		if k == KText {
			return Text(string(data)), rest, nil
		}
		return Blob(data[:len(data):len(data)]), rest, nil
	}
	return Value{}, nil, errBadRecord("value kind")
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readBytes(p []byte) (data, rest []byte, err error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || uint64(len(p)-sz) < n {
		return nil, nil, errBadRecord("byte string length")
	}
	return p[sz : sz+int(n)], p[sz+int(n):], nil
}

func readString(p []byte) (string, []byte, error) {
	data, rest, err := readBytes(p)
	return string(data), rest, err
}

// readCount reads the uvarint count of items that follow it in p. Every
// item takes at least one byte, so a count beyond what is left of p is
// corrupt — and what is allocated for the items stays bounded by the
// input, whatever the count claims.
func readCount(p []byte) (int, []byte, error) {
	n, sz := binary.Uvarint(p)
	if sz <= 0 || n > uint64(len(p)-sz) {
		return 0, nil, errBadRecord("count")
	}
	return int(n), p[sz:], nil
}

func errBadRecord(what string) error { return fmt.Errorf("sqldb: corrupt record: bad %s", what) }

// readFrame reads one frame from r into a payload of its own (decoded
// BLOBs alias it). A clean EOF at a frame boundary returns io.EOF; any
// truncation, oversize length or CRC mismatch returns errTornFrame — both
// end replay, silently truncating the tail.
func readFrame(r *bufio.Reader) (payload []byte, frameLen int64, err error) {
	var hdr [walFrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errTornFrame
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxWALRecord {
		return nil, 0, errTornFrame
	}
	// A frame the reader's buffer holds is copied out of it, which unlike
	// reading into a new slice clears nothing first. A longer one is read
	// as it arrives, so a corrupt length field costs no more memory than
	// the input behind it.
	var buf []byte
	if int(n) <= r.Size() {
		var view []byte
		if view, err = r.Peek(int(n)); err == nil {
			buf = bytes.Clone(view)
			_, err = r.Discard(int(n))
		}
	} else {
		buf, err = io.ReadAll(io.LimitReader(r, int64(n)))
	}
	if err != nil || uint32(len(buf)) != n {
		return nil, 0, errTornFrame
	}
	if crc32.ChecksumIEEE(buf) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, 0, errTornFrame
	}
	return buf, int64(walFrameHeader) + int64(n), nil
}

var errTornFrame = fmt.Errorf("sqldb: wal: torn or corrupt frame")

// ErrUnparsableRecord is replay's error for a logged statement that does
// not parse. The log holds only statements that parsed when they ran, so
// such a record was written by a build whose SQL this one does not speak:
// the log is refused rather than cut short at that record.
var ErrUnparsableRecord = errors.New("sqldb: wal: logged statement does not parse")

// replayWAL re-executes the statement records in r onto the database.
// It returns how many statements were applied and the byte offset of the
// last intact frame — the caller truncates the file there to drop a torn
// tail. A log whose epoch record does not match the database's epoch is
// stale (it predates the loaded snapshot, which already contains its
// effects) and is discarded wholesale (good == 0).
//
// A record that does not parse is ErrUnparsableRecord. Execution errors
// are ignored: records are appended after execution, so a logged statement
// that failed (or partially applied) at runtime fails (or partially
// applies) identically on replay — execution is deterministic, and replay
// must reproduce the original state, including the effects of statements
// that errored midway.
func (db *DB) replayWAL(r io.Reader) (applied int, good int64, err error) {
	br := bufio.NewReader(r)
	payload, frameLen, ferr := readFrame(br)
	if ferr != nil {
		return 0, 0, nil // empty or unreadable header: start a fresh log
	}
	if len(payload) < 1 || payload[0] != recEpoch {
		return 0, 0, nil
	}
	epoch, sz := binary.Uvarint(payload[1:])
	if sz <= 0 || epoch != db.epoch {
		return 0, 0, nil // stale log from before the current snapshot
	}
	good = frameLen
	for {
		payload, frameLen, ferr = readFrame(br)
		if ferr != nil {
			return applied, good, nil // clean EOF or torn tail
		}
		sql, args, derr := decodeStmtPayload(payload)
		if derr != nil {
			return applied, good, nil // undecodable despite CRC: treat as tail
		}
		st, perr := db.parseCached(sql)
		if perr != nil {
			return applied, good, fmt.Errorf("%w: record %d at byte %d: %v", ErrUnparsableRecord, applied+1, good, perr)
		}
		_, _ = db.execStmt(sql, st, args)
		applied++
		good += frameLen
	}
}

// ReplayWAL applies a WAL stream onto the database, for tests and
// recovery tooling; OpenAt performs replay automatically. It returns the
// number of statements applied, and ErrUnparsableRecord for a record this
// build cannot parse. The stream's epoch record must match the database's
// current epoch or the stream is discarded (returns 0).
func (db *DB) ReplayWAL(r io.Reader) (int, error) {
	applied, _, err := db.replayWAL(r)
	return applied, err
}

// AttachWAL starts logging every write statement to w. Replay of a
// previously written log must happen before attaching, or the replayed
// statements would be logged again.
func (db *DB) AttachWAL(w *WAL) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.wal = w
}

// WALPath returns the write-ahead log path used for a database file.
func WALPath(path string) string { return path + ".wal" }

// Barrier is a durability barrier: everything logged so far reaches
// stable storage before it returns. Without an attached WAL it is a
// no-op, preserving the pure in-memory mode.
func (db *DB) Barrier() error {
	db.mu.RLock()
	w := db.wal
	db.mu.RUnlock()
	if w == nil {
		return nil
	}
	return w.Sync()
}

// logStmt appends a write statement to the WAL. Called with db.mu held,
// so the log order is exactly the apply order.
func (db *DB) logStmt(sql string, args []Value) error {
	if db.wal == nil {
		return nil
	}
	db.dirty = true
	return db.wal.Append(sql, args)
}
