package shard

// The report frame: the body of a `report` POST. A report moves rows the
// worker logged into the coordinator's store, so the frame carries each
// row's six column values as they will be inserted there — the two JSON
// blobs are encoded once per experiment, on the worker, and never parsed
// or rebuilt on the way to the merged store.
//
//	frame   = length payload crc
//	length  = uint32 LE, len(payload)
//	crc     = uint32 LE, CRC-32 (IEEE) of payload
//	payload = Int(ProtocolVersion) Text(worker) Text(leaseID)
//	          Text(delivery) Int(final: 0 or 1) Int(n) row*n
//	row     = Int(seq) Text(experimentName) Null|Text(parentExperiment)
//	          Text(campaignName) Int(step) Blob(experimentData)
//	          Blob(stateVector)
//
// Every field is a value in sqldb's one value codec (AppendValue and
// ReadValue, shared with the WAL and the snapshot image). The length says
// where the frame ends before anything is parsed; the checksum rejects a
// body damaged or cut on the wire.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"goofi/internal/campaign"
	"goofi/internal/sqldb"
)

// frameOverhead is the length prefix plus the checksum trailer.
const frameOverhead = 8

// minRowBytes is the least a row can take in a payload: seven values of
// at least a kind byte each, all but the NULL-able parent with one more
// byte of integer or length. A row count is checked against it, so what
// is allocated for the rows is bounded by the size of the body.
const minRowBytes = 13

// rowKinds are the value kinds of a LoggedSystemState row, in column
// order; parentExperiment may be NULL instead.
var rowKinds = [6]sqldb.Kind{sqldb.KText, sqldb.KText, sqldb.KText, sqldb.KInt, sqldb.KBlob, sqldb.KBlob}

// ErrBadFrame rejects a report body that is not a well-formed frame.
var ErrBadFrame = errors.New("shard: bad report frame")

func badFrame(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrBadFrame}, args...)...)
}

// EncodeReport returns the frame of a report.
func EncodeReport(req *ReportRequest) []byte {
	size := frameOverhead + 64 + len(req.Worker) + len(req.LeaseID) + len(req.Delivery)
	for i := range req.Rows {
		c := &req.Rows[i].Cols
		size += 48 + len(c[0].S) + len(c[1].S) + len(c[2].S) + len(c[4].B) + len(c[5].B)
	}
	b := make([]byte, 4, size)
	b = sqldb.AppendValue(b, sqldb.Int(ProtocolVersion))
	b = sqldb.AppendValue(b, sqldb.Text(req.Worker))
	b = sqldb.AppendValue(b, sqldb.Text(req.LeaseID))
	b = sqldb.AppendValue(b, sqldb.Text(req.Delivery))
	b = sqldb.AppendValue(b, sqldb.Bool(req.Final))
	b = sqldb.AppendValue(b, sqldb.Int(int64(len(req.Rows))))
	for i := range req.Rows {
		b = sqldb.AppendValue(b, sqldb.Int(int64(req.Rows[i].Seq)))
		for _, v := range req.Rows[i].Cols {
			b = sqldb.AppendValue(b, v)
		}
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
}

// DecodeReport parses a report frame. The rows' blobs alias body: the
// caller hands it over. Any damage — a short or long body, a checksum
// mismatch, a value of the wrong kind, a count the body cannot hold — is
// ErrBadFrame; another protocol version is ErrProtocol.
func DecodeReport(body []byte) (*ReportRequest, error) {
	if len(body) < frameOverhead {
		return nil, badFrame("%d bytes are shorter than the envelope", len(body))
	}
	if n := binary.LittleEndian.Uint32(body); uint64(n) != uint64(len(body)-frameOverhead) {
		return nil, badFrame("a %d-byte payload declared in a %d-byte body", n, len(body))
	}
	p := body[4 : len(body)-4]
	if sum := binary.LittleEndian.Uint32(body[len(body)-4:]); sum != crc32.ChecksumIEEE(p) {
		return nil, badFrame("checksum mismatch")
	}
	d := frameDecoder{p: p}
	if v := d.int(); d.err == nil && v != ProtocolVersion {
		return nil, fmt.Errorf("%w: report frame is version %d, this coordinator speaks %d", ErrProtocol, v, ProtocolVersion)
	}
	req := &ReportRequest{Worker: d.text(), LeaseID: d.text(), Delivery: d.text()}
	final, n := d.int(), d.int()
	if d.err != nil {
		return nil, d.err
	}
	if final != 0 && final != 1 {
		return nil, badFrame("final flag %d", final)
	}
	req.Final = final == 1
	if n < 0 || n > int64(len(d.p)/minRowBytes) {
		return nil, badFrame("%d rows in %d bytes", n, len(d.p))
	}
	req.Rows = make([]campaign.Row, n)
	for i := range req.Rows {
		row := &req.Rows[i]
		row.Seq = int(d.int())
		for c := range row.Cols {
			v := d.value()
			if d.err == nil && v.K != rowKinds[c] && !(c == 1 && v.K == sqldb.KNull) {
				d.err = badFrame("row %d column %d is %v", i, c, v.K)
			}
			row.Cols[c] = v
		}
		if d.err != nil {
			return nil, d.err
		}
	}
	if len(d.p) != 0 {
		return nil, badFrame("%d bytes after the last row", len(d.p))
	}
	return req, nil
}

// frameDecoder reads values off the front of a payload; the first failure
// sticks and later reads return zero values.
type frameDecoder struct {
	p   []byte
	err error
}

func (d *frameDecoder) value() sqldb.Value {
	if d.err != nil {
		return sqldb.Value{}
	}
	v, rest, err := sqldb.ReadValue(d.p)
	if err != nil {
		d.err = badFrame("%v", err)
		return sqldb.Value{}
	}
	d.p = rest
	return v
}

func (d *frameDecoder) kind(k sqldb.Kind) sqldb.Value {
	v := d.value()
	if d.err == nil && v.K != k {
		d.err = badFrame("%v where %v belongs", v.K, k)
	}
	return v
}

func (d *frameDecoder) int() int64   { return d.kind(sqldb.KInt).I }
func (d *frameDecoder) text() string { return d.kind(sqldb.KText).S }
