package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"goofi/internal/campaign"
	"goofi/internal/sqldb"
)

// frameFixtures are reports as a worker builds them: rows straight out of
// EncodeRow — an end row with scan, memory and output state, a detail
// group with its step rows parented to it, the reference — and the two
// shapes without rows.
func frameFixtures() []*ReportRequest {
	end := func(seq int) *campaign.ExperimentRecord {
		rec := &campaign.ExperimentRecord{
			Name: campaign.ExperimentName("fix", seq), Campaign: "fix", Step: -1,
			Data: campaign.ExperimentData{Seq: seq, Injected: true, LocationNames: []string{"cpu.r3"},
				Outcome: campaign.Outcome{Status: campaign.OutcomeDetected, Mechanism: "parity", Cycles: 1723}},
			State: campaign.StateVector{Scan: []byte{0xde, 0xad, 0xbe, 0xef},
				Memory:  map[string][]byte{"sorted": {1, 2, 3, 4}},
				Outputs: map[uint16][]uint32{1: {7, 8, 9}}},
		}
		rec.Data.Fault.Bits = []int{seq + 3}
		return rec
	}
	step := func(parent *campaign.ExperimentRecord, i int) *campaign.ExperimentRecord {
		return &campaign.ExperimentRecord{
			Name: parent.Name + "/step", Parent: parent.Name, Campaign: "fix", Step: i,
			State: campaign.StateVector{Scan: []byte{byte(i)}},
		}
	}
	rows := func(recs ...*campaign.ExperimentRecord) []campaign.Row {
		out := make([]campaign.Row, len(recs))
		for i, rec := range recs {
			out[i] = mustRow(rec)
		}
		return out
	}
	ref := end(-1)
	ref.Name = campaign.ReferenceName("fix")
	group := end(2)
	return []*ReportRequest{
		{Worker: "w0", LeaseID: "l0001", Delivery: "w0/l0001/1", Rows: rows(ref, end(0), end(1))},
		{Worker: "w1", LeaseID: "l0002", Delivery: "w1/l0002/7", Final: true,
			Rows: rows(step(group, 0), step(group, 1), group)},
		{Worker: "w0", LeaseID: "l0001", Final: true},
		{},
	}
}

// TestReportFrameRoundTrip: what is decoded is what was encoded, the
// blobs the very bytes, and encoding it again gives the same frame bit
// for bit.
func TestReportFrameRoundTrip(t *testing.T) {
	for i, req := range frameFixtures() {
		frame := EncodeReport(req)
		got, err := DecodeReport(append([]byte(nil), frame...))
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if len(got.Rows) == 0 {
			got.Rows = nil
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("fixture %d decoded as\n%+v\nwant\n%+v", i, got, req)
		}
		if again := EncodeReport(got); !bytes.Equal(again, frame) {
			t.Fatalf("fixture %d: the frame changed across decode and encode", i)
		}
	}
}

// TestReportFrameRejectsDamage: every proper prefix of a frame and every
// single flipped bit is refused — by the length, the checksum or a value
// check — and as ErrBadFrame, which the daemon answers with a 400.
func TestReportFrameRejectsDamage(t *testing.T) {
	for i, req := range frameFixtures() {
		frame := EncodeReport(req)
		for n := 0; n < len(frame); n++ {
			if _, err := DecodeReport(frame[:n:n]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("fixture %d: the %d-byte prefix of a %d-byte frame decoded with %v", i, n, len(frame), err)
			}
		}
		for bit := 0; bit < 8*len(frame); bit++ {
			damaged := append([]byte(nil), frame...)
			damaged[bit/8] ^= 1 << (bit % 8)
			if _, err := DecodeReport(damaged); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("fixture %d: bit %d flipped, decoded with %v", i, bit, err)
			}
		}
	}
}

// sealFrame wraps a payload in a valid envelope, as an attacker who can
// compute a checksum would.
func sealFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

func reportHeader(version, rows int64) []byte {
	var p []byte
	for _, v := range []sqldb.Value{sqldb.Int(version), sqldb.Text("w"), sqldb.Text("l"), sqldb.Text("d"),
		sqldb.Int(0), sqldb.Int(rows)} {
		p = sqldb.AppendValue(p, v)
	}
	return p
}

// TestReportFrameHostileContents: a well-sealed frame is still refused
// when it is another version's (ErrProtocol, so the worker is told to
// upgrade, not to retry), when a row holds a value of the wrong kind, and
// when its row count is beyond what its bytes could hold — before
// anything is allocated for that count.
func TestReportFrameHostileContents(t *testing.T) {
	if _, err := DecodeReport(sealFrame(reportHeader(ProtocolVersion+1, 0))); !errors.Is(err, ErrProtocol) {
		t.Fatalf("a version %d frame decoded with %v, want ErrProtocol", ProtocolVersion+1, err)
	}
	wrongKind := reportHeader(ProtocolVersion, 1)
	for _, v := range []sqldb.Value{sqldb.Int(0), sqldb.Text("fix/exp00000"), sqldb.Null(), sqldb.Text("fix"),
		sqldb.Text("-1"), sqldb.Blob([]byte("{}")), sqldb.Blob([]byte("{}"))} {
		wrongKind = sqldb.AppendValue(wrongKind, v)
	}
	if _, err := DecodeReport(sealFrame(wrongKind)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("a TEXT step column decoded with %v", err)
	}
	huge := sealFrame(append(reportHeader(ProtocolVersion, 1<<40), make([]byte, 64)...))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeReport(huge)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("a count of 2^40 rows decoded with %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Fatalf("%d bytes allocated for a %d-byte frame claiming 2^40 rows", grew, len(huge))
	}
}

// FuzzDecodeReport feeds the coordinator's side of the byte boundary
// arbitrary bodies — as they are, which mostly exercises the envelope,
// and sealed as a payload with a valid length and checksum, which gets
// the mutator past it to the values. The answer is an error or
// well-formed rows — six values of the column kinds each — never a panic,
// and whatever was accepted encodes to a frame that decodes to the same
// thing and encodes to the same bytes.
func FuzzDecodeReport(f *testing.F) {
	for _, req := range frameFixtures() {
		frame := EncodeReport(req)
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
		f.Add(frame[4 : len(frame)-4]) // the payload
		f.Add(frame[4 : len(frame)-5]) // cut inside its last value
	}
	f.Add(reportHeader(ProtocolVersion, 1<<40))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, sealFrame(data))
	})
}

func checkDecode(t *testing.T, body []byte) {
	req, err := DecodeReport(body)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrProtocol) {
			t.Fatalf("an error outside the two the daemon maps: %v", err)
		}
		return
	}
	if len(req.Rows)*minRowBytes > len(body) {
		t.Fatalf("%d rows out of %d bytes", len(req.Rows), len(body))
	}
	for i := range req.Rows {
		for c, v := range req.Rows[i].Cols {
			if v.K != rowKinds[c] && !(c == 1 && v.K == sqldb.KNull) {
				t.Fatalf("row %d column %d came back as %v", i, c, v.K)
			}
		}
	}
	frame := EncodeReport(req)
	back, err := DecodeReport(append([]byte(nil), frame...))
	if err != nil {
		t.Fatalf("encoded, then did not decode: %v", err)
	}
	if !bytes.Equal(EncodeReport(back), frame) {
		t.Fatal("a frame changed across decode and encode")
	}
}
