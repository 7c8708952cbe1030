package campaign

import (
	"cmp"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"slices"
	"strconv"

	"goofi/internal/bitvec"
	"goofi/internal/trigger"
)

// This file writes the two BLOBs of every LoggedSystemState insert —
// experimentData and stateVector — appending directly into one buffer.
//
// experimentData is plain JSON that json.Unmarshal reads back; appending
// by hand avoids the reflection walk that dominated the insert profile.
// Field names and omitempty behaviour must mirror the struct tags; the
// equivalence property test in codec_test.go enforces that against
// encoding/json. What the appenders emit is also the canonical form
// decode.go parses without reflection — key order, no whitespace, integers
// as strconv writes them, sorted map keys — so a change to the bytes
// written here sends every row to that file's encoding/json fallback until
// its parser follows (TestDecodeMatchesEncodingJSON counts the fallbacks).
//
// stateVector has two forms, told apart by the first byte. A blob that
// starts with '{' is the absolute form: the same hand-appended JSON, the
// whole state, and the only form builds before this one wrote. A blob that
// starts with tagRelative is the state as its difference from the
// campaign's reference run, which is what an injected run is — the
// reference plus a small deviation:
//
//	blob   = 0x01 sum scan memory outputs
//	sum    = CRC-32 (IEEE) of the reference state's absolute blob, 4 bytes LE
//	scan   = { gap } 0          bit positions (8*byte + bit, LSB first) where
//	                            Scan differs from the reference's, ascending
//	memory = { gap value } 0    the symbols whose bytes differ, by index in
//	                            the reference's sorted symbol list
//	outputs= { gap value } 0    the ports whose values differ, likewise
//	value  = 0x00 { gap elem } 0   same length: the elements that differ
//	       | 0x01 len { elem }     the whole value
//	       | 0x02                  nil
//	       | 0x03                  the state has no such symbol or port (a
//	                               run ended by a detection emits nothing)
//
// Every integer is a uvarint. A gap is the distance from the previous
// position (from -1 for the first), so it is at least 1, positions ascend
// strictly by construction and the 0 that ends a list cannot be one. elem
// is a byte for memory and a uvarint for outputs. The form needs a Scan of
// the reference's length and no symbol or port the reference lacks; a row
// that differs there, and every row EncodeRow is not handed a reference
// for, stays absolute (EncodeRow lists them).

// tagRelative opens a stateVector blob in the relative form.
const tagRelative = 0x01

// The value modes of the relative form.
const (
	valuePatch = iota
	valueWhole
	valueNil
	valueAbsent
)

const jsonHex = "0123456789abcdef"

// appendJSONString appends a JSON-quoted string. Control characters are
// escaped; valid UTF-8 passes through unescaped, which json.Unmarshal
// accepts.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		buf = append(buf, s[start:i]...)
		switch c {
		case '"':
			buf = append(buf, '\\', '"')
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		case '\r':
			buf = append(buf, '\\', 'r')
		case '\t':
			buf = append(buf, '\\', 't')
		default:
			buf = append(buf, '\\', 'u', '0', '0', jsonHex[c>>4], jsonHex[c&0xf])
		}
		start = i + 1
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// appendJSONBytes appends a []byte the way encoding/json does: base64 in
// a string, or null for a nil slice.
func appendJSONBytes(buf []byte, b []byte) []byte {
	if b == nil {
		return append(buf, "null"...)
	}
	buf = append(buf, '"')
	buf = base64.StdEncoding.AppendEncode(buf, b)
	return append(buf, '"')
}

func appendTriggerSpec(buf []byte, s *trigger.Spec) []byte {
	buf = append(buf, `{"kind":`...)
	buf = appendJSONString(buf, s.Kind)
	if s.Cycle != 0 {
		buf = append(buf, `,"cycle":`...)
		buf = strconv.AppendUint(buf, s.Cycle, 10)
	}
	if s.Count != 0 {
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendUint(buf, s.Count, 10)
	}
	if s.Addr != 0 {
		buf = append(buf, `,"addr":`...)
		buf = strconv.AppendUint(buf, uint64(s.Addr), 10)
	}
	if s.Occurrence != 0 {
		buf = append(buf, `,"occurrence":`...)
		buf = strconv.AppendInt(buf, int64(s.Occurrence), 10)
	}
	if s.Write {
		buf = append(buf, `,"write":true`...)
	}
	if s.Period != 0 {
		buf = append(buf, `,"period":`...)
		buf = strconv.AppendUint(buf, s.Period, 10)
	}
	return append(buf, '}')
}

func appendOutcome(buf []byte, o *Outcome) []byte {
	buf = append(buf, `{"status":`...)
	buf = appendJSONString(buf, string(o.Status))
	if o.Mechanism != "" {
		buf = append(buf, `,"mechanism":`...)
		buf = appendJSONString(buf, o.Mechanism)
	}
	if o.DetectionCycle != 0 {
		buf = append(buf, `,"detectionCycle":`...)
		buf = strconv.AppendUint(buf, o.DetectionCycle, 10)
	}
	buf = append(buf, `,"cycles":`...)
	buf = strconv.AppendUint(buf, o.Cycles, 10)
	if o.Iterations != 0 {
		buf = append(buf, `,"iterations":`...)
		buf = strconv.AppendInt(buf, int64(o.Iterations), 10)
	}
	if o.Recovered != 0 {
		buf = append(buf, `,"recovered":`...)
		buf = strconv.AppendInt(buf, int64(o.Recovered), 10)
	}
	if o.Attempts != 0 {
		buf = append(buf, `,"attempts":`...)
		buf = strconv.AppendInt(buf, int64(o.Attempts), 10)
	}
	if o.HarnessError != "" {
		buf = append(buf, `,"harnessError":`...)
		buf = appendJSONString(buf, o.HarnessError)
	}
	return append(buf, '}')
}

// appendJSON encodes an ExperimentData as its json.Marshal equivalent.
func (d *ExperimentData) appendJSON(buf []byte) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendInt(buf, int64(d.Seq), 10)
	buf = append(buf, `,"fault":{"kind":`...)
	buf = appendJSONString(buf, string(d.Fault.Kind))
	buf = append(buf, `,"bits":`...)
	if d.Fault.Bits == nil {
		buf = append(buf, "null"...)
	} else {
		buf = append(buf, '[')
		for i, b := range d.Fault.Bits {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(b), 10)
		}
		buf = append(buf, ']')
	}
	if d.Fault.ActiveProb != 0 {
		buf = append(buf, `,"activeProb":`...)
		buf = strconv.AppendFloat(buf, d.Fault.ActiveProb, 'g', -1, 64)
	}
	buf = append(buf, '}')
	if len(d.LocationNames) > 0 {
		buf = append(buf, `,"locationNames":[`...)
		for i, n := range d.LocationNames {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, n)
		}
		buf = append(buf, ']')
	}
	buf = append(buf, `,"trigger":`...)
	buf = appendTriggerSpec(buf, &d.Trigger)
	if d.InjectionCycle != 0 {
		buf = append(buf, `,"injectionCycle":`...)
		buf = strconv.AppendUint(buf, d.InjectionCycle, 10)
	}
	buf = append(buf, `,"injected":`...)
	buf = strconv.AppendBool(buf, d.Injected)
	buf = append(buf, `,"outcome":`...)
	buf = appendOutcome(buf, &d.Outcome)
	return append(buf, '}')
}

// sortedKeys returns a map's keys in ascending order: the order the JSON
// form writes Memory's symbols and Outputs' ports in, and the relative form
// indexes them by.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendJSON encodes a StateVector as its json.Marshal equivalent. Map
// keys are emitted in sorted order like encoding/json, keeping the
// encoding deterministic — experiment reproduction compares these bytes.
func (s *StateVector) appendJSON(buf []byte) []byte {
	buf = append(buf, '{')
	first := true
	if len(s.Scan) > 0 {
		buf = append(buf, `"scan":`...)
		buf = appendJSONBytes(buf, s.Scan)
		first = false
	}
	if len(s.Memory) > 0 {
		if !first {
			buf = append(buf, ',')
		}
		first = false
		buf = append(buf, `"memory":{`...)
		for i, k := range sortedKeys(s.Memory) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendJSONString(buf, k)
			buf = append(buf, ':')
			buf = appendJSONBytes(buf, s.Memory[k])
		}
		buf = append(buf, '}')
	}
	if len(s.Outputs) > 0 {
		if !first {
			buf = append(buf, ',')
		}
		buf = append(buf, `"outputs":{`...)
		for i, p := range sortedKeys(s.Outputs) {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = strconv.AppendUint(buf, uint64(p), 10)
			buf = append(buf, '"', ':')
			vs := s.Outputs[p]
			if vs == nil {
				buf = append(buf, "null"...)
				continue
			}
			buf = append(buf, '[')
			for j, v := range vs {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendUint(buf, uint64(v), 10)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	return append(buf, '}')
}

// Reference is a campaign's fault-free end state in the form rows are
// stored relative to: the state itself, the checksum of its absolute blob
// that every relative row carries, and its symbols and ports in the order
// the relative form indexes them. It is built once per run, or per read
// pass, and shared by every record of it; nothing changes it afterwards.
type Reference struct {
	State StateVector

	sum     uint32
	symbols []string
	ports   []uint16
}

// NewReference prepares a reference run's logged state for rows to be
// encoded against, or decoded from. It keeps sv's slices and maps.
func NewReference(sv *StateVector) *Reference {
	return &Reference{
		State:   *sv,
		sum:     crc32.ChecksumIEEE(sv.appendJSON(nil)),
		symbols: sortedKeys(sv.Memory),
		ports:   sortedKeys(sv.Outputs),
	}
}

// Aliased reports whether a and b are one slice: the same elements in the
// same memory. Pruned rows share the reference's Memory and Outputs values
// (core/prune.go), and so do relative rows read back; for them a compare
// costs nothing.
func Aliased[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) && (a == nil) == (b == nil)
}

// appendGap appends position pos of a list whose previous position was
// prev (-1 before the first) and returns pos as the new prev.
func appendGap(buf []byte, pos, prev int) ([]byte, int) {
	return binary.AppendUvarint(buf, uint64(pos-prev)), pos
}

// appendValue appends one changed Memory or Outputs value against the
// reference's: the elements that differ when both have the same length,
// the whole value otherwise. elem appends one element.
func appendValue[T comparable](buf []byte, v, ref []T, elem func([]byte, T) []byte) []byte {
	switch {
	case v == nil:
		return append(buf, valueNil)
	case ref == nil || len(v) != len(ref):
		buf = binary.AppendUvarint(append(buf, valueWhole), uint64(len(v)))
		for _, e := range v {
			buf = elem(buf, e)
		}
		return buf
	}
	buf = append(buf, valuePatch)
	prev := -1
	for i, e := range v {
		if e != ref[i] {
			buf, prev = appendGap(buf, i, prev)
			buf = elem(buf, e)
		}
	}
	return append(buf, 0)
}

func appendByte(buf []byte, b byte) []byte     { return append(buf, b) }
func appendUint32(buf []byte, v uint32) []byte { return binary.AppendUvarint(buf, uint64(v)) }

// checkDiff reports whether diff can be the scan list of a state of the
// reference's shape: strictly ascending positions, all of them bits of the
// vector itself — behind the length header MarshalBinary writes, below the
// length it states.
func (ref *Reference) checkDiff(diff []int) error {
	scan := ref.State.Scan
	limit := bitvec.MarshaledHeaderBits
	if len(scan) >= limit/8 {
		limit += int(min(binary.LittleEndian.Uint64(scan), uint64(8*len(scan)-limit)))
	}
	prev := bitvec.MarshaledHeaderBits - 1
	for _, pos := range diff {
		if pos <= prev || pos >= limit {
			return fmt.Errorf("scan difference %v is not ascending positions in [%d, %d) of the reference's scan state",
				diff, bitvec.MarshaledHeaderBits, limit)
		}
		prev = pos
	}
	return nil
}

// appendRelative encodes r's state as its difference from r.Ref (the
// grammar is at the top of this file). A record that says its state as a
// difference (FromRef) has the scan list in hand and nothing else to list;
// one that says its scan state alone that way has the scan list in hand;
// any other has its State walked against the reference's. It reports false,
// with buf as it came, when the state does not fit the reference's shape —
// a Scan of another length, a symbol or port the reference lacks — and so
// must be stored whole.
func (r *ExperimentRecord) appendRelative(buf []byte) ([]byte, bool) {
	ref, s := r.Ref, &r.State
	base := &ref.State
	diff := r.scanFromRef()
	if r.FromRef {
		s = base
	} else if !diff && len(s.Scan) != len(base.Scan) {
		return buf, false
	}
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(append(buf, tagRelative), ref.sum)
	prev := -1
	if diff {
		for _, pos := range r.ScanDiff {
			buf, prev = appendGap(buf, pos, prev)
		}
	} else {
		for i, b := range s.Scan {
			for x := b ^ base.Scan[i]; x != 0; x &= x - 1 {
				buf, prev = appendGap(buf, 8*i+bits.TrailingZeros8(x), prev)
			}
		}
	}
	buf = append(buf, 0)
	var ok bool
	if buf, ok = appendValues(buf, s.Memory, base.Memory, ref.symbols, appendByte); !ok {
		return buf[:start], false
	}
	if buf, ok = appendValues(buf, s.Outputs, base.Outputs, ref.ports, appendUint32); !ok {
		return buf[:start], false
	}
	return buf, true
}

// appendValues appends the memory or the outputs list of the relative
// form: the entries of m that differ from base's, by index in keys, base's
// sorted keys. It reports false when m has a key base lacks.
func appendValues[K comparable, T comparable](buf []byte, m, base map[K][]T, keys []K, elem func([]byte, T) []byte) ([]byte, bool) {
	prev, found := -1, 0
	for i, k := range keys {
		v, ok := m[k]
		if !ok {
			buf, prev = appendGap(buf, i, prev)
			buf = append(buf, valueAbsent)
			continue
		}
		found++
		if rv := base[k]; !Aliased(v, rv) && ((v == nil) != (rv == nil) || !slices.Equal(v, rv)) {
			buf, prev = appendGap(buf, i, prev)
			buf = appendValue(buf, v, rv, elem)
		}
	}
	return append(buf, 0), found == len(m)
}
