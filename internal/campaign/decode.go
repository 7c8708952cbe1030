package campaign

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// This file is the read side of codec.go. It parses the JSON BLOBs of a
// LoggedSystemState row — experimentData, and a stateVector in the
// absolute form — in the canonical form the appenders emit — keys in
// struct order, no whitespace, escape-free strings, integers as strconv
// writes them, map keys ascending — in one pass and without reflection. It
// accepts nothing else: at the first byte the appenders would not have
// written there (whitespace, an escape, an unknown, reordered or repeated
// key, a fraction in an integer slot, an overflow, "scan":"") the parse is
// abandoned and the whole blob goes to encoding/json, which therefore still
// defines the accepted language, the decoded value (nil versus empty
// included) and every error text. The property, mutation and fuzz tests in
// decode_test.go compare the two on canonical, damaged and arbitrary bytes.
//
// A stateVector that starts with tagRelative is in the relative form
// (grammar in codec.go) and is parsed against the campaign's reference
// state by parseRelative: the result, once its differing scan bits are
// applied, is deep-equal to what the absolute form of the same state
// decodes to, but shares every unchanged Memory and Outputs value — and,
// when nothing in them changed, the maps — with the reference instead of
// copying them. Nothing in it is trusted: a position past the end of what
// it indexes, a length the remaining bytes cannot hold, an unknown value
// mode, a cut-off varint or bytes left over are all errors, and nothing is
// allocated from a number the blob merely claims.

// decodeExperimentData parses an experimentData BLOB into d, which must
// be the zero value.
func decodeExperimentData(b []byte, d *ExperimentData) error {
	if parseExperimentData(b, d) {
		return nil
	}
	*d = ExperimentData{}
	if err := json.Unmarshal(b, d); err != nil {
		return fmt.Errorf("campaign: unmarshal experiment data: %w", err)
	}
	return nil
}

// decodeStateVector parses a stateVector BLOB in the absolute form into s,
// which must be the zero value.
func decodeStateVector(b []byte, s *StateVector) error {
	if parseStateVector(b, s) {
		return nil
	}
	*s = StateVector{}
	if err := json.Unmarshal(b, s); err != nil {
		return fmt.Errorf("campaign: decode state vector: %w", err)
	}
	return nil
}

// peekSeq reads the sequence number off the front of an experimentData
// BLOB without decoding the rest.
func peekSeq(b []byte) (int, error) {
	p := parser{b: b}
	if p.lit(`{"seq":`) {
		if seq, ok := p.int(); ok && p.byte(',') {
			return seq, nil
		}
	}
	var d ExperimentData
	if err := decodeExperimentData(b, &d); err != nil {
		return 0, err
	}
	return d.Seq, nil
}

// parser is a cursor over one blob. Every method that reports a bool
// reports false where the input leaves the canonical form; the cursor is
// then wherever it stopped, and the caller gives up on the blob.
type parser struct {
	b []byte
	i int
}

// lit consumes s if the input continues with it.
func (p *parser) lit(s string) bool {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// byte consumes c if it is the next byte.
func (p *parser) byte(c byte) bool {
	if p.i >= len(p.b) || p.b[p.i] != c {
		return false
	}
	p.i++
	return true
}

// key consumes an object key (given with its quotes and colon), preceded
// by a comma unless it is the object's first.
func (p *parser) key(k string, first bool) bool {
	if first {
		return p.lit(k)
	}
	start := p.i
	if p.byte(',') && p.lit(k) {
		return true
	}
	p.i = start
	return false
}

// maxUint64 is math.MaxUint64 in decimal; equally long digit strings
// compare as the numbers they spell.
const maxUint64 = "18446744073709551615"

// uint consumes a decimal integer in [0, max] written the way
// strconv.AppendUint writes it.
func (p *parser) uint(max uint64) (uint64, bool) {
	b, i := p.b, p.i
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c) // wraps only past 19 digits, checked below
	}
	digits := b[p.i:i]
	if len(digits) == 0 || (len(digits) > 1 && digits[0] == '0') ||
		len(digits) > len(maxUint64) || (len(digits) == len(maxUint64) && string(digits) > maxUint64) ||
		v > max {
		return 0, false
	}
	p.i = i
	return v, true
}

// int consumes a decimal int written the way strconv.AppendInt writes it.
func (p *parser) int() (int, bool) {
	neg := p.byte('-')
	v, ok := p.uint(1 << 63)
	if !ok || (neg && v == 0) || (!neg && v == 1<<63) {
		return 0, false
	}
	n := int64(v)
	if neg {
		n = -n
	}
	if int64(int(n)) != n {
		return 0, false
	}
	return int(n), true
}

// float consumes a JSON number and converts it as encoding/json does.
func (p *parser) float() (float64, bool) {
	start := p.i
	digits := func() bool {
		from := p.i
		for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
			p.i++
		}
		return p.i > from
	}
	p.byte('-')
	intStart := p.i
	if !digits() || (p.i-intStart > 1 && p.b[intStart] == '0') {
		return 0, false
	}
	if p.byte('.') && !digits() {
		return 0, false
	}
	if p.byte('e') || p.byte('E') {
		if !p.byte('+') {
			p.byte('-')
		}
		if !digits() {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(string(p.b[start:p.i]), 64)
	return f, err == nil
}

// bool consumes true or false.
func (p *parser) bool() (v, ok bool) {
	if p.lit("true") {
		return true, true
	}
	return false, p.lit("false")
}

// quoted consumes a string and returns the bytes between its quotes,
// still part of the blob and not yet checked: they end at the first '"',
// escaped or not.
func (p *parser) quoted() ([]byte, bool) {
	if !p.byte('"') {
		return nil, false
	}
	end := bytes.IndexByte(p.b[p.i:], '"')
	if end < 0 {
		return nil, false
	}
	s := p.b[p.i : p.i+end]
	p.i += end + 1
	return s, true
}

// str consumes a string. One with an escape in it, a control character or
// invalid UTF-8 — everything encoding/json would rewrite or refuse — is
// not canonical.
func (p *parser) str() (string, bool) {
	s, ok := p.quoted()
	if !ok {
		return "", false
	}
	ascii := true
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return "", false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(s) {
		return "", false
	}
	return string(s), true
}

// bytes64 consumes a []byte as encoding/json writes one: base64 in a
// string, decoded into one allocation, or null. The decoder skips \r and
// \n, which a JSON string cannot hold; every other byte encoding/json
// would refuse or rewrite is outside the alphabet and fails the decode.
func (p *parser) bytes64() ([]byte, bool) {
	if p.lit("null") {
		return nil, true
	}
	s, ok := p.quoted()
	if !ok || bytes.IndexByte(s, '\n') >= 0 || bytes.IndexByte(s, '\r') >= 0 {
		return nil, false
	}
	out := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := base64.StdEncoding.Decode(out, s)
	if err != nil {
		return nil, false
	}
	return out[:n], true
}

// count returns how many elements the array holds whose opening bracket
// was just consumed, taking everything up to the next ']' for digits and
// commas; the element loop that follows checks that it is.
func (p *parser) count() int {
	end := bytes.IndexByte(p.b[p.i:], ']')
	if end <= 0 {
		return 0
	}
	return bytes.Count(p.b[p.i:p.i+end], []byte{','}) + 1
}

// parseStateVector is the canonical-form parse of a stateVector BLOB.
func parseStateVector(b []byte, s *StateVector) bool {
	p := parser{b: b}
	if !p.byte('{') {
		return false
	}
	first := true
	if p.key(`"scan":`, first) {
		first = false
		var ok bool
		// The appender omits an empty scan; encoding/json reads "" as
		// an empty slice, not nil.
		if s.Scan, ok = p.bytes64(); !ok || len(s.Scan) == 0 {
			return false
		}
	}
	if p.key(`"memory":{`, first) {
		first = false
		s.Memory = make(map[string][]byte)
		for prev := ""; ; {
			k, ok := p.str()
			if !ok || (len(s.Memory) > 0 && k <= prev) || !p.byte(':') {
				return false
			}
			v, ok := p.bytes64()
			if !ok {
				return false
			}
			s.Memory[k], prev = v, k
			if !p.byte(',') {
				break
			}
		}
		if !p.byte('}') {
			return false
		}
	}
	if p.key(`"outputs":{`, first) {
		s.Outputs = make(map[uint16][]uint32)
		for prev := -1; ; {
			if !p.byte('"') {
				return false
			}
			port, ok := p.uint(math.MaxUint16)
			if !ok || int(port) <= prev || !p.lit(`":`) {
				return false
			}
			prev = int(port)
			var vs []uint32
			if !p.lit("null") {
				if !p.byte('[') {
					return false
				}
				vs = make([]uint32, 0, p.count())
				for len(vs) < cap(vs) {
					v, ok := p.uint(math.MaxUint32)
					if !ok {
						return false
					}
					vs = append(vs, uint32(v))
					if len(vs) < cap(vs) && !p.byte(',') {
						return false
					}
				}
				if !p.byte(']') {
					return false
				}
			}
			s.Outputs[uint16(port)] = vs
			if !p.byte(',') {
				break
			}
		}
		if !p.byte('}') {
			return false
		}
	}
	return p.byte('}') && p.i == len(b)
}

// optUint consumes `,"name":N` if it is next; absent is fine.
func (p *parser) optUint(k string, max uint64, dst *uint64) bool {
	if !p.key(k, false) {
		return true
	}
	v, ok := p.uint(max)
	*dst = v
	return ok
}

// optInt is optUint for an int field.
func (p *parser) optInt(k string, dst *int) bool {
	if !p.key(k, false) {
		return true
	}
	v, ok := p.int()
	*dst = v
	return ok
}

// optStr is optUint for a string field.
func (p *parser) optStr(k string, dst *string) bool {
	if !p.key(k, false) {
		return true
	}
	v, ok := p.str()
	*dst = v
	return ok
}

func (p *parser) triggerSpec(s *trigger.Spec) bool {
	var ok bool
	if s.Kind, ok = p.str(); !ok {
		return false
	}
	var addr uint64
	if !p.optUint(`"cycle":`, math.MaxUint64, &s.Cycle) ||
		!p.optUint(`"count":`, math.MaxUint64, &s.Count) ||
		!p.optUint(`"addr":`, math.MaxUint32, &addr) ||
		!p.optInt(`"occurrence":`, &s.Occurrence) {
		return false
	}
	s.Addr = uint32(addr)
	if p.key(`"write":`, false) {
		if s.Write, ok = p.bool(); !ok {
			return false
		}
	}
	return p.optUint(`"period":`, math.MaxUint64, &s.Period) && p.byte('}')
}

func (p *parser) outcome(o *Outcome) bool {
	status, ok := p.str()
	if !ok {
		return false
	}
	o.Status = OutcomeStatus(status)
	if !p.optStr(`"mechanism":`, &o.Mechanism) ||
		!p.optUint(`"detectionCycle":`, math.MaxUint64, &o.DetectionCycle) ||
		!p.lit(`,"cycles":`) {
		return false
	}
	if o.Cycles, ok = p.uint(math.MaxUint64); !ok {
		return false
	}
	return p.optInt(`"iterations":`, &o.Iterations) &&
		p.optInt(`"recovered":`, &o.Recovered) &&
		p.optInt(`"attempts":`, &o.Attempts) &&
		p.optStr(`"harnessError":`, &o.HarnessError) &&
		p.byte('}')
}

// parseExperimentData is the canonical-form parse of an experimentData
// BLOB.
func parseExperimentData(b []byte, d *ExperimentData) bool {
	p := parser{b: b}
	var ok bool
	if !p.lit(`{"seq":`) {
		return false
	}
	if d.Seq, ok = p.int(); !ok || !p.lit(`,"fault":{"kind":`) {
		return false
	}
	kind, ok := p.str()
	if !ok || !p.lit(`,"bits":`) {
		return false
	}
	d.Fault.Kind = faultmodel.Kind(kind)
	if !p.lit("null") {
		if !p.byte('[') {
			return false
		}
		d.Fault.Bits = make([]int, 0, p.count())
		for len(d.Fault.Bits) < cap(d.Fault.Bits) {
			v, ok := p.int()
			if !ok {
				return false
			}
			d.Fault.Bits = append(d.Fault.Bits, v)
			if len(d.Fault.Bits) < cap(d.Fault.Bits) && !p.byte(',') {
				return false
			}
		}
		if !p.byte(']') {
			return false
		}
	}
	if p.key(`"activeProb":`, false) {
		if d.Fault.ActiveProb, ok = p.float(); !ok {
			return false
		}
	}
	if !p.byte('}') {
		return false
	}
	if p.key(`"locationNames":[`, false) {
		d.LocationNames = []string{}
		for !p.byte(']') {
			if len(d.LocationNames) > 0 && !p.byte(',') {
				return false
			}
			name, ok := p.str()
			if !ok {
				return false
			}
			d.LocationNames = append(d.LocationNames, name)
		}
	}
	if !p.lit(`,"trigger":{"kind":`) || !p.triggerSpec(&d.Trigger) ||
		!p.optUint(`"injectionCycle":`, math.MaxUint64, &d.InjectionCycle) ||
		!p.lit(`,"injected":`) {
		return false
	}
	if d.Injected, ok = p.bool(); !ok {
		return false
	}
	return p.lit(`,"outcome":{"status":`) && p.outcome(&d.Outcome) &&
		p.byte('}') && p.i == len(b)
}

// isRelative reports whether a stateVector BLOB is in the relative form.
func isRelative(b []byte) bool { return len(b) > 0 && b[0] == tagRelative }

// relativeHeader is the tag and the reference checksum.
const relativeHeader = 5

// uvarint consumes one unsigned varint.
func (p *parser) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(p.b[p.i:])
	if n <= 0 {
		return 0, false
	}
	p.i += n
	return v, true
}

// next consumes one entry of a gap-coded list of ascending positions below
// limit, the previous one being prev (-1 before the first): the position,
// or done at the 0 that ends the list.
func (p *parser) next(prev, limit int) (pos int, done, ok bool) {
	gap, ok := p.uvarint()
	if !ok || gap > uint64(limit-1-prev) {
		return 0, false, false
	}
	return prev + int(gap), gap == 0, true
}

func (p *parser) elemByte() (byte, bool) {
	if p.i >= len(p.b) {
		return 0, false
	}
	p.i++
	return p.b[p.i-1], true
}

// An element reader consumes one element of a changed value at b[i:] and
// returns where it ended. It takes the cursor by value: handing a parser's
// address to a function value would move every parser to the heap.
type elemReader[T any] func(b []byte, i int) (T, int, bool)

func elemByte(b []byte, i int) (byte, int, bool) {
	p := parser{b: b, i: i}
	v, ok := p.elemByte()
	return v, p.i, ok
}

func elemUint32(b []byte, i int) (uint32, int, bool) {
	p := parser{b: b, i: i}
	v, ok := p.uvarint()
	return uint32(v), p.i, ok && v <= math.MaxUint32
}

// relativeValue consumes one changed value of the relative form, given the
// reference's.
func relativeValue[T any](p *parser, ref []T, elem elemReader[T]) ([]T, bool) {
	mode, ok := p.elemByte()
	if !ok {
		return nil, false
	}
	var v []T
	switch mode {
	case valueNil:
	case valueWhole:
		// Every element takes at least a byte, which bounds the claim.
		n, ok := p.uvarint()
		if !ok || n > uint64(len(p.b)-p.i) {
			return nil, false
		}
		v = make([]T, n)
		for i := range v {
			if v[i], p.i, ok = elem(p.b, p.i); !ok {
				return nil, false
			}
		}
	case valuePatch:
		v = slices.Clone(ref)
		for prev := -1; ; {
			i, done, ok := p.next(prev, len(ref))
			if !ok {
				return nil, false
			}
			if done {
				break
			}
			if v[i], p.i, ok = elem(p.b, p.i); !ok {
				return nil, false
			}
			prev = i
		}
	default:
		return nil, false
	}
	return v, true
}

// relativeValues consumes the memory or the outputs list of the relative
// form: base with the listed keys' values replaced or gone, base itself
// when the list is empty — and nil, as the absolute form decodes a state
// without any, when nothing is left.
func relativeValues[K comparable, T any](p *parser, base map[K][]T, keys []K, elem elemReader[T]) (map[K][]T, bool) {
	out := base
	for prev := -1; ; {
		i, done, ok := p.next(prev, len(keys))
		if !ok {
			return nil, false
		}
		if done {
			break
		}
		if prev < 0 {
			out = maps.Clone(base)
		}
		if p.byte(valueAbsent) {
			delete(out, keys[i])
		} else if out[keys[i]], ok = relativeValue(p, base[keys[i]], elem); !ok {
			return nil, false
		}
		prev = i
	}
	if len(out) == 0 {
		return nil, true
	}
	return out, true
}

// parseRelative parses a stateVector BLOB in the relative form against
// the reference it names, into s and the list of differing scan bits. The
// bits are not applied: s.Scan is the reference's own scan.
func parseRelative(b []byte, ref *Reference, s *StateVector) (scanDiff []int, ok bool) {
	if len(b) < relativeHeader {
		return nil, false
	}
	p := parser{b: b, i: relativeHeader}
	base := &ref.State
	s.Scan = base.Scan
	// The list is sized at its first position. A position is a varint
	// whose last byte is not zero (but in an overlong encoding), and the
	// list ends at a zero byte: there are as many positions as bytes
	// before the first zero, or fewer.
	room := bytes.IndexByte(b[p.i:], 0)
	for prev := -1; ; {
		pos, done, ok := p.next(prev, 8*len(base.Scan))
		if !ok {
			return nil, false
		}
		if done {
			break
		}
		if scanDiff == nil {
			scanDiff = make([]int, 0, max(room, 1))
		}
		scanDiff = append(scanDiff, pos)
		prev = pos
	}
	if s.Memory, ok = relativeValues(&p, base.Memory, ref.symbols, elemByte); !ok {
		return nil, false
	}
	if s.Outputs, ok = relativeValues(&p, base.Outputs, ref.ports, elemUint32); !ok {
		return nil, false
	}
	return scanDiff, p.i == len(b)
}
