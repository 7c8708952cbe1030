package campaign

import (
	"encoding/base64"
	"sort"
	"strconv"

	"goofi/internal/trigger"
)

// This file hand-rolls the JSON encoders for the two BLOBs written on
// every LoggedSystemState insert — experimentData and stateVector. The
// output is plain JSON that json.Unmarshal reads back, but appending
// directly into one buffer avoids the reflection walk that dominated the
// insert profile. Field names and omitempty behaviour must mirror the
// struct tags; the equivalence property test in codec_test.go enforces
// that against encoding/json. What the appenders emit is also the
// canonical form decode.go parses without reflection — key order, no
// whitespace, integers as strconv writes them, sorted map keys — so a
// change to the bytes written here sends every row to that file's
// encoding/json fallback until its parser follows
// (TestDecodeMatchesEncodingJSON counts the fallbacks).

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
		keys := make([]string, 0, len(s.Memory))
		for k := range s.Memory {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
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
		ports := make([]int, 0, len(s.Outputs))
		for p := range s.Outputs {
			ports = append(ports, int(p))
		}
		sort.Ints(ports)
		for i, p := range ports {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, '"')
			buf = strconv.AppendInt(buf, int64(p), 10)
			buf = append(buf, '"', ':')
			vs := s.Outputs[uint16(p)]
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
