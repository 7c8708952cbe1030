package campaign

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"goofi/internal/faultmodel"
	"goofi/internal/trigger"
)

// The hand-rolled appenders in codec.go must stay observationally
// identical to encoding/json: whatever they emit, json.Unmarshal must
// read back to the same struct, and a generic decode must match the
// generic decode of json.Marshal's output.

func randExperimentData(rng *rand.Rand) *ExperimentData {
	kinds := []faultmodel.Kind{faultmodel.Transient, faultmodel.Intermittent, faultmodel.StuckAt0}
	d := &ExperimentData{
		Seq:   rng.Intn(2000) - 5,
		Fault: faultmodel.Fault{Kind: kinds[rng.Intn(len(kinds))]},
		Trigger: trigger.Spec{
			Kind:       "cycle",
			Cycle:      uint64(rng.Intn(10000)),
			Occurrence: rng.Intn(3),
		},
		InjectionCycle: uint64(rng.Intn(3)) * 7919,
		Injected:       rng.Intn(2) == 0,
		Outcome: Outcome{
			Status:       OutcomeStatus([]string{"detected", "escaped", "latent", ""}[rng.Intn(4)]),
			Mechanism:    []string{"", "watchdog", `odd "name"` + "\n\ttab"}[rng.Intn(3)],
			Cycles:       uint64(rng.Intn(1 << 30)),
			Iterations:   rng.Intn(4),
			Recovered:    rng.Intn(3),
			Attempts:     rng.Intn(4),
			HarnessError: []string{"", "scan corrupted", "wedged after\n\"breakpoint\""}[rng.Intn(3)],
		},
	}
	if rng.Intn(4) > 0 {
		// Nil, empty and filled are three different encodings.
		d.Fault.Bits = make([]int, rng.Intn(5))
		for i := range d.Fault.Bits {
			d.Fault.Bits[i] = rng.Intn(512)
		}
	}
	if rng.Intn(2) == 0 {
		d.Fault.ActiveProb = float64(rng.Intn(100)) / 101
	}
	if rng.Intn(3) == 0 {
		d.LocationNames = []string{"cpu.r1", "dcache.line\x01ctl"}[:rng.Intn(2)+1]
	}
	if rng.Intn(3) == 0 {
		d.Outcome.DetectionCycle = uint64(rng.Intn(100000))
	}
	return d
}

func randStateVector(rng *rand.Rand) *StateVector {
	s := &StateVector{}
	if rng.Intn(4) > 0 {
		s.Scan = make([]byte, rng.Intn(40)+1)
		rng.Read(s.Scan)
	}
	if rng.Intn(4) > 0 {
		s.Memory = map[string][]byte{}
		for i := 0; i < rng.Intn(4)+1; i++ {
			var b []byte // nil encodes as null
			if rng.Intn(4) > 0 {
				b = make([]byte, rng.Intn(16))
			}
			rng.Read(b)
			s.Memory[[]string{"x", "result", "buf2", "z\"q"}[i%4]] = b
		}
	}
	if rng.Intn(4) > 0 {
		s.Outputs = map[uint16][]uint32{}
		for i := 0; i < rng.Intn(3)+1; i++ {
			var vs []uint32 // nil encodes as null
			if rng.Intn(4) > 0 {
				vs = make([]uint32, rng.Intn(5))
			}
			for j := range vs {
				vs[j] = rng.Uint32() >> uint(rng.Intn(32))
			}
			s.Outputs[uint16(rng.Intn(1<<16))] = vs
		}
	}
	return s
}

// genericEqual compares two JSON encodings structurally (field order and
// number formatting independent).
func genericEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ga, gb any
	if err := json.Unmarshal(a, &ga); err != nil {
		t.Fatalf("custom encoding is not valid JSON: %v\n%s", err, a)
	}
	if err := json.Unmarshal(b, &gb); err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(ga, gb)
}

func TestCodecExperimentDataMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := randExperimentData(rng)
		custom := d.appendJSON(nil)
		std, err := json.Marshal(d)
		if err != nil {
			return false
		}
		if !genericEqual(t, custom, std) {
			t.Logf("custom: %s\nstd:    %s", custom, std)
			return false
		}
		// Round trip through the decoder used everywhere else.
		var back ExperimentData
		if err := json.Unmarshal(custom, &back); err != nil {
			return false
		}
		return reflect.DeepEqual(&back, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodecStateVectorMatchesEncodingJSON(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randStateVector(rng)
		custom, err := s.Encode()
		if err != nil {
			return false
		}
		std, err := json.Marshal(s)
		if err != nil {
			return false
		}
		if !genericEqual(t, custom, std) {
			t.Logf("custom: %s\nstd:    %s", custom, std)
			return false
		}
		back, err := DecodeStateVector(custom)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCodecStateVectorEmpty(t *testing.T) {
	b, err := (&StateVector{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "{}" {
		t.Errorf("empty state vector encoded as %s", b)
	}
}
