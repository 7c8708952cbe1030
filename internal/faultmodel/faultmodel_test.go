package faultmodel

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"goofi/internal/bitvec"
	"goofi/internal/scanchain"
	"goofi/internal/thor"
)

func space(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace([]scanchain.Location{
		{Name: "r0", Offset: 0, Width: 32},
		{Name: "r1", Offset: 32, Width: 32},
		{Name: "pc", Offset: 64, Width: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransientApply(t *testing.T) {
	v := bitvec.New(96)
	f := Fault{Kind: Transient, Bits: []int{3, 40}}
	f.Apply(v, rand.New(rand.NewSource(1)))
	if !v.Get(3) || !v.Get(40) || v.PopCount() != 2 {
		t.Errorf("after transient: %v", v.OnesPositions())
	}
	// A second apply (should not happen for transient, but must be
	// well-defined) flips back.
	f.Apply(v, rand.New(rand.NewSource(1)))
	if v.PopCount() != 0 {
		t.Errorf("double transient apply left bits: %v", v.OnesPositions())
	}
}

func TestStuckAtApply(t *testing.T) {
	v := bitvec.New(8)
	v.Set(1, true)
	f0 := Fault{Kind: StuckAt0, Bits: []int{1}}
	f0.Apply(v, nil)
	if v.Get(1) {
		t.Error("stuck-at-0 did not clear bit")
	}
	f1 := Fault{Kind: StuckAt1, Bits: []int{7}}
	f1.Apply(v, nil)
	f1.Apply(v, nil) // idempotent
	if !v.Get(7) || v.PopCount() != 1 {
		t.Errorf("stuck-at-1 state: %v", v.OnesPositions())
	}
	if !f0.Kind.Persistent() || !f1.Kind.Persistent() {
		t.Error("stuck-at models must be persistent")
	}
	if Transient.Persistent() {
		t.Error("transient must not be persistent")
	}
}

func TestIntermittentActivation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := Fault{Kind: Intermittent, Bits: []int{0}, ActiveProb: 0.5}
	flips := 0
	v := bitvec.New(1)
	last := false
	for i := 0; i < 1000; i++ {
		f.Apply(v, rng)
		if v.Get(0) != last {
			flips++
			last = v.Get(0)
		}
	}
	if flips < 400 || flips > 600 {
		t.Errorf("intermittent flipped %d/1000 times at p=0.5", flips)
	}
}

func TestFaultValidate(t *testing.T) {
	tests := []struct {
		name string
		f    Fault
		ok   bool
	}{
		{"good transient", Fault{Kind: Transient, Bits: []int{0}}, true},
		{"bad kind", Fault{Kind: "cosmic", Bits: []int{0}}, false},
		{"no bits", Fault{Kind: Transient}, false},
		{"bit out of range", Fault{Kind: Transient, Bits: []int{96}}, false},
		{"negative bit", Fault{Kind: Transient, Bits: []int{-1}}, false},
		{"intermittent no prob", Fault{Kind: Intermittent, Bits: []int{0}}, false},
		{"intermittent good", Fault{Kind: Intermittent, Bits: []int{0}, ActiveProb: 0.3}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.f.Validate(96)
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Kind: Transient, Multiplicity: 2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
	for _, bad := range []Spec{
		{Kind: "x"},
		{Kind: Transient, Multiplicity: -1},
		{Kind: Intermittent},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("bad spec %+v accepted", bad)
		}
	}
}

func TestNewSpaceRejectsReadOnly(t *testing.T) {
	_, err := NewSpace([]scanchain.Location{{Name: "cycle", Offset: 0, Width: 8, ReadOnly: true}})
	if err == nil {
		t.Error("read-only location accepted")
	}
	if _, err := NewSpace(nil); err == nil {
		t.Error("empty space accepted")
	}
}

func TestSpaceBitMapping(t *testing.T) {
	s := space(t)
	if s.Bits() != 96 {
		t.Fatalf("Bits = %d, want 96", s.Bits())
	}
	off, loc := s.bitAt(0)
	if off != 0 || loc.Name != "r0" {
		t.Errorf("bitAt(0) = %d %s", off, loc.Name)
	}
	off, loc = s.bitAt(35)
	if off != 35 || loc.Name != "r1" {
		t.Errorf("bitAt(35) = %d %s", off, loc.Name)
	}
	if l, ok := s.LocationOf(70); !ok || l.Name != "pc" {
		t.Errorf("LocationOf(70) = %v %v", l, ok)
	}
	if _, ok := s.LocationOf(1000); ok {
		t.Error("LocationOf(1000) found a location")
	}
}

func TestSpaceBitMappingNonContiguous(t *testing.T) {
	// Locations need not be adjacent in the chain.
	s, err := NewSpace([]scanchain.Location{
		{Name: "a", Offset: 100, Width: 4},
		{Name: "b", Offset: 300, Width: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	off, loc := s.bitAt(5)
	if off != 301 || loc.Name != "b" {
		t.Errorf("bitAt(5) = %d %s, want 301 b", off, loc.Name)
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(7))
	spec := &Spec{Kind: Transient}
	hits := make(map[int]int)
	for i := 0; i < 9600; i++ {
		f, err := s.Sample(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Bits) != 1 {
			t.Fatalf("multiplicity = %d", len(f.Bits))
		}
		hits[f.Bits[0]]++
	}
	// Every bit should be hit roughly 100 times; allow a wide band.
	for b := 0; b < 96; b++ {
		if hits[b] < 50 || hits[b] > 200 {
			t.Errorf("bit %d hit %d times, expected ~100", b, hits[b])
		}
	}
}

func TestSampleMultiplicityDistinctBits(t *testing.T) {
	s := space(t)
	rng := rand.New(rand.NewSource(3))
	spec := &Spec{Kind: Transient, Multiplicity: 5}
	for i := 0; i < 100; i++ {
		f, err := s.Sample(spec, rng)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[int]bool)
		for _, b := range f.Bits {
			if seen[b] {
				t.Fatalf("duplicate bit %d in multi-bit fault", b)
			}
			seen[b] = true
		}
	}
}

func TestSampleMultiplicityTooLarge(t *testing.T) {
	s, err := NewSpace([]scanchain.Location{{Name: "x", Offset: 0, Width: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Sample(&Spec{Kind: Transient, Multiplicity: 4}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("oversized multiplicity accepted")
	}
}

// Property: sampled faults always validate against the chain length.
func TestPropertySampledFaultsValid(t *testing.T) {
	s := space(t)
	f := func(seed int64, multRaw uint8) bool {
		mult := int(multRaw)%8 + 1
		rng := rand.New(rand.NewSource(seed))
		fault, err := s.Sample(&Spec{Kind: Transient, Multiplicity: mult}, rng)
		if err != nil {
			return false
		}
		return fault.Validate(96) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: applying a transient fault changes exactly the selected bits.
func TestPropertyTransientChangesExactlySelectedBits(t *testing.T) {
	s := space(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fault, err := s.Sample(&Spec{Kind: Transient, Multiplicity: 3}, rng)
		if err != nil {
			return false
		}
		v := bitvec.New(96)
		for i := 0; i < 96; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		orig := v.Clone()
		fault.Apply(v, rng)
		diff, err := orig.Xor(v)
		if err != nil {
			return false
		}
		return diff.PopCount() == 3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mapSample is Sample as it was first written, one map and one slice a
// draw: the oracle AppendSample's draws are checked against.
func mapSample(s *Space, spec *Spec, rng *rand.Rand) []int {
	m := spec.Width()
	chosen := make(map[int]bool, m)
	bits := make([]int, 0, m)
	for len(bits) < m {
		idx := rng.Intn(s.total)
		if chosen[idx] {
			continue
		}
		chosen[idx] = true
		off, _ := s.bitAt(idx)
		bits = append(bits, off)
	}
	return bits
}

// TestAppendSampleMatchesMapDraws: appending one fault after another into
// one array consumes the generator as the map-based draw does and yields
// the same offsets in the same order — over multiplicities up to the whole
// space (where repeats are most of the draws), spaces whose locations are
// out of chain order or overlap, and a dst that already holds bits.
func TestAppendSampleMatchesMapDraws(t *testing.T) {
	overlapping, err := NewSpace([]scanchain.Location{
		{Name: "hi", Offset: 40, Width: 8},
		{Name: "lo", Offset: 0, Width: 6},
		{Name: "wide", Offset: 2, Width: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []*Space{space(t), overlapping} {
		for _, mult := range []int{0, 1, 2, 3, 7, sp.Bits()} {
			spec := &Spec{Kind: Transient, Multiplicity: mult}
			for seed := int64(1); seed <= 20; seed++ {
				oracle, mine := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				flat := []int{-1}
				for draw := 0; draw < 50; draw++ {
					want := mapSample(sp, spec, oracle)
					start := len(flat)
					if flat, err = sp.AppendSample(flat, spec, mine); err != nil {
						t.Fatal(err)
					}
					if got := flat[start:]; fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("multiplicity %d, seed %d, draw %d: appended %v, the map draws %v", mult, seed, draw, got, want)
					}
				}
				if flat[0] != -1 {
					t.Fatal("AppendSample wrote over what dst held")
				}
				if oracle.Int63() != mine.Int63() {
					t.Fatalf("multiplicity %d, seed %d: the generators part after the draws", mult, seed)
				}
			}
		}
	}
	sp, spec, rng := space(t), &Spec{Kind: Transient, Multiplicity: 4}, rand.New(rand.NewSource(1))
	room := make([]int, 0, 4)
	if allocs := testing.AllocsPerRun(100, func() {
		room, _ = sp.AppendSample(room[:0], spec, rng)
	}); allocs != 0 {
		t.Errorf("AppendSample into room allocates %v times, want 0", allocs)
	}
}

// linearBitAt is bitAt as it was first written, a walk of the location
// list: the oracle of the binary search.
func linearBitAt(s *Space, i int) (int, scanchain.Location) {
	for _, l := range s.locations {
		if i < l.Width {
			return l.Offset + i, l
		}
		i -= l.Width
	}
	panic(fmt.Sprintf("bit index %d outside the space", i))
}

// TestBitAtMatchesLinearWalk: the binary search over the cumulative widths
// maps every index of THOR-S's internal chain as a closed-loop campaign
// selects it (cpu,icache,dcache: every writable cell of the 5,412-bit
// chain), and of a small and a gapped, out-of-order space, to the offset
// and location the walk of the list does, and panics outside the space as
// the walk did.
func TestBitAtMatchesLinearWalk(t *testing.T) {
	chain := scanchain.Map{Chain: "internal", Length: thor.ScanLen()}
	for _, f := range thor.ScanLayout() {
		chain.Locations = append(chain.Locations, scanchain.Location{
			Name: f.Name, Offset: f.Offset, Width: f.Width, ReadOnly: f.ReadOnly,
		})
	}
	writable := func(locs []scanchain.Location) []scanchain.Location {
		var w []scanchain.Location
		for _, l := range locs {
			if !l.ReadOnly {
				w = append(w, l)
			}
		}
		return w
	}
	gapped, err := NewSpace([]scanchain.Location{
		{Name: "a", Offset: 100, Width: 4},
		{Name: "b", Offset: 300, Width: 1},
		{Name: "c", Offset: 7, Width: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	thorSpace, err := NewSpace(writable(chain.Select("cpu", "icache", "dcache")))
	if err != nil {
		t.Fatal(err)
	}
	spaces := []*Space{space(t), gapped, thorSpace}
	for _, sp := range spaces {
		for i := 0; i < sp.Bits(); i++ {
			off, loc := sp.bitAt(i)
			wantOff, wantLoc := linearBitAt(sp, i)
			if off != wantOff || loc != wantLoc {
				t.Fatalf("%d-bit space: bitAt(%d) = %d %s, the walk %d %s", sp.Bits(), i, off, loc.Name, wantOff, wantLoc.Name)
			}
		}
		for _, i := range []int{-1, sp.Bits()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%d-bit space: bitAt(%d) did not panic", sp.Bits(), i)
					}
				}()
				sp.bitAt(i)
			}()
		}
		t.Logf("%d locations, %d bits", len(sp.Locations()), sp.Bits())
	}
}
