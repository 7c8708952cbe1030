// Package faultmodel defines the fault models GOOFI can inject — transient
// bit-flips (single and multiple), permanent stuck-at faults, and
// intermittent faults — together with seeded sampling of fault locations
// and injection times for a campaign. The paper's tool "is capable of
// injecting single or multiple transient bit-flip faults" (§1) and lists
// intermittent and permanent models as extensions (§4); all three are
// implemented here.
package faultmodel

import (
	"fmt"
	"math/rand"
	"slices"

	"goofi/internal/bitvec"
	"goofi/internal/scanchain"
)

// Kind identifies a fault model.
type Kind string

// Supported fault models.
const (
	// Transient flips the selected bits once at injection time.
	Transient Kind = "transient"
	// StuckAt0 forces the selected bits to zero for the rest of the
	// experiment (reasserted at every reassertion point).
	StuckAt0 Kind = "stuck-at-0"
	// StuckAt1 forces the selected bits to one for the rest of the
	// experiment.
	StuckAt1 Kind = "stuck-at-1"
	// Intermittent flips the selected bits at each reassertion point
	// with probability ActiveProb, modelling a marginal component.
	Intermittent Kind = "intermittent"
)

// Valid reports whether k names a supported model.
func (k Kind) Valid() bool {
	switch k {
	case Transient, StuckAt0, StuckAt1, Intermittent:
		return true
	}
	return false
}

// Persistent reports whether the model must be reasserted during the
// experiment rather than applied once.
func (k Kind) Persistent() bool { return k == StuckAt0 || k == StuckAt1 || k == Intermittent }

// Fault is one concrete fault: a model applied to specific bits of a scan
// chain (or of a memory word, for SWIFI).
type Fault struct {
	Kind Kind `json:"kind"`
	// Bits are absolute bit offsets within the target vector.
	Bits []int `json:"bits"`
	// ActiveProb is the per-reassertion activation probability for
	// intermittent faults.
	ActiveProb float64 `json:"activeProb,omitempty"`
}

// Validate checks the fault is well-formed for a vector of n bits.
func (f *Fault) Validate(n int) error {
	if !f.Kind.Valid() {
		return fmt.Errorf("faultmodel: unknown kind %q", f.Kind)
	}
	if len(f.Bits) == 0 {
		return fmt.Errorf("faultmodel: fault has no target bits")
	}
	for _, b := range f.Bits {
		if b < 0 || b >= n {
			return fmt.Errorf("faultmodel: bit %d outside vector of %d bits", b, n)
		}
	}
	if f.Kind == Intermittent && (f.ActiveProb <= 0 || f.ActiveProb > 1) {
		return fmt.Errorf("faultmodel: intermittent fault needs activeProb in (0,1], got %g", f.ActiveProb)
	}
	return nil
}

// Apply mutates v according to the model. For persistent models Apply is
// called at injection time and again at every reassertion point; rng
// drives intermittent activation and must be the experiment's seeded
// generator for replayability.
func (f *Fault) Apply(v *bitvec.Vector, rng *rand.Rand) {
	switch f.Kind {
	case Transient:
		for _, b := range f.Bits {
			v.Flip(b)
		}
	case StuckAt0:
		for _, b := range f.Bits {
			v.Set(b, false)
		}
	case StuckAt1:
		for _, b := range f.Bits {
			v.Set(b, true)
		}
	case Intermittent:
		for _, b := range f.Bits {
			if rng.Float64() < f.ActiveProb {
				v.Flip(b)
			}
		}
	}
}

// String renders the fault compactly for experiment logs.
func (f *Fault) String() string {
	return fmt.Sprintf("%s@bits%v", f.Kind, f.Bits)
}

// Spec is the serializable fault model selection made in the set-up phase
// (paper Fig 6): which model, how many bits per fault (multiplicity), and
// the intermittent activation probability.
type Spec struct {
	Kind         Kind    `json:"kind"`
	Multiplicity int     `json:"multiplicity"` // bits flipped per fault (default 1)
	ActiveProb   float64 `json:"activeProb,omitempty"`
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if !s.Kind.Valid() {
		return fmt.Errorf("faultmodel: unknown kind %q", s.Kind)
	}
	if s.Multiplicity < 0 {
		return fmt.Errorf("faultmodel: negative multiplicity %d", s.Multiplicity)
	}
	if s.Kind == Intermittent && (s.ActiveProb <= 0 || s.ActiveProb > 1) {
		return fmt.Errorf("faultmodel: intermittent spec needs activeProb in (0,1], got %g", s.ActiveProb)
	}
	return nil
}

// Width is how many bits a fault of the spec flips: its Multiplicity, and
// one where that is unset.
func (s *Spec) Width() int {
	if s.Multiplicity <= 0 {
		return 1
	}
	return s.Multiplicity
}

// Space is the set of injectable bits, derived from the scan-chain
// locations the user selected in the set-up phase.
type Space struct {
	locations []scanchain.Location
	// ends[k] is the flat index one past location k's bits: the running
	// sum of the widths, which bitAt searches.
	ends  []int
	total int
}

// NewSpace builds a sampling space from writable locations. Read-only
// locations are rejected: the configuration phase marks them observable
// only (paper §3.1).
func NewSpace(locs []scanchain.Location) (*Space, error) {
	if len(locs) == 0 {
		return nil, fmt.Errorf("faultmodel: empty location set")
	}
	total, ends := 0, make([]int, len(locs))
	for k, l := range locs {
		if l.ReadOnly {
			return nil, fmt.Errorf("faultmodel: location %q is read-only and cannot be injected", l.Name)
		}
		if l.Width <= 0 {
			return nil, fmt.Errorf("faultmodel: location %q has non-positive width", l.Name)
		}
		total += l.Width
		ends[k] = total
	}
	return &Space{locations: locs, ends: ends, total: total}, nil
}

// Bits returns the total number of injectable bits.
func (s *Space) Bits() int { return s.total }

// Locations returns the locations of the space.
func (s *Space) Locations() []scanchain.Location { return s.locations }

// bitAt maps a flat index in [0, Bits()) to an absolute chain offset: the
// location is the first whose end lies past i.
func (s *Space) bitAt(i int) (offset int, loc scanchain.Location) {
	k, _ := slices.BinarySearch(s.ends, i+1)
	if i < 0 || k == len(s.ends) {
		panic(fmt.Sprintf("faultmodel: bit index %d outside space of %d bits", i, s.total))
	}
	loc = s.locations[k]
	return loc.Offset + i - (s.ends[k] - loc.Width), loc
}

// LocationOf returns the location containing an absolute chain offset, if
// it belongs to the space.
func (s *Space) LocationOf(offset int) (scanchain.Location, bool) {
	for _, l := range s.locations {
		if offset >= l.Offset && offset < l.End() {
			return l, true
		}
	}
	return scanchain.Location{}, false
}

// Sample draws one fault according to the spec, uniformly over the space
// without replacement within the fault (multi-bit faults hit distinct
// bits).
func (s *Space) Sample(spec *Spec, rng *rand.Rand) (Fault, error) {
	bits, err := s.AppendSample(nil, spec, rng)
	if err != nil {
		return Fault{}, err
	}
	return Fault{Kind: spec.Kind, Bits: bits, ActiveProb: spec.ActiveProb}, nil
}

// AppendSample draws the bits of one fault of the spec and appends their
// chain offsets to dst: spec.Width() distinct bits of the space, each a
// uniform rng.Intn over the space, a repeat drawn again. It allocates
// nothing when dst has room, so a campaign's whole plan can be drawn into
// one array. The draws stay in dst while they are checked for repeats — m
// of them, compared pairwise, which is cheaper than a set at the few bits
// a fault flips — and become offsets once all m are in.
func (s *Space) AppendSample(dst []int, spec *Spec, rng *rand.Rand) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return dst, err
	}
	m := spec.Width()
	if m > s.total {
		return dst, fmt.Errorf("faultmodel: multiplicity %d exceeds space of %d bits", m, s.total)
	}
	start := len(dst)
	for len(dst)-start < m {
		if idx := rng.Intn(s.total); !slices.Contains(dst[start:], idx) {
			dst = append(dst, idx)
		}
	}
	for i := start; i < len(dst); i++ {
		dst[i], _ = s.bitAt(dst[i])
	}
	return dst, nil
}
