// Package bitvec provides a compact, fixed-length bit vector.
//
// Bit vectors are the common currency of the fault injection stack: scan
// chains shift them, fault models flip bits in them, and logged system
// states are stored as them. The zero value is an empty vector of length 0.
//
// A vector is reached three ways. By position — Get, Set, Flip, Uint64,
// SetUint64 — each call range-checked: what fault models and analyses use
// on a handful of bits. Whole — Xor, MaskedDiff, CopyFrom, Swap,
// MarshalBinary — a word at a time. And front to back through a Writer or a
// Reader (stream.go), which is how a device fills a vector from its state
// elements on capture and empties one into them on update: a field at a
// time in chain order, each word stored or loaded once.
//
// The storage is private, and one invariant about it is kept here and
// nowhere else: no bit at or past Len is ever set, so Equal, PopCount and
// the byte form need not mask.
package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Vector is a fixed-length sequence of bits. Bit 0 is the least significant
// bit of the first word, which by scan-chain convention is the bit closest
// to the chain's output (the first bit shifted out).
type Vector struct {
	n     int
	words []uint64
}

// New returns a vector of n bits, all zero.
func New(n int) *Vector {
	if n < 0 {
		n = 0
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// FromUint64 returns an n-bit vector holding the low n bits of x, bit 0
// first. n must be in [0, 64].
func FromUint64(x uint64, n int) *Vector {
	if n > 64 {
		n = 64
	}
	v := New(n)
	if n > 0 {
		if n < 64 {
			x &= (1 << uint(n)) - 1
		}
		v.words[0] = x
	}
	return v
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Get reports whether bit i is set. It panics if i is out of range, which
// indicates a programming error in the caller (scan-chain maps are validated
// before use).
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/64]&(1<<uint(i%64)) != 0
}

// Set sets bit i to b.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/64] |= 1 << uint(i%64)
	} else {
		v.words[i/64] &^= 1 << uint(i%64)
	}
}

// Flip inverts bit i and returns its new value.
func (v *Vector) Flip(i int) bool {
	v.check(i)
	v.words[i/64] ^= 1 << uint(i%64)
	return v.Get(i)
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Uint64 returns bits [off, off+n) as a uint64, bit off in the least
// significant position. n must be in [0, 64] and the range must lie within
// the vector.
func (v *Vector) Uint64(off, n int) uint64 {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitvec: width %d out of range [0,64]", n))
	}
	if off < 0 || off+n > v.n {
		panic(fmt.Sprintf("bitvec: range [%d,%d) out of range [0,%d)", off, off+n, v.n))
	}
	if n == 0 {
		return 0
	}
	wi, bi := off/64, uint(off%64)
	x := v.words[wi] >> bi
	if bi+uint(n) > 64 {
		x |= v.words[wi+1] << (64 - bi)
	}
	if n < 64 {
		x &= 1<<uint(n) - 1
	}
	return x
}

// SetUint64 stores the low n bits of x into bits [off, off+n).
func (v *Vector) SetUint64(off, n int, x uint64) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitvec: width %d out of range [0,64]", n))
	}
	if off < 0 || off+n > v.n {
		panic(fmt.Sprintf("bitvec: range [%d,%d) out of range [0,%d)", off, off+n, v.n))
	}
	if n == 0 {
		return
	}
	if n < 64 {
		x &= 1<<uint(n) - 1
	}
	wi, bi := off/64, uint(off%64)
	var mask uint64 = ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
	}
	v.words[wi] = v.words[wi]&^(mask<<bi) | x<<bi
	if bi+uint(n) > 64 {
		hi := uint(n) - (64 - bi)
		hiMask := uint64(1)<<hi - 1
		v.words[wi+1] = v.words[wi+1]&^hiMask | x>>(64-bi)
	}
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	c := New(v.n)
	copy(c.words, v.words)
	return c
}

// CopyFrom overwrites the vector with the contents of src. The lengths must
// match.
func (v *Vector) CopyFrom(src *Vector) error {
	if v.n != src.n {
		return fmt.Errorf("bitvec: length mismatch: dst %d, src %d", v.n, src.n)
	}
	copy(v.words, src.words)
	return nil
}

// Swap exchanges the contents of v and o in O(1) by swapping their word
// storage. The lengths must match.
func (v *Vector) Swap(o *Vector) error {
	if v.n != o.n {
		return fmt.Errorf("bitvec: length mismatch: %d vs %d", v.n, o.n)
	}
	v.words, o.words = o.words, v.words
	return nil
}

// Equal reports whether two vectors have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Xor returns a new vector that is the bitwise XOR of v and o. The lengths
// must match; the XOR of two logged state vectors is the error pattern used
// by the analysis phase.
func (v *Vector) Xor(o *Vector) (*Vector, error) {
	if v.n != o.n {
		return nil, fmt.Errorf("bitvec: length mismatch: %d vs %d", v.n, o.n)
	}
	r := New(v.n)
	for i := range v.words {
		r.words[i] = v.words[i] ^ o.words[i]
	}
	return r, nil
}

// MaskedDiff returns the number of positions set in mask at which v and o
// differ: the popcount of (v XOR o) AND mask. v and o must have the same
// length; mask may be shorter or longer, and positions outside it do not
// count. The analysis phase counts corrupted observed state with it.
func (v *Vector) MaskedDiff(o, mask *Vector) (int, error) {
	if v.n != o.n {
		return 0, fmt.Errorf("bitvec: length mismatch: %d vs %d", v.n, o.n)
	}
	c := 0
	for i := 0; i < len(v.words) && i < len(mask.words); i++ {
		c += bits.OnesCount64((v.words[i] ^ o.words[i]) & mask.words[i])
	}
	return c, nil
}

// DiffCount returns the number of positions at which v and o differ. The
// lengths must match.
func (v *Vector) DiffCount(o *Vector) int {
	c := 0
	for i, w := range v.words[:min(len(v.words), len(o.words))] {
		c += bits.OnesCount64(w ^ o.words[i])
	}
	return c
}

// AppendDiff appends to dst, ascending, offset plus each position at which
// v and o differ — with offset MarshaledHeaderBits, the positions of the
// bits in which their byte forms differ — and returns it. The lengths must
// match. A run's end state is stored as this list against the reference
// run's.
func (v *Vector) AppendDiff(dst []int, o *Vector, offset int) []int {
	for wi, w := range v.words[:min(len(v.words), len(o.words))] {
		for x := w ^ o.words[wi]; x != 0; x &= x - 1 {
			dst = append(dst, offset+wi*64+bits.TrailingZeros64(x))
		}
	}
	return dst
}

// PopCount returns the number of set bits.
func (v *Vector) PopCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// OnesPositions returns the indices of all set bits in ascending order.
func (v *Vector) OnesPositions() []int {
	var pos []int
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			pos = append(pos, wi*64+b)
			w &= w - 1
		}
	}
	return pos
}

// Clear sets every bit to zero.
func (v *Vector) Clear() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// ShiftIn shifts the whole vector one position towards bit 0, discarding the
// old bit 0 and inserting in as the new most significant bit. It returns the
// bit shifted out. This models one TCK cycle of a scan chain whose serial
// output is bit 0. Word-level shifting keeps full chain scans at
// O(n²/64) rather than O(n²) bit operations.
func (v *Vector) ShiftIn(in bool) (out bool) {
	if v.n == 0 {
		return in
	}
	out = v.words[0]&1 != 0
	last := len(v.words) - 1
	for i := 0; i < last; i++ {
		v.words[i] = v.words[i]>>1 | v.words[i+1]<<63
	}
	v.words[last] >>= 1
	if in {
		v.Set(v.n-1, true)
	} else {
		v.Set(v.n-1, false)
	}
	return out
}

// String renders the vector as a hex string, most significant nibble first,
// prefixed with the bit length, e.g. "12:0x0a3f".
func (v *Vector) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:0x", v.n)
	nibbles := (v.n + 3) / 4
	if nibbles == 0 {
		sb.WriteString("0")
	}
	for i := nibbles - 1; i >= 0; i-- {
		nib := v.Uint64Unchecked(i*4, minInt(4, v.n-i*4))
		fmt.Fprintf(&sb, "%x", nib)
	}
	return sb.String()
}

// Uint64Unchecked is Uint64 without range clamping of the upper bound to the
// vector length; callers pass a width already clipped to the vector.
func (v *Vector) Uint64Unchecked(off, n int) uint64 {
	var x uint64
	for i := 0; i < n; i++ {
		if off+i < v.n && v.Get(off+i) {
			x |= 1 << uint(i)
		}
	}
	return x
}

// MarshaledHeaderBits is where the bits start in the byte form: bit i of the
// vector is bit MarshaledHeaderBits+i of it, counting each byte's least
// significant bit first.
const MarshaledHeaderBits = 64

// MarshalBinary encodes the vector as an 8-byte little-endian length followed
// by the packed words, little-endian, one store per word.
func (v *Vector) MarshalBinary() ([]byte, error) {
	return v.AppendBinary(make([]byte, 0, v.MarshaledLen())), nil
}

// MarshaledLen is the length of the vector's byte form.
func (v *Vector) MarshaledLen() int { return 8 + 8*len(v.words) }

// AppendBinary appends the vector's byte form (MarshalBinary) to b.
func (v *Vector) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(v.n))
	for _, w := range v.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// ErrTruncated is returned (wrapped) by UnmarshalBinary when data is
// shorter than its own length header says.
var ErrTruncated = errors.New("bitvec: truncated")

// UnmarshalBinary decodes data produced by MarshalBinary. The length
// header is input from outside the program (a stored row's blob): it is
// compared with len(data) in uint64, by division, before it is converted
// or anything is allocated from it, so no header panics, overflows or
// yields a negative Len.
func (v *Vector) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w header: %d bytes", ErrTruncated, len(data))
	}
	hdr := binary.LittleEndian.Uint64(data)
	if hdr > math.MaxInt {
		return fmt.Errorf("%w body: header says %d bits, have %d bytes", ErrTruncated, hdr, len(data))
	}
	want := hdr / 64 // whole words the body must hold; at most 2^57
	if hdr%64 != 0 {
		want++
	}
	if want > uint64(len(data)-8)/8 {
		return fmt.Errorf("%w body: want %d bytes, have %d", ErrTruncated, 8+8*want, len(data))
	}
	n, words := int(hdr), int(want)
	v.n = n
	v.words = make([]uint64, words)
	for i := range v.words {
		v.words[i] = binary.LittleEndian.Uint64(data[8+8*i:])
	}
	// Mask stray bits beyond n so Equal works on round-tripped vectors.
	if rem := n % 64; rem != 0 {
		v.words[words-1] &= (1 << uint(rem)) - 1
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
