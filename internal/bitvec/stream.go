package bitvec

import "fmt"

// Writer and Reader move a vector's whole contents front to back, field by
// field, through a 64-bit accumulator: each word of the vector is stored
// or loaded once, where a SetUint64/Uint64 per field range-checks, reads,
// masks and writes one or two words every time. A device captures its
// scan chain into a vector through a Writer and applies one back through a
// Reader (thor.ScanReadInto, thor.ScanWrite).
//
// Both are small values whose methods return the advanced value, in the
// manner of append:
//
//	w := v.Writer()
//	w = w.Put(32, pc)
//	w = w.Put(4, flags)
//	err := w.Flush()
//
// Held that way and inlined, the accumulator and the position stay in
// registers across a few hundred fields; behind a pointer receiver they
// are loaded and stored around every field, which measures 2.4 times
// slower on a 340-field chain.

// Writer fills a vector sequentially from bit 0.
type Writer struct {
	v    *Vector
	acc  uint64 // bits put and not yet stored, first bit lowest
	fill uint   // how many: below 64 between calls
	wi   int    // the word of v that acc becomes
}

// Writer returns a writer positioned at bit 0 of v. Until Flush returns,
// the contents of v are unspecified.
func (v *Vector) Writer() Writer { return Writer{v: v} }

// Put appends the low n bits of x, n in [1, 64], and returns the advanced
// writer. Putting past the vector's last word panics, as indexing does.
func (w Writer) Put(n uint, x uint64) Writer {
	x &= 1<<n - 1
	w.acc |= x << w.fill
	w.fill += n
	if w.fill >= 64 {
		w.v.words[w.wi] = w.acc
		w.wi++
		w.fill -= 64
		w.acc = x >> (n - w.fill)
	}
	return w
}

// Flush stores the bits still in the accumulator and reports whether the
// fields put add up to the vector's length — the one check a sequence of
// Puts gets, in place of a range check per field. Whatever was put, no bit
// at or past Len is left set.
func (w Writer) Flush() error {
	v := w.v
	if w.fill > 0 && w.wi < len(v.words) {
		v.words[w.wi] = w.acc
	}
	if rem := v.n % 64; rem != 0 {
		v.words[len(v.words)-1] &= 1<<uint(rem) - 1
	}
	if put := w.wi*64 + int(w.fill); put != v.n {
		return fmt.Errorf("bitvec: %d bits streamed into a vector of %d", put, v.n)
	}
	return nil
}

// Reader takes a vector apart sequentially from bit 0.
type Reader struct {
	v    *Vector
	acc  uint64 // bits loaded and not yet returned, next bit lowest
	have uint   // how many
	wi   int    // the next word of v to load
}

// Reader returns a reader positioned at bit 0 of v.
func (v *Vector) Reader() Reader { return Reader{v: v} }

// Get returns the advanced reader and the next n bits, n in [1, 64], the
// first of them lowest. The bits between Len and the end of the last word
// read as zero; getting past that word panics, as indexing does.
func (r Reader) Get(n uint) (Reader, uint64) {
	x := r.acc
	if n <= r.have {
		r.acc >>= n
		r.have -= n
	} else {
		next := r.v.words[r.wi]
		r.wi++
		x |= next << r.have
		r.acc = next >> (n - r.have)
		r.have += 64 - n
	}
	return r, x & (1<<n - 1)
}
