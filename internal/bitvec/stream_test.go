package bitvec

import (
	"math/rand"
	"strings"
	"testing"
)

// randomFields cuts [0, n) into fields of 1 to 64 bits.
func randomFields(rng *rand.Rand, n int) []int {
	var widths []int
	for n > 0 {
		w := min(n, rng.Intn(64)+1)
		if rng.Intn(4) == 0 {
			w = min(n, []int{1, 32, 63, 64}[rng.Intn(4)])
		}
		widths = append(widths, w)
		n -= w
	}
	return widths
}

// TestStreamMatchesRandomAccess: a vector written field by field through a
// Writer equals the one SetUint64 builds, over a vector that held something
// else, and a Reader returns what Uint64 does — for any cut into fields,
// values wider than their field included.
func TestStreamMatchesRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		n := rng.Intn(400)
		if round%10 == 0 {
			n = 64 * rng.Intn(5)
		}
		widths := randomFields(rng, n)
		got, want := New(n), New(n)
		for i := range got.words {
			got.words[i] = rng.Uint64()
		}
		if rem := n % 64; rem != 0 {
			got.words[len(got.words)-1] &= 1<<uint(rem) - 1
		}
		w, off := got.Writer(), 0
		vals := make([]uint64, len(widths))
		for i, width := range widths {
			x := rng.Uint64() // Put keeps the low width bits, as SetUint64 does
			vals[i] = x
			w = w.Put(uint(width), x)
			want.SetUint64(off, width, x)
			off += width
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("n %d fields %v: %v", n, widths, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n %d fields %v: streamed %v, random access %v", n, widths, got, want)
		}
		r, off := want.Reader(), 0
		for i, width := range widths {
			var x uint64
			r, x = r.Get(uint(width))
			if wantX := want.Uint64(off, width); x != wantX || (width < 64 && x != vals[i]&(1<<uint(width)-1)) {
				t.Fatalf("n %d fields %v: field %d read %#x, want %#x", n, widths, i, x, wantX)
			}
			off += width
		}
	}
}

// TestStreamFlushCountsAndMasks: Flush reports a sequence of fields that is
// not the vector's length, and however the writer was used no bit at or
// past Len is set afterwards.
func TestStreamFlushCountsAndMasks(t *testing.T) {
	tailClean := func(v *Vector) bool {
		rem := v.n % 64
		return rem == 0 || v.words[len(v.words)-1]>>uint(rem) == 0
	}
	for _, c := range []struct {
		n      int
		widths []uint
		want   string
	}{
		{100, []uint{64, 36}, ""},
		{100, []uint{64, 35}, "99 bits streamed into a vector of 100"},
		{100, []uint{64, 37}, "101 bits streamed into a vector of 100"},
		{100, []uint{64, 64}, "128 bits streamed into a vector of 100"},
		{100, []uint{64}, "64 bits streamed into a vector of 100"},
		{128, []uint{64, 63}, "127 bits streamed into a vector of 128"},
		{0, nil, ""},
		{5, nil, "0 bits streamed into a vector of 5"},
	} {
		v := New(c.n)
		w := v.Writer()
		for _, width := range c.widths {
			w = w.Put(width, ^uint64(0))
		}
		err := w.Flush()
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("n %d fields %v: Flush = %v, want %q", c.n, c.widths, err, c.want)
		}
		if !tailClean(v) {
			t.Errorf("n %d fields %v: bits past Len set: %x", c.n, c.widths, v.words)
		}
	}
	// Past the last word there is nowhere to put a field.
	defer func() {
		if recover() == nil {
			t.Error("a Put past the vector's last word did not panic")
		}
	}()
	New(64).Writer().Put(64, 1).Put(64, 1)
}

func TestStreamDoesNotAllocate(t *testing.T) {
	v := New(5412)
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		w := v.Writer()
		for i := 0; i < 5412/33; i++ {
			w = w.Put(33, uint64(i))
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r := v.Reader()
		for i := 0; i < 5412/33; i++ {
			var x uint64
			r, x = r.Get(33)
			sink += x
		}
	}); n != 0 {
		t.Errorf("a streamed write and read allocate %v times", n)
	}
	_ = sink
}
