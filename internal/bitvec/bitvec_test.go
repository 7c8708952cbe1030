package bitvec

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	tests := []struct {
		name string
		n    int
		want int
	}{
		{"zero", 0, 0},
		{"one", 1, 1},
		{"word boundary", 64, 64},
		{"word plus one", 65, 65},
		{"negative clamps", -5, 0},
		{"large", 4096, 4096},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := New(tt.n).Len(); got != tt.want {
				t.Errorf("New(%d).Len() = %d, want %d", tt.n, got, tt.want)
			}
		})
	}
}

func TestSetGetFlip(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Fatalf("bit %d set in fresh vector", i)
		}
		v.Set(i, true)
		if !v.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		if got := v.Flip(i); got {
			t.Fatalf("Flip(%d) returned true, want false", i)
		}
		if v.Get(i) {
			t.Fatalf("bit %d still set after Flip", i)
		}
	}
	if v.PopCount() != 0 {
		t.Fatalf("PopCount = %d, want 0", v.PopCount())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	v := New(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestUint64RoundTrip(t *testing.T) {
	v := New(100)
	v.SetUint64(3, 17, 0x1abcd)
	got := v.Uint64(3, 17)
	want := uint64(0x1abcd) & ((1 << 17) - 1)
	if got != want {
		t.Errorf("Uint64(3,17) = %#x, want %#x", got, want)
	}
	if v.Uint64(0, 3) != 0 {
		t.Errorf("bits below offset disturbed: %#x", v.Uint64(0, 3))
	}
	if v.Uint64(20, 10) != 0 {
		t.Errorf("bits above range disturbed: %#x", v.Uint64(20, 10))
	}
}

func TestFromUint64(t *testing.T) {
	v := FromUint64(0xdeadbeef, 32)
	if got := v.Uint64(0, 32); got != 0xdeadbeef {
		t.Errorf("round trip = %#x, want 0xdeadbeef", got)
	}
	if v.Len() != 32 {
		t.Errorf("Len = %d, want 32", v.Len())
	}
	// Truncation to n bits.
	v2 := FromUint64(0xff, 4)
	if got := v2.Uint64(0, 4); got != 0xf {
		t.Errorf("truncated = %#x, want 0xf", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	v := New(70)
	v.Set(69, true)
	c := v.Clone()
	c.Set(0, true)
	if v.Get(0) {
		t.Error("mutating clone changed original")
	}
	if !c.Get(69) {
		t.Error("clone lost bit 69")
	}
}

func TestCopyFrom(t *testing.T) {
	a, b := New(16), New(16)
	b.SetUint64(0, 16, 0xbeef)
	if err := a.CopyFrom(b); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !a.Equal(b) {
		t.Error("vectors differ after CopyFrom")
	}
	if err := a.CopyFrom(New(8)); err == nil {
		t.Error("CopyFrom with length mismatch did not error")
	}
}

func TestXorErrorPattern(t *testing.T) {
	ref := FromUint64(0b1010, 4)
	obs := FromUint64(0b0011, 4)
	diff, err := ref.Xor(obs)
	if err != nil {
		t.Fatalf("Xor: %v", err)
	}
	if got := diff.Uint64(0, 4); got != 0b1001 {
		t.Errorf("Xor = %#b, want 1001", got)
	}
	if _, err := ref.Xor(New(5)); err == nil {
		t.Error("Xor with length mismatch did not error")
	}
}

func TestOnesPositions(t *testing.T) {
	v := New(200)
	want := []int{0, 63, 64, 100, 199}
	for _, i := range want {
		v.Set(i, true)
	}
	got := v.OnesPositions()
	if len(got) != len(want) {
		t.Fatalf("OnesPositions len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("OnesPositions[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestShiftIn(t *testing.T) {
	// 4-bit chain initialised to 1011 (bit0=1). Shifting in 0 four times
	// should emit 1,1,0,1 and leave the chain all zero.
	v := FromUint64(0b1011, 4)
	var outs []bool
	for i := 0; i < 4; i++ {
		outs = append(outs, v.ShiftIn(false))
	}
	wantOuts := []bool{true, true, false, true}
	for i := range wantOuts {
		if outs[i] != wantOuts[i] {
			t.Errorf("shift out %d = %v, want %v", i, outs[i], wantOuts[i])
		}
	}
	if v.PopCount() != 0 {
		t.Errorf("chain not empty after shifting: %v", v)
	}
	// Shifting a full pattern back in restores it after Len cycles.
	for _, b := range []bool{true, true, false, true} {
		v.ShiftIn(b)
	}
	if got := v.Uint64(0, 4); got != 0b1011 {
		t.Errorf("reloaded chain = %#b, want 1011", got)
	}
}

func TestShiftInZeroLength(t *testing.T) {
	v := New(0)
	if got := v.ShiftIn(true); got != true {
		t.Error("zero-length chain must pass input through (bypass behaviour)")
	}
}

func TestStringFormat(t *testing.T) {
	v := FromUint64(0x0a3f, 12)
	if got := v.String(); got != "12:0xa3f" {
		t.Errorf("String = %q, want %q", got, "12:0xa3f")
	}
	if got := New(0).String(); got != "0:0x0" {
		t.Errorf("empty String = %q, want %q", got, "0:0x0")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 65, 130, 1000} {
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary(n=%d): %v", n, err)
		}
		var u Vector
		if err := u.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary(n=%d): %v", n, err)
		}
		if !v.Equal(&u) {
			t.Errorf("round trip mismatch at n=%d", n)
		}
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	var v Vector
	if err := v.UnmarshalBinary(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("UnmarshalBinary(nil) = %v, want ErrTruncated", err)
	}
	good, _ := FromUint64(0xff, 8).MarshalBinary()
	if err := v.UnmarshalBinary(good[:9]); !errors.Is(err, ErrTruncated) {
		t.Errorf("UnmarshalBinary(truncated body) = %v, want ErrTruncated", err)
	}
	// A length header no body can honour: negative as an int (the first
	// used to panic in make, the second to yield Len() == -1), one bit
	// past what the body holds, and the largest int.
	for _, hdr := range []uint64{
		0xFFFFFFFFFFFFFF80, 0xFFFFFFFFFFFFFFFF, 1<<63 + 5, 1 << 63, 1<<63 - 1, 1<<63 - 64, 129,
	} {
		data := make([]byte, 8+16)
		binary.LittleEndian.PutUint64(data, hdr)
		u := *FromUint64(5, 3)
		if err := u.UnmarshalBinary(data); !errors.Is(err, ErrTruncated) {
			t.Errorf("header %#x over 16 bytes: error %v, want ErrTruncated", hdr, err)
		}
		if u.Len() != 3 || u.Uint64(0, 3) != 5 {
			t.Errorf("header %#x: a refused decode changed the vector to %v", hdr, &u)
		}
	}
	data := make([]byte, 8+16)
	binary.LittleEndian.PutUint64(data, 128)
	if err := v.UnmarshalBinary(data); err != nil || v.Len() != 128 {
		t.Errorf("128 bits in 16 bytes: Len %d, error %v", v.Len(), err)
	}
}

// Property: whatever the eight header bytes, UnmarshalBinary returns an
// error or a vector whose length is the header's and fits the body.
func TestPropertyUnmarshalAnyHeader(t *testing.T) {
	f := func(hdr uint64, shift uint8, body uint8) bool {
		hdr >>= shift % 64
		data := make([]byte, 8+int(body))
		binary.LittleEndian.PutUint64(data, hdr)
		var v Vector
		if err := v.UnmarshalBinary(data); err != nil {
			return errors.Is(err, ErrTruncated) && v.Len() == 0
		}
		return v.Len() >= 0 && uint64(v.Len()) == hdr && (v.Len()+63)/64*8 <= int(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: flipping a bit twice restores the original vector.
func TestPropertyDoubleFlipIsIdentity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		orig := v.Clone()
		i := rng.Intn(n)
		v.Flip(i)
		v.Flip(i)
		return v.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: XOR of a vector with itself is all zeros, and PopCount of
// a XOR b counts exactly the differing positions.
func TestPropertyXorPopCount(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%300 + 1
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		diff := 0
		for i := 0; i < n; i++ {
			ab, bb := rng.Intn(2) == 1, rng.Intn(2) == 1
			a.Set(i, ab)
			b.Set(i, bb)
			if ab != bb {
				diff++
			}
		}
		self, err := a.Xor(a)
		if err != nil || self.PopCount() != 0 {
			return false
		}
		x, err := a.Xor(b)
		return err == nil && x.PopCount() == diff
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaskedDiff counts exactly the differing positions the mask
// covers, whether the mask is shorter or longer than the vectors.
func TestPropertyMaskedDiff(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n, m := int(nRaw)%300+1, int(mRaw)%400
		rng := rand.New(rand.NewSource(seed))
		a, b, mask := New(n), New(n), New(m)
		for i := 0; i < m; i++ {
			mask.Set(i, rng.Intn(2) == 1)
		}
		want := 0
		for i := 0; i < n; i++ {
			ab, bb := rng.Intn(2) == 1, rng.Intn(2) == 1
			a.Set(i, ab)
			b.Set(i, bb)
			if ab != bb && i < m && mask.Get(i) {
				want++
			}
		}
		got, err := a.MaskedDiff(b, mask)
		return err == nil && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, err := New(8).MaskedDiff(New(9), New(8)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// Property: shifting a vector completely out and back in through ShiftIn
// restores it (scan-chain read-modify-write with no modification).
func TestPropertyShiftRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		orig := v.Clone()
		outs := make([]bool, 0, n)
		for i := 0; i < n; i++ {
			outs = append(outs, v.ShiftIn(false))
		}
		for _, b := range outs {
			v.ShiftIn(b)
		}
		return v.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMarshalRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 1024
		rng := rand.New(rand.NewSource(seed))
		v := New(n)
		for i := 0; i < n; i++ {
			v.Set(i, rng.Intn(2) == 1)
		}
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var u Vector
		if err := u.UnmarshalBinary(data); err != nil {
			return false
		}
		return v.Equal(&u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkXor4096(b *testing.B) {
	v1, v2 := New(4096), New(4096)
	for i := 0; i < 4096; i += 3 {
		v1.Set(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v1.Xor(v2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalBinary(b *testing.B) {
	v := New(5412) // the THOR-S internal chain
	for i := 0; i < v.Len(); i += 3 {
		v.Set(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := v.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	data, _ := New(5412).MarshalBinary()
	var v Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}
