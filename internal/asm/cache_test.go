package asm

import "testing"

func TestAssembleCachedSharesProgram(t *testing.T) {
	src := `
		ldi r1, 42
		halt
	`
	a, err := AssembleCached(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleCached(src)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same source assembled twice: cache did not share the Program")
	}
	direct, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Image) != len(a.Image) {
		t.Errorf("cached image %d bytes, direct %d", len(a.Image), len(direct.Image))
	}
}

func TestAssembleCachedDistinguishesSources(t *testing.T) {
	a, err := AssembleCached("ldi r1, 1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleCached("ldi r1, 2\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different sources returned the same cached Program")
	}
}

func TestAssembleCachedErrorsNotCached(t *testing.T) {
	if _, err := AssembleCached("bogus r1"); err == nil {
		t.Fatal("expected assembly error")
	}
	// A second attempt re-assembles and reports the error again.
	if _, err := AssembleCached("bogus r1"); err == nil {
		t.Fatal("expected assembly error on second attempt")
	}
}

func TestImageSize(t *testing.T) {
	n, err := ImageSize("ldi r1, 42\nhalt")
	if err != nil || n != 8 {
		t.Errorf("ImageSize = %d, %v; want two words", n, err)
	}
	if _, err := ImageSize("bogus instr"); err == nil {
		t.Error("bad source accepted")
	}
}
