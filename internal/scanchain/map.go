package scanchain

import (
	"fmt"
	"sort"
	"strings"
)

// Location is one named group of scan cells: a register, a flag, or a
// memory array element. The configuration phase (paper Fig 5) presents
// locations by name and position; read-only locations can be observed but
// not injected.
type Location struct {
	Name     string `json:"name"`
	Offset   int    `json:"offset"`
	Width    int    `json:"width"`
	ReadOnly bool   `json:"readOnly,omitempty"`
}

// End returns the first bit offset after the location.
func (l Location) End() int { return l.Offset + l.Width }

// Map describes one scan chain of a target system: its total length and
// its named locations. Maps are the content of the TargetSystemData
// database table.
type Map struct {
	Chain     string     `json:"chain"`
	Length    int        `json:"length"`
	Locations []Location `json:"locations"`
}

// Validate checks that every location lies within the chain, has positive
// width, a unique name, and that no two locations overlap.
func (m *Map) Validate() error {
	if m.Length <= 0 {
		return fmt.Errorf("scanchain: map %q has non-positive length %d", m.Chain, m.Length)
	}
	seen := make(map[string]bool, len(m.Locations))
	sorted := make([]Location, len(m.Locations))
	copy(sorted, m.Locations)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	prevEnd := 0
	prevName := ""
	for _, l := range sorted {
		if l.Name == "" {
			return fmt.Errorf("scanchain: map %q has unnamed location at offset %d", m.Chain, l.Offset)
		}
		if seen[l.Name] {
			return fmt.Errorf("scanchain: map %q has duplicate location %q", m.Chain, l.Name)
		}
		seen[l.Name] = true
		if l.Width <= 0 {
			return fmt.Errorf("scanchain: location %q has non-positive width %d", l.Name, l.Width)
		}
		if l.Offset < 0 || l.End() > m.Length {
			return fmt.Errorf("scanchain: location %q [%d,%d) outside chain of %d bits",
				l.Name, l.Offset, l.End(), m.Length)
		}
		if l.Offset < prevEnd {
			return fmt.Errorf("scanchain: location %q overlaps %q", l.Name, prevName)
		}
		prevEnd = l.End()
		prevName = l.Name
	}
	return nil
}

// Find returns the named location.
func (m *Map) Find(name string) (Location, error) {
	for _, l := range m.Locations {
		if l.Name == name {
			return l, nil
		}
	}
	return Location{}, fmt.Errorf("scanchain: map %q has no location %q", m.Chain, name)
}

// LocationAt returns the location containing bit offset, if any.
func (m *Map) LocationAt(offset int) (Location, bool) {
	for _, l := range m.Locations {
		if offset >= l.Offset && offset < l.End() {
			return l, true
		}
	}
	return Location{}, false
}

// Writable returns the locations that can be injected into.
func (m *Map) Writable() []Location {
	var out []Location
	for _, l := range m.Locations {
		if !l.ReadOnly {
			out = append(out, l)
		}
	}
	return out
}

// Select returns the locations whose dotted names match any of the given
// prefixes (e.g. "cpu" selects cpu.r0 … cpu.ccr; "icache.line3" selects
// that line's fields). An exact name is its own prefix. This implements the
// hierarchical selection list of the set-up phase (paper Fig 6).
func (m *Map) Select(prefixes ...string) []Location {
	var out []Location
	for _, l := range m.Locations {
		for _, p := range prefixes {
			if l.Name == p || strings.HasPrefix(l.Name, p+".") {
				out = append(out, l)
				break
			}
		}
	}
	return out
}

// Tree renders the locations as an indented hierarchy grouped on dotted
// name segments, as the set-up GUI of Fig 6 displays them.
func (m *Map) Tree() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%d bits)\n", m.Chain, m.Length)
	var lastParts []string
	for _, l := range m.Locations {
		parts := strings.Split(l.Name, ".")
		common := 0
		for common < len(parts)-1 && common < len(lastParts)-1 && parts[common] == lastParts[common] {
			common++
		}
		for d := common; d < len(parts)-1; d++ {
			fmt.Fprintf(&sb, "%s%s/\n", strings.Repeat("  ", d+1), parts[d])
		}
		ro := ""
		if l.ReadOnly {
			ro = " [read-only]"
		}
		fmt.Fprintf(&sb, "%s%s  bits %d..%d%s\n",
			strings.Repeat("  ", len(parts)), parts[len(parts)-1], l.Offset, l.End()-1, ro)
		lastParts = parts
	}
	return sb.String()
}
