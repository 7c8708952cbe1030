// Package swifi implements software implemented fault injection targets
// for THOR-S: pre-runtime SWIFI, where "faults are injected into the
// program and data areas of the target system before it starts to execute"
// (paper §1), and runtime SWIFI, where the workload is stopped at a
// trigger point and the fault is applied through software (a paper §4
// extension). Both drive the board SCIFI drives (scifi.Board) and define
// only what differs: the fault space, a loadWorkload that keeps a host-side
// copy of the image for the board to download, and injectFault. A memory
// fault is never reasserted, whatever its kind: the word stays as written
// until the workload overwrites it.
//
// Unlike SCIFI, SWIFI reaches only memory — registers, flags and cache
// state are inaccessible. The comparison between the two fault spaces is
// exactly the point of the E3 experiment.
package swifi

import (
	"fmt"

	"goofi/internal/bitvec"
	"goofi/internal/campaign"
	"goofi/internal/core"
	"goofi/internal/scanchain"
	"goofi/internal/scifi"
	"goofi/internal/thor"
)

// MemoryChainName is the pseudo scan-chain name exposing target memory as
// a fault location space for SWIFI campaigns.
const MemoryChainName = "memory"

// Target is the THOR-S SWIFI target system interface. The fault space is
// the workload image: fault bit offsets index into memory starting at
// address 0, bit 0 being the MSB of the word at address 0 (matching the
// big-endian memory layout exposed in MemoryMap). One target serves both
// techniques: the algorithm's listing says when InjectFault runs, before
// the image is downloaded (pre-runtime) or at the trigger point (runtime).
type Target struct {
	*scifi.Board

	// image is this experiment's host-side copy of the workload image: what
	// pre-runtime injection mutates and what the board downloads.
	image []byte
	// downloaded: WriteMemory has run since LoadWorkload, so a fault now
	// goes into target memory, not into the image.
	downloaded bool
}

// New returns a SWIFI target.
func New(cfg thor.Config, opts ...scifi.Option) *Target {
	t := &Target{}
	t.Board = scifi.NewBoard(cfg, scifi.Technique{
		Name:  "thor-s-swifi",
		Image: func() []byte { return t.image },
	}, opts...)
	return t
}

// MemoryMap builds the SWIFI fault-location map over an image of the
// given size: one location per 32-bit word, named mem.<hexaddr>.
func MemoryMap(imageBytes int) scanchain.Map {
	words := (imageBytes + 3) / 4
	m := scanchain.Map{Chain: MemoryChainName, Length: words * 32}
	for w := 0; w < words; w++ {
		m.Locations = append(m.Locations, scanchain.Location{
			Name:   fmt.Sprintf("mem.%04x", w*4),
			Offset: w * 32,
			Width:  32,
		})
	}
	return m
}

// TargetSystemData returns the configuration-phase record for a SWIFI
// target over an image of the given size.
func TargetSystemData(name string, imageBytes int) *campaign.TargetSystemData {
	return &campaign.TargetSystemData{
		Name:         name,
		TestCardName: "thor-s-swifi-monitor",
		Chains:       []scanchain.Map{MemoryMap(imageBytes)},
		Description:  "THOR-S board accessed via software implemented fault injection",
	}
}

// LoadWorkload assembles the workload and takes a host-side copy of its
// image (the assembled program is shared by every experiment and board),
// into the buffer the last experiment's copy used.
func (t *Target) LoadWorkload(ex *core.Experiment) error {
	if err := t.Board.LoadWorkload(ex); err != nil {
		return err
	}
	t.image = append(t.image[:0], t.Program().Image...)
	t.downloaded = false
	return nil
}

// WriteMemory downloads the image; a fault injected after it is a runtime
// one.
func (t *Target) WriteMemory(ex *core.Experiment) error {
	t.downloaded = true
	return t.Board.WriteMemory(ex)
}

// InjectFault applies the fault. Before WriteMemory (pre-runtime SWIFI) it
// mutates the host-side image; after it (runtime SWIFI, called after
// WaitForBreakpoint) it mutates target memory in place.
func (t *Target) InjectFault(ex *core.Experiment) error {
	if ex.Fault == nil {
		return nil
	}
	switch {
	case !t.downloaded:
		if t.image == nil {
			return fmt.Errorf("swifi: InjectFault before LoadWorkload")
		}
		// The configured fault space may extend past the assembled
		// image: the "program and data areas" include memory the
		// program only writes at run time. Zero-extend to cover it.
		t.image = extendForFault(t.image, ex.Fault.Bits)
		if err := applyToBytes(ex, t.image); err != nil {
			return err
		}
	default:
		if !t.AtInjectionPoint() {
			// The workload terminated before the trigger fired; the
			// fault's time point never occurred.
			return nil
		}
		// Read-modify-write the affected words in target memory.
		span := len(extendForFault(t.image, ex.Fault.Bits))
		cpu := t.CPU()
		mem, err := cpu.ReadMemory(0, span)
		if err != nil {
			return err
		}
		if err := applyToBytes(ex, mem); err != nil {
			return err
		}
		if err := cpu.LoadMemory(0, mem); err != nil {
			return err
		}
		// Keep caches coherent word by word for the touched bits, as a
		// debug-monitor write would (runtime SWIFI goes through the
		// memory system).
		for _, b := range ex.Fault.Bits {
			addr := uint32(b/32) * 4
			w, err := wordAt(mem, addr)
			if err != nil {
				return err
			}
			if err := cpu.WriteWord32(addr, w); err != nil {
				return err
			}
		}
	}
	ex.Injected = true
	return nil
}

// extendForFault zero-extends an image so every fault bit maps to a byte.
func extendForFault(image []byte, bits []int) []byte {
	need := len(image)
	for _, b := range bits {
		if n := (b/32 + 1) * 4; n > need {
			need = n
		}
	}
	if need > len(image) {
		image = append(image, make([]byte, need-len(image))...)
	}
	return image
}

// applyToBytes applies the fault to a byte image using the MemoryMap bit
// layout (bit 0 of a location = MSB of the word, matching big-endian
// memory).
func applyToBytes(ex *core.Experiment, image []byte) error {
	if err := ex.Fault.Validate(len(image) * 8); err != nil {
		return err
	}
	v := bitvec.New(len(image) * 8)
	for i, by := range image {
		v.SetUint64(i*8, 8, uint64(reverseByte(by)))
	}
	ex.Fault.Apply(v, ex.RNG)
	for i := range image {
		image[i] = reverseByte(byte(v.Uint64(i*8, 8)))
	}
	return nil
}

// reverseByte mirrors bit order so that bit offset 0 of the fault space is
// the most significant bit of byte 0.
func reverseByte(b byte) byte {
	b = b>>4 | b<<4
	b = b>>2&0x33 | b<<2&0xCC
	b = b>>1&0x55 | b<<1&0xAA
	return b
}

func wordAt(mem []byte, addr uint32) (uint32, error) {
	if int(addr)+4 > len(mem) {
		return 0, fmt.Errorf("swifi: word at %#x outside image", addr)
	}
	return uint32(mem[addr])<<24 | uint32(mem[addr+1])<<16 |
		uint32(mem[addr+2])<<8 | uint32(mem[addr+3]), nil
}

// Interface compliance.
var _ core.TargetSystem = (*Target)(nil)
