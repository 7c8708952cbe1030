package core

import (
	"fmt"
	"sort"
	"sync"

	"goofi/internal/campaign"
)

// The target registry replaces the per-target construction switches that
// used to live in cmd/goofi, goofid's job submission, and the shard
// worker: a target package registers itself once (in an init function)
// and every front end resolves it by name. Adding a target no longer
// touches flag parsing or the daemon — the paper's "Generic" claim made
// operational.

// TargetConfig carries free-form construction parameters from a front
// end to a target factory, so new targets can grow knobs (a victim
// binary path, an image size, a fast-path toggle) without new CLI or
// API surface.
type TargetConfig struct {
	// Params are target-specific key=value settings. Unknown keys are
	// ignored by targets that do not use them.
	Params map[string]string
}

// Param returns the named parameter or a default when unset.
func (c TargetConfig) Param(key, def string) string {
	if v, ok := c.Params[key]; ok && v != "" {
		return v
	}
	return def
}

// TargetInfo is one registered target system kind.
type TargetInfo struct {
	// Kind is the registry key ("scifi", "swifi-runtime", "proc", ...).
	// For the thor techniques the kind doubles as the algorithm name,
	// preserving the historical -technique CLI contract.
	Kind string
	// Aliases are alternative names resolving to this entry (the legacy
	// configure/submit kinds "swifi" and "pinlevel").
	Aliases []string
	// Description is one line for `goofi targets`.
	Description string
	// Algorithm names the fault injection algorithm the target runs by
	// default when the user selects the target without a technique.
	Algorithm string
	// Deterministic declares whether repeated runs of the same plan
	// produce byte-identical records (see TargetDeterministic).
	Deterministic bool
	// New builds a fresh target system (one per board).
	New func(cfg TargetConfig) (TargetSystem, error)
	// SystemData builds the configuration-phase TargetSystemData row
	// describing the target's injectable scan chains.
	SystemData func(name string, cfg TargetConfig) (*campaign.TargetSystemData, error)
}

var targetReg = struct {
	sync.Mutex
	m map[string]TargetInfo
}{m: make(map[string]TargetInfo)}

// RegisterTarget adds a target kind to the registry. It panics on a
// duplicate or invalid registration — registration runs from package
// init functions, where a conflict is a programming error.
func RegisterTarget(info TargetInfo) {
	if info.Kind == "" || info.New == nil {
		panic("core: RegisterTarget needs a kind and a factory")
	}
	targetReg.Lock()
	defer targetReg.Unlock()
	for _, name := range append([]string{info.Kind}, info.Aliases...) {
		if _, dup := targetReg.m[name]; dup {
			panic(fmt.Sprintf("core: target %q registered twice", name))
		}
		targetReg.m[name] = info
	}
}

// LookupTarget resolves a target kind or alias.
func LookupTarget(kind string) (TargetInfo, bool) {
	targetReg.Lock()
	defer targetReg.Unlock()
	info, ok := targetReg.m[kind]
	return info, ok
}

// ResolveTarget turns a (target kind, technique) pair, either of which
// may be empty, into a registry entry and an algorithm. It is the one
// defaulting rule every front end shares: a bare technique selects the
// like-named target (the historical -technique contract), a bare kind —
// or alias — runs its own default algorithm, and both empty means scifi.
func ResolveTarget(kind, technique string) (TargetInfo, Algorithm, error) {
	if kind == "" {
		kind = technique
	}
	if kind == "" {
		kind = SCIFI.Name
	}
	info, ok := LookupTarget(kind)
	if !ok {
		return TargetInfo{}, Algorithm{}, fmt.Errorf("unknown target kind %q (see 'goofi targets')", kind)
	}
	if technique == "" {
		technique = info.Algorithm
	}
	alg, ok := Algorithms()[technique]
	if !ok {
		return TargetInfo{}, Algorithm{}, fmt.Errorf("unknown technique %q", technique)
	}
	return info, alg, nil
}

// Targets lists the registered target kinds sorted by kind (aliases are
// folded into their canonical entry).
func Targets() []TargetInfo {
	targetReg.Lock()
	defer targetReg.Unlock()
	seen := make(map[string]bool, len(targetReg.m))
	out := make([]TargetInfo, 0, len(targetReg.m))
	for _, info := range targetReg.m {
		if seen[info.Kind] {
			continue
		}
		seen[info.Kind] = true
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// NondeterministicTarget is the capability a target declares to relax
// the byte-identity guarantee: the injection plan (seq → fault +
// trigger) stays seed-deterministic and replayable, but outcomes are
// statistical (a live OS process is subject to scheduling, ASLR-free
// but cache- and interrupt-timing dependent). Targets without the
// method keep the full differential guarantees.
type NondeterministicTarget interface {
	Deterministic() bool
}

// TargetDeterministic reports whether a target's outcomes are
// byte-reproducible. Targets that do not declare the capability are
// deterministic — the historical contract every thor-backed suite pins.
func TargetDeterministic(ts TargetSystem) bool {
	if d, ok := ts.(NondeterministicTarget); ok {
		return d.Deterministic()
	}
	return true
}
