package core

import (
	"context"
	"sync/atomic"
	"testing"

	"goofi/internal/campaign"
)

// registryTestTarget is a minimal registrable target.
type registryTestTarget struct{ Framework }

func regTestInfo(kind string, aliases ...string) TargetInfo {
	return TargetInfo{
		Kind:    kind,
		Aliases: aliases,
		New: func(TargetConfig) (TargetSystem, error) {
			return &registryTestTarget{Framework{TargetName: kind}}, nil
		},
		SystemData: func(name string, cfg TargetConfig) (*campaign.TargetSystemData, error) {
			return &campaign.TargetSystemData{Name: name}, nil
		},
	}
}

// registerForTest registers info for the test's duration. The registry is
// process-wide, and `go test -count N` runs every test N times in one
// process: a registration that outlived its test panicked the second run
// as a duplicate.
func registerForTest(t *testing.T, info TargetInfo) {
	t.Helper()
	RegisterTarget(info)
	t.Cleanup(func() {
		targetReg.Lock()
		defer targetReg.Unlock()
		for _, name := range append([]string{info.Kind}, info.Aliases...) {
			delete(targetReg.m, name)
		}
	})
}

func TestTargetRegistryLookupAndAliases(t *testing.T) {
	registerForTest(t, regTestInfo("registry-test-kind", "registry-test-alias"))
	if _, ok := LookupTarget("registry-test-kind"); !ok {
		t.Fatal("registered kind not found")
	}
	info, ok := LookupTarget("registry-test-alias")
	if !ok {
		t.Fatal("alias not resolved")
	}
	if info.Kind != "registry-test-kind" {
		t.Fatalf("alias resolved to %q", info.Kind)
	}
	if _, ok := LookupTarget("registry-test-missing"); ok {
		t.Fatal("lookup of unregistered kind succeeded")
	}
	// Targets folds aliases into their canonical entry and sorts.
	seen := 0
	var prev string
	for _, ti := range Targets() {
		if ti.Kind == "registry-test-kind" {
			seen++
		}
		if prev != "" && ti.Kind < prev {
			t.Fatalf("Targets not sorted: %q after %q", ti.Kind, prev)
		}
		prev = ti.Kind
	}
	if seen != 1 {
		t.Fatalf("canonical entry listed %d times, want 1", seen)
	}
}

func TestTargetRegistryDuplicatePanics(t *testing.T) {
	registerForTest(t, regTestInfo("registry-dup-kind"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	RegisterTarget(regTestInfo("registry-dup-kind"))
}

// TestTargetDeterministicDefault pins the capability contract: targets
// without a Deterministic method keep the historical byte-identity
// guarantee; declaring the method is the only way to relax it.
func TestTargetDeterministicDefault(t *testing.T) {
	if !TargetDeterministic(&registryTestTarget{}) {
		t.Fatal("plain target not deterministic by default")
	}
	if !TargetDeterministic(&detTrue{}) || TargetDeterministic(&detFalse{}) {
		t.Fatal("declared capability not honoured")
	}
}

type detTrue struct{ Framework }

func (*detTrue) Deterministic() bool { return true }

type detFalse struct{ Framework }

func (*detFalse) Deterministic() bool { return false }

// TestTargetRegistryResolve pins the one kind ← technique ← scifi defaulting
// rule every front end goes through. The core test binary links no
// target package, so the kinds the table names are registered here.
func TestTargetRegistryResolve(t *testing.T) {
	reg := func(kind, algorithm string, aliases ...string) {
		info := regTestInfo(kind, aliases...)
		info.Algorithm = algorithm
		registerForTest(t, info)
	}
	reg("scifi", SCIFI.Name)
	reg("swifi-runtime", RuntimeSWIFI.Name)
	reg("pin-level", PinLevel.Name, "pinlevel")
	reg("resolve-proc", RuntimeSWIFI.Name)
	reg("resolve-no-algorithm", "telepathy")

	for _, tc := range []struct {
		name            string
		kind, technique string
		wantKind        string
		wantAlg         string
		wantErr         bool
	}{
		{name: "kind given", kind: "resolve-proc", wantKind: "resolve-proc", wantAlg: RuntimeSWIFI.Name},
		{name: "kind from technique", technique: "swifi-runtime", wantKind: "swifi-runtime", wantAlg: RuntimeSWIFI.Name},
		{name: "both empty", wantKind: "scifi", wantAlg: SCIFI.Name},
		{name: "alias", kind: "pinlevel", wantKind: "pin-level", wantAlg: PinLevel.Name},
		{name: "unknown kind", kind: "alien", wantErr: true},
		{name: "unknown technique", kind: "scifi", technique: "telepathy", wantErr: true},
		{name: "kind whose default algorithm is unknown", kind: "resolve-no-algorithm", wantErr: true},
		{name: "technique overrides the kind's default", kind: "resolve-proc", technique: SCIFI.Name,
			wantKind: "resolve-proc", wantAlg: SCIFI.Name},
	} {
		info, alg, err := ResolveTarget(tc.kind, tc.technique)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: resolved to %q/%q, want an error", tc.name, info.Kind, alg.Name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if info.Kind != tc.wantKind || alg.Name != tc.wantAlg {
			t.Errorf("%s: resolved to %q/%q, want %q/%q", tc.name, info.Kind, alg.Name, tc.wantKind, tc.wantAlg)
		}
	}
}

// TestAssembleBuildsNoSpareBoard: Assemble builds one target to check the
// configuration and hands that one to the runner, instead of building the
// runner a second; a run on one board runs its reference on it, and the
// board takes it over after: no target more.
func TestAssembleBuildsNoSpareBoard(t *testing.T) {
	var built atomic.Int32
	registerForTest(t, TargetInfo{
		Kind:      "assemble-count",
		Algorithm: SCIFI.Name,
		New: func(TargetConfig) (TargetSystem, error) {
			built.Add(1)
			return newFakeTarget(), nil
		},
	})
	camp := fakeCampaign(4)
	cr, err := Assemble(RunSpec{Sink: plainSink{}, Campaign: camp, Target: fakeTSD(),
		TargetKind: "assemble-count", Boards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cr.Close()
	if n := built.Load(); n != 1 {
		t.Fatalf("Assemble built %d targets, want 1", n)
	}
	if _, err := cr.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 1 {
		t.Errorf("a run on one board built %d targets in all, want 1", n)
	}
}
