package core

import (
	"context"
	"fmt"

	"goofi/internal/campaign"
	"goofi/internal/faultmodel"
	"goofi/internal/telemetry"
	"goofi/internal/trigger"
)

// The one assembly. `goofi run`/`goofi resume`, goofid's job executor and
// the shard worker all turn a stored campaign into a running Runner the
// same way — resolve the target, put a batching sink in front of the
// store (or take the caller's), wire the options, start from a clean slate
// or from the durable cursor, and finish in one order — so they do it here,
// once, and a campaign submitted to the daemon or split over workers is the
// CLI's campaign by construction, not by parallel maintenance. NewRunner and
// the RunnerOptions stay the library constructor for callers that bring
// their own target and sink (tests, examples, goofi-experiments, bench/).

// RunSpec describes one run of a stored campaign.
type RunSpec struct {
	// Store holds the campaign; rows, cursors and spans go to it. Sink, when
	// set, receives the rows instead and Store may be nil: the run then
	// keeps nothing — no cursor recovered or saved, nothing deleted — and
	// what survives a crash is the caller's business (the shard worker's
	// sink hands each row to its coordinator, whose store is the only one).
	Store    *campaign.Store
	Sink     ResultSink
	Campaign *campaign.Campaign
	Target   *campaign.TargetSystemData

	// TargetKind and Technique select the registered target system and the
	// algorithm (ResolveTarget's rule); TargetParams configure the target.
	TargetKind   string
	Technique    string
	TargetParams map[string]string

	// Boards is the campaign's board budget; Fleet, when set, is the
	// shared pool the boards are leased from.
	Boards int
	Fleet  *Fleet
	// Checkpoint is the number of experiments between cursor saves, each a
	// durability barrier; <= 0, or a caller's Sink, saves none. A resume
	// still recovers from the durable rows, but without the plan-hash
	// guard the stored cursor carries.
	Checkpoint int
	// NoForward runs every experiment cold (and so prunes nothing).
	NoForward bool
	// Retry is the fault-tolerance policy; the zero value aborts on the
	// first harness error.
	Retry RetryPolicy
	// Resume continues from whatever an interrupted run left durable in
	// the store (CampaignRun.Cursor) instead of deleting it first. The
	// reference run runs again and logs nothing when the cursor has it
	// (WithResume). With a caller's Sink there is no store to ask, and
	// Resume changes nothing.
	Resume bool
	// ShardLo/ShardHi restrict the run to a range of the plan (hi 0 = all
	// of it).
	ShardLo, ShardHi int

	Tracer   *telemetry.Tracer
	Progress *telemetry.Progress
	// Filter is the pre-injection filter. It shapes the plan, so a resumed
	// run must pass the one the interrupted run had.
	Filter func(faultmodel.Fault, trigger.Spec) bool
}

// RunOptions are the run options a submission carries: declared here once,
// embedded in goofid's SubmitRequest, the shard coordinator's config and the
// lease it grants, and handed on whole — submission → coordinator → lease —
// until RunSpec turns them into the run they describe. The JSON tags are the
// submission's and the lease's wire keys, in the lease's order.
type RunOptions struct {
	// Technique selects the injection algorithm (scifi, swifi-preruntime,
	// swifi-runtime, pin-level) and TargetKind the registered target system
	// or alias; either may be empty (ResolveTarget's rule).
	Technique  string `json:"technique,omitempty"`
	TargetKind string `json:"targetKind,omitempty"`
	// TargetParams carries target-specific key=value configuration (e.g.
	// "victim" for proc targets).
	TargetParams map[string]string `json:"targetParams,omitempty"`
	// NoForward disables checkpoint fast-forwarding.
	NoForward bool `json:"noForward,omitempty"`
	// Retry policy knobs (both zero = fail-fast).
	MaxRetries            int `json:"maxRetries,omitempty"`
	BoardFailureThreshold int `json:"boardFailureThreshold,omitempty"`
}

// RunSpec starts the spec of a run with these options; the caller adds what
// is its own — where the rows go, the boards, the range.
func (o RunOptions) RunSpec() RunSpec {
	return RunSpec{
		TargetKind: o.TargetKind, Technique: o.Technique, TargetParams: o.TargetParams,
		NoForward: o.NoForward,
		Retry: RetryPolicy{MaxRetries: o.MaxRetries,
			BoardFailureThreshold: o.BoardFailureThreshold},
	}
}

// CampaignRun is an assembled run: Run it, then Finish it; Close it on
// every path.
type CampaignRun struct {
	Runner *Runner
	// Cursor is what a resumed run continues from: the recovered durable
	// cursor, or nil when there is none (Resume unset, or nothing durable
	// yet).
	Cursor *campaign.Checkpoint

	spec RunSpec
	sink *campaign.BatchingSink // nil when the caller brought its own
}

// Assemble builds the run a spec describes. It changes nothing in the
// store beyond what RecoverCursor prunes (step rows of experiments that
// died mid-run); a fresh run's deletes wait for Run.
func Assemble(spec RunSpec) (*CampaignRun, error) {
	info, alg, err := ResolveTarget(spec.TargetKind, spec.Technique)
	if err != nil {
		return nil, err
	}
	// Build the runner's board eagerly so a bad target configuration
	// fails here with a real error. Later constructions reuse the same
	// config, so a failure there is a programming error, which the
	// runner's recovery layer converts to a wedge.
	cfg := TargetConfig{Params: spec.TargetParams}
	target, err := info.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("target %q: %w", info.Kind, err)
	}
	factory := func() TargetSystem {
		ts, err := info.New(cfg)
		if err != nil {
			panic(fmt.Sprintf("target %q factory: %v", info.Kind, err))
		}
		return ts
	}

	cr := &CampaignRun{spec: spec}
	// A caller's sink: nothing here outlives the run, so there is no cursor
	// to recover or to save.
	sink := spec.Sink
	if sink == nil {
		if spec.Resume {
			cp, err := spec.Store.RecoverCursor(spec.Campaign.Name)
			if err != nil {
				return nil, err
			}
			if cp.Reference || len(cp.Ranges) > 0 {
				cr.Cursor = cp
			}
		}
		// Batch LoggedSystemState writes: the scheduler flushes the sink at
		// pauses and on termination, and Close drains it.
		cr.sink = campaign.NewBatchingSink(spec.Store, 0)
		sink = cr.sink
	}
	opts := []RunnerOption{
		WithSink(sink),
		WithBoards(spec.Boards, factory),
		WithFleet(spec.Fleet),
		WithForwarding(ForwardConfig{Disabled: spec.NoForward}),
		WithRetryPolicy(spec.Retry),
		WithResume(cr.Cursor),
		WithShardRange(spec.ShardLo, spec.ShardHi),
		WithTelemetry(spec.Tracer, spec.Progress),
		WithInjectionFilter(spec.Filter),
	}
	if cr.sink != nil && spec.Checkpoint > 0 {
		opts = append(opts, WithCheckpoints(spec.Checkpoint))
	}
	cr.Runner, err = NewRunner(target, alg, spec.Campaign, spec.Target, opts...)
	if err != nil {
		cr.Close()
		return nil, err
	}
	return cr, nil
}

// Resumed is how many experiments the interrupted run had already made
// durable.
func (cr *CampaignRun) Resumed() int {
	if cr.Cursor == nil {
		return 0
	}
	return cr.Cursor.Ranges.Len()
}

// Run executes the campaign. A run into the store that does not resume
// first clears the slate: the previous results, phase spans and any stale
// cursor go.
func (cr *CampaignRun) Run(ctx context.Context) (*Summary, error) {
	if cr.sink != nil && !cr.spec.Resume {
		if err := cr.spec.Store.DeleteRun(cr.spec.Campaign.Name); err != nil {
			return nil, err
		}
	}
	return cr.Runner.Run(ctx)
}

// Finish is the clean teardown of a run into the store that returned
// without error: drain the sink, store the phase spans, and clear the
// cursor once the campaign is complete (a stopped one keeps it, for
// resume). It reports whether the campaign is complete. Compacting the
// database is left to whoever opened it.
func (cr *CampaignRun) Finish(sum *Summary) (complete bool, err error) {
	if err := cr.sink.Close(); err != nil {
		return false, err
	}
	st, name := cr.spec.Store, cr.spec.Campaign.Name
	if err := st.LogTelemetry(name, cr.spec.Tracer.Drain()); err != nil {
		return false, err
	}
	complete = cr.Resumed()+sum.Experiments >= cr.spec.Campaign.NumExperiments
	if complete {
		err = st.DeleteCheckpoint(name)
	}
	return complete, err
}

// Close drains the sink, making everything the run logged durable in the
// store; a caller's sink is the caller's to drain. It is idempotent and
// safe after Finish.
func (cr *CampaignRun) Close() error {
	if cr.sink == nil {
		return nil
	}
	return cr.sink.Close()
}
