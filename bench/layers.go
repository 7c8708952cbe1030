package main

// From spans and counters to named per-layer metrics.

import (
	"encoding/json"
	"fmt"
	"strings"

	"goofi/internal/campaign"
)

// phaseTotals sums span durations over the five phases of an experiment
// (seq >= 0) inside the target, and over the scheduler's waits on the
// sink. Reference-run spans (seq -1) are kept apart: the scheduler's own
// reference span already covers them.
type phaseTotals struct {
	reset       int64 // InitTestCard, LoadWorkload, WriteMemory, RunWorkload
	toInjection int64 // WaitForBreakpoint
	inject      int64 // ReadScanChain, InjectFault, WriteScanChain before the run resumes
	run         int64 // WaitForTermination
	observe     int64 // ReadMemory and the final ReadScanChain
	reference   int64 // every target call of a reference run

	sinkLog        int64 // LogExperiment of experiments
	sinkCheckpoint int64
	sinkFlush      int64
}

func totals(log *spanLog) phaseTotals {
	var t phaseTotals
	// Spans of one experiment are appended in call order, so a scan read
	// seen after the experiment's WaitForTermination is the final one.
	terminated := make(map[int32]bool)
	for _, s := range log.spans {
		switch {
		case s.op == opSinkCheckpoint:
			t.sinkCheckpoint += s.durNS
		case s.op == opSinkFlush:
			t.sinkFlush += s.durNS
		case s.op > opReadMemory:
			if s.op == opSinkLog && s.seq >= 0 {
				t.sinkLog += s.durNS
			}
		case s.seq < 0:
			t.reference += s.durNS
		case s.op <= opRunWorkload:
			t.reset += s.durNS
		case s.op == opWaitForBreakpoint:
			t.toInjection += s.durNS
		case s.op == opWaitForTermination:
			t.run += s.durNS
			terminated[s.seq] = true
		case s.op == opReadMemory || terminated[s.seq]:
			t.observe += s.durNS
		default:
			t.inject += s.durNS
		}
	}
	return t
}

// targetNS is the time experiments spent inside the target.
func (t *phaseTotals) targetNS() int64 {
	return t.reset + t.toInjection + t.inject + t.run + t.observe
}

// sinkNS is the time the scheduler waited on the sink outside the
// reference run: per-experiment logging, cursor saves, flushes.
func (t *phaseTotals) sinkNS() int64 { return t.sinkLog + t.sinkCheckpoint + t.sinkFlush }

// samplesMS collects one op's span durations in milliseconds.
func samplesMS(log *spanLog, o op) []float64 {
	var out []float64
	for _, s := range log.spans {
		if s.op == o {
			out = append(out, float64(s.durNS)/1e6)
		}
	}
	return out
}

// experimentMS is each experiment's wall inside the target, first
// method start to last method end, from the decorator's spans.
func experimentMS(log *spanLog) []float64 {
	type window struct{ start, end int64 }
	wins := make(map[int32]*window)
	for _, s := range log.spans {
		if s.seq < 0 || s.op > opReadMemory {
			continue
		}
		w := wins[s.seq]
		if w == nil {
			wins[s.seq] = &window{s.startNS, s.startNS + s.durNS}
			continue
		}
		if s.startNS < w.start {
			w.start = s.startNS
		}
		if end := s.startNS + s.durNS; end > w.end {
			w.end = end
		}
	}
	out := make([]float64, 0, len(wins))
	for _, w := range wins {
		out = append(out, float64(w.end-w.start)/1e6)
	}
	return out
}

// cursorBytes is the size of the JSON cursor the scheduler rewrites at
// every checkpoint once all n experiments are complete.
func cursorBytes(n int) float64 {
	cp := campaign.Checkpoint{Campaign: campaignName, PlanHash: strings.Repeat("0", 64),
		Seed: 1, Experiments: n, Reference: true, Completed: make([]int, n)}
	for i := range cp.Completed {
		cp.Completed[i] = i
	}
	blob, _ := json.Marshal(&cp) // a struct of strings, ints and bools cannot fail
	return float64(len(blob))
}

// retries sums the shard transport's retry counter family.
func retries(delta map[string]float64) float64 {
	total := 0.0
	for k, v := range delta {
		if strings.HasPrefix(k, "goofi_shard_transport_retries_total{") {
			total += v
		}
	}
	return total
}

// layerInput is everything one traced invocation measured.
type layerInput struct {
	// solo is the traced in-process campaign and twin its untraced run.
	// On sort-shard2 they cover one worker's half of the plan.
	solo, twin *scenario
	// sharded is the in-process sharded run: the workload itself at full
	// size on sort-shard2 (shardedTwin its untraced run), the transport
	// kernel at a fifth of that size elsewhere.
	sharded, shardedTwin *shardScenario
	// real is a sharded run through the real binaries, for the
	// per-process CPU split.
	real *sample
	// probeSmall and probeLarge are the cursor size-scaling probe.
	probeSmall, probeLarge *scenario

	thorMcyclesPerS, snapshotUS, restoreUS float64
	barrierMS                              []float64
	encodeInsertUS                         float64

	// hostProbeS are the host-speed probes taken as the traced run began
	// and ended.
	hostProbeS []float64
}

// timing reports a sampled duration as prefix_p50 and prefix_tail, and
// notes which percentile the tail is.
func timing(m map[string]float64, notes map[string]string, prefix string, samples []float64) {
	m[prefix+"_p50"] = median(samples)
	pct, at := tail(samples)
	m[prefix+"_tail"] = at
	notes[prefix+"_tail"] = fmt.Sprintf("p%g of %d samples", pct, len(samples))
}

// layerMetrics names every per-layer metric. On sort-shard2 the target
// spans and the module counters come from the sharded run's workers;
// everywhere else from the solo scenario.
func layerMetrics(in *layerInput, shardWorkload bool) (m map[string]float64, notes map[string]string) {
	m = make(map[string]float64, len(perLayer))
	notes = make(map[string]string)
	solo := in.solo
	st := totals(solo.log)

	// The scheduler's own phase spans.
	for _, ph := range solo.phases {
		switch ph.Phase {
		case "plan":
			m["core.plan_ms"] = float64(ph.WallNS) / 1e6
		case "reference":
			m["core.reference_ms"] = float64(ph.WallNS) / 1e6
		}
	}
	planRefNS := int64((m["core.plan_ms"] + m["core.reference_ms"]) * 1e6)

	// Where target time and module counters are taken from.
	log, delta, n := solo.log, solo.delta, float64(solo.n)
	tt := st
	if shardWorkload {
		log, delta, n = in.sharded.log, in.sharded.delta, float64(in.sharded.n)
		tt = totals(log)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	m["target.reset_us_per_exp"] = us(tt.reset)
	m["target.to_injection_us_per_exp"] = us(tt.toInjection)
	m["target.inject_us_per_exp"] = us(tt.inject)
	m["target.run_us_per_exp"] = us(tt.run)
	m["target.observe_us_per_exp"] = us(tt.observe)

	timing(m, notes, "core.exp_ms", experimentMS(log))

	if shardWorkload {
		// Worker time that is not the target: scheduler, local sink,
		// planning and reference per lease, lease and report round trips.
		targetAll := tt.targetNS() + tt.reference
		m["core.sched_self_us_per_exp"] = us(in.sharded.workerNS - targetAll)
		m["trace.attributed_frac"] = float64(targetAll) / float64(in.sharded.workerNS)
		m["trace.overhead_ratio"] = float64(in.sharded.cpuNS) / float64(in.shardedTwin.cpuNS)
	} else {
		named := planRefNS + st.targetNS() + st.sinkNS()
		m["core.sched_self_us_per_exp"] = us(solo.runNS - named)
		m["trace.attributed_frac"] = float64(named) / float64(solo.runNS)
		m["trace.overhead_ratio"] = float64(solo.cpuNS) / float64(in.twin.cpuNS)
	}

	cycles := delta["goofi_scheduler_cycles_emulated_total"]
	m["scifi.restores_per_exp"] = delta["goofi_scifi_forward_restores_total"] / n
	m["scanchain.bits_per_exp"] = delta["goofi_scanchain_bits_shifted_total"] / n
	m["scanchain.exchanges_per_exp"] = delta["goofi_scanchain_scan_exchanges_total"] / n
	m["proctarget.singlesteps_per_exp"] = delta["goofi_proc_singlesteps_total"] / n
	m["thor.cycles_per_exp"] = cycles / n
	m["thor.cycles_saved_per_exp"] = delta["goofi_scheduler_cycles_saved_total"] / n
	if cycles > 0 {
		m["thor.ns_per_cycle"] = float64(tt.toInjection+tt.run) / cycles
	}
	if b := delta["goofi_campaign_sink_batches_total"]; b > 0 {
		m["campaign.rows_per_batch"] = delta["goofi_campaign_sink_records_total"] / b
	}
	m["sqldb.wal_bytes_per_exp"] = delta["goofi_sqldb_wal_bytes_total"] / n
	m["sqldb.wal_records_per_exp"] = delta["goofi_sqldb_wal_records_total"] / n
	m["sqldb.barriers_per_kexp"] = delta["goofi_sqldb_wal_barriers_total"] / n * 1000
	m["sqldb.insert_s_per_kexp"] = delta["goofi_sqldb_insert_seconds_sum"] / n * 1000

	// The sink, seen from the scheduler's side of the solo scenario.
	sn := float64(solo.n)
	ckpts := samplesMS(solo.log, opSinkCheckpoint)
	m["campaign.sink_log_us_per_exp"] = float64(st.sinkLog) / 1e3 / sn
	timing(m, notes, "campaign.sink_checkpoint_ms", ckpts)
	m["campaign.sink_checkpoint_us_per_exp"] = float64(st.sinkCheckpoint) / 1e3 / sn

	// The finished store at full size.
	atN := solo
	if shardWorkload {
		atN = in.sharded.back
	}
	m["campaign.cursor_bytes_at_n"] = cursorBytes(atN.camp.NumExperiments)
	m["sqldb.checkpoint_ms_at_n"] = float64(atN.checkpointNS) / 1e6
	m["sqldb.open_ms_at_n"] = float64(atN.openNS) / 1e6
	m["analysis.classify_ms_at_n"] = float64(atN.classifyNS) / 1e6

	// Kernels.
	m["thor.kernel_mcycles_per_s"] = in.thorMcyclesPerS
	m["thor.snapshot_us"] = in.snapshotUS
	m["thor.restore_us"] = in.restoreUS
	timing(m, notes, "sqldb.barrier_ms", in.barrierMS)
	m["campaign.encode_insert_us_per_row"] = in.encodeInsertUS

	probe := func(sc *scenario) (walBytes, ckptUS float64) {
		pn := float64(sc.n)
		t := totals(sc.log)
		return sc.delta["goofi_sqldb_wal_bytes_total"] / pn, float64(t.sinkCheckpoint) / 1e3 / pn
	}
	var small, large float64
	m["sqldb.wal_bytes_per_exp_2k"], small = probe(in.probeSmall)
	m["sqldb.wal_bytes_per_exp_20k"], large = probe(in.probeLarge)
	m["campaign.sink_checkpoint_us_per_exp_2k"] = small
	m["campaign.sink_checkpoint_us_per_exp_20k"] = large
	if small > 0 {
		m["campaign.cursor_growth_ratio"] = large / small
	}

	// Transport and merge of the sharded path.
	shn := float64(in.sharded.n)
	var wire float64
	var reports []float64
	for _, c := range in.sharded.calls {
		wire += float64(c.reqBytes + c.respBytes)
		if c.action == "report" {
			reports = append(reports, float64(c.durNS)/1e6)
		}
	}
	m["server.submit_ms"] = float64(in.sharded.submitNS) / 1e6
	m["shard.wire_bytes_per_exp"] = wire / shn
	m["shard.calls_per_kexp"] = float64(len(in.sharded.calls)) / shn * 1000
	timing(m, notes, "shard.report_ms", reports)
	m["shard.retries_per_kexp"] = retries(in.sharded.delta) / shn * 1000
	rn := float64(in.real.n)
	m["server.coordinator_cpu_s_per_kexp"] = in.real.coordCPUS / rn * 1000
	m["shard.worker_cpu_s_per_kexp"] = in.real.workerCPUS / rn * 1000

	// Not the program: how fast the host was while all of the above ran.
	// Per-layer timings are printed as the clock read them.
	m["host.probe_ms"] = median(in.hostProbeS) * 1e3
	notes["host.probe_ms"] = fmt.Sprintf("%.3f of the reference host's %.0f ms", median(in.hostProbeS)/refProbeS, refProbeS*1e3)
	return m, notes
}
