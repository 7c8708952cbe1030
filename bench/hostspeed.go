package main

// The host-speed probe. The sandbox the benchmark runs in is a few vCPUs
// of a shared host, and two things about that host move in phases that
// last minutes (README.md, "Steadiness"). Its speed for cache- and
// memory-touching code moves by 30-70%: every workload here slows by
// a similar factor in such a phase, CPU time along with wall time,
// while a register-only loop does not notice. And the time its disk takes
// to acknowledge an fsync moves between 0.05 and 5 ms, which a campaign
// that places a barrier every 16 experiments feels and one that emulates
// for milliseconds between barriers does not. No statistic taken inside
// a 25 s run removes a phase that outlasts the run, so every campaign
// stands between two runs of a fixed piece of work — the probe below —
// and its times are converted to what they would read on a host on which
// the probe takes its reference times. The probe is part of the
// benchmark, not of the program, so it is the same code on both sides of
// any comparison.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// The probe's two times on this class of host in a quiet phase: its
// computation, and one barrier (append 16 KB, fsync). They only fix the
// scale of what is reported.
const (
	refProbeS   = 0.135
	refBarrierS = 0.0003
)

// probeGain is the power of the probe's slowdown by which the program's
// computing slows. Between a slow phase of the host and a quiet one the
// probe's time moved by 1.14-1.32x and the four workloads' CPU and wall
// times by those factors to the power 1.2-1.8: the probe's three loops
// live in less memory than a campaign does, and under-read the host. 4/3
// is where the two errors it trades met on those runs, each at 13-17% —
// the shift of a ten-run median between the two phases (25% on
// cpu_s_per_kexp at gain 1) and the spread within the slow phase, which
// grows with the gain because the probe's own noise does.
const probeGain = 4.0 / 3

// probeBarriers is how many barriers one probe times.
const probeBarriers = 16

var probeSink uint64

// probeWork is the fixed piece of work: ordinary Go code of three of the
// kinds the measured program is made of — branchy comparison sorting,
// small allocations into a map (allocator and collector) and bulk copying
// (cache bandwidth). It returns the seconds the three took, data set-up
// excluded. (Dependent loads over 8 MB were tried as a fourth part and
// dropped: memory latency swings by 3x where the program swings by 1.5x,
// and it was the noisiest part when the host was steady.)
func probeWork() float64 {
	rng := rand.New(rand.NewSource(1))
	ints := make([]int, 150000)
	for i := range ints {
		ints[i] = rng.Int()
	}
	work := make([]int, len(ints))
	src, dst := make([]byte, 1<<20), make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src)

	start := time.Now()
	for r := 0; r < 4; r++ {
		copy(work, ints)
		sort.Ints(work)
	}
	probeSink += uint64(work[3])

	m := make(map[int][]byte)
	for i := 0; i < 400000; i++ {
		m[i%5000] = make([]byte, 64+i%200)
	}
	probeSink += uint64(len(m))

	for i := 0; i < 1200; i++ {
		copy(dst, src)
		src[i] = dst[i+1]
	}
	probeSink += uint64(dst[5])
	return time.Since(start).Seconds()
}

// probeBarrier appends to a file in dir the way the program's write-ahead
// log does and returns the mean seconds one append-and-fsync took.
func probeBarrier(dir string) (float64, error) {
	f, err := os.OpenFile(filepath.Join(dir, "host-probe.tmp"), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o600)
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 16<<10)
	start := time.Now()
	for i := 0; i < probeBarriers; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / probeBarriers, nil
}

// runProbeChild is the hidden --host-probe mode: do the work once in this
// fresh process, with dir for the barriers, and print the two times.
func runProbeChild(dir string) error {
	work := probeWork()
	barrier, err := probeBarrier(dir)
	if err != nil {
		return err
	}
	fmt.Printf("%.9f %.9f\n", work, barrier)
	return nil
}

// probe is one reading of the host.
type probe struct{ workS, barrierS float64 }

// hostProbe runs the probe in a fresh child of the harness's own binary —
// a fresh process like every campaign phase is, with a heap that starts
// empty — placing its barriers in the invocation's scratch directory.
func hostProbe(e *env) (probe, error) {
	self, err := os.Executable()
	if err != nil {
		return probe{}, err
	}
	out, _, err := runChild(self, "--host-probe", e.work)
	if err != nil {
		return probe{}, fmt.Errorf("host probe: %w", err)
	}
	var p probe
	if _, err := fmt.Sscan(out, &p.workS, &p.barrierS); err != nil || p.workS <= 0 || p.barrierS <= 0 {
		return probe{}, fmt.Errorf("host probe printed %q", out)
	}
	return p, nil
}

// slowdown is how much slower than the reference the host was between two
// probes that bracket a measurement: at computing, and at acknowledging a
// barrier.
type slowdown struct{ cpu, barrier float64 }

func between(before, after probe) slowdown {
	return slowdown{
		cpu:     math.Pow((before.workS+after.workS)/2/refProbeS, probeGain),
		barrier: (before.barrierS + after.barrierS) / 2 / refBarrierS,
	}
}

// wall converts a measured wall time to the reference host's. The part
// the measured processes spent on a CPU (at most all of it: several
// processes or threads can be on CPUs at once) scales with the host's
// computing speed; the rest they spent waiting, which for these programs
// is waiting for the disk to acknowledge a barrier.
func (s slowdown) wall(wallS, cpuS float64) float64 {
	on := math.Min(wallS, cpuS)
	return on/s.cpu + (wallS-on)/s.barrier
}
