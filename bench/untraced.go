package main

// The untraced side: one campaign at a time through the real binaries,
// each phase a fresh child process, on a WAL-backed store with the CLI's
// default flush policy. This is where every end-to-end metric comes from.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"syscall"
	"time"

	"goofi/internal/proctarget"
	"goofi/internal/server"
)

// sample is one measured campaign.
type sample struct {
	seed int64
	n    int

	setupS   float64
	runS     float64
	analyzeS float64
	run      usage // CPU and peak RSS summed over the run's processes
	// CPU of the set-up and analysis phases' processes, to tell their
	// computing from their waiting (hostspeed.go).
	setupCPUS, analyzeCPUS float64
	disk                   int64 // bytes in all stores after the run

	// Sharded runs only: the coordinator/worker CPU split.
	coordCPUS  float64
	workerCPUS float64

	rows       *rowSet
	reportHash string
	planHash   string // proc only: the plan hash `goofi run` printed
}

// prepared is a campaign that has been set up and is ready to run.
type prepared struct {
	w      *workload
	n      int
	seed   int64
	dir    string
	db     string // solo/proc: the database file
	setupS float64
	// setupCPUS is the CPU time of the set-up's processes; the daemon's
	// boot counts as all computing.
	setupCPUS float64

	// Sharded path: the booted daemon.
	kids   children
	daemon *child
	addr   string
}

func (p *prepared) close() { p.kids.killAll() }

// prepare runs the workload's set-up phase in a fresh directory and
// times it: configure + setup for the CLI paths (plus the ptrace probe
// for proc), daemon boot to /healthz for the sharded path.
func prepare(e *env, w *workload, n int, seed int64) (*prepared, error) {
	dir, err := e.dir(w.Name)
	if err != nil {
		return nil, err
	}
	p := &prepared{w: w, n: n, seed: seed, dir: dir, db: filepath.Join(dir, "lab.db")}
	start := time.Now()
	switch w.path {
	case pathSolo:
		_, u, err := runChild(e.goofi, "configure", "-db", p.db, "-target", "thor-board")
		if err != nil {
			return nil, err
		}
		p.setupCPUS += u.cpuS
	case pathProc:
		if err := proctarget.Probe(e.victim); err != nil {
			return nil, fmt.Errorf("proc-matmul cannot run here, ptrace probe failed: %w", err)
		}
		_, u, err := runChild(e.goofi, "configure", "-db", p.db, "-kind", "proc",
			"-target", procTarget, "-victim", e.victim)
		if err != nil {
			return nil, err
		}
		p.setupCPUS += u.cpuS
	case pathShard2:
		if err := p.bootDaemon(e); err != nil {
			p.close()
			return nil, err
		}
		p.setupS = time.Since(start).Seconds()
		p.setupCPUS = p.setupS
		return p, nil
	}
	setup := append([]string{"setup", "-db", p.db}, w.defineArgs(e, n, seed)...)
	_, u, err := runChild(e.goofi, setup...)
	if err != nil {
		return nil, err
	}
	p.setupCPUS += u.cpuS
	p.setupS = time.Since(start).Seconds()
	return p, nil
}

// bootDaemon starts goofid on a free loopback port and waits for
// /healthz to answer.
func (p *prepared) bootDaemon(e *env) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p.addr = ln.Addr().String()
	ln.Close()
	p.daemon, err = p.kids.start(filepath.Join(p.dir, "goofid.log"), e.goofid,
		"-addr", p.addr, "-data", filepath.Join(p.dir, "data"), "-boards", "2")
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goofid did not answer /healthz on %s within 10s", p.addr)
		}
		time.Sleep(time.Millisecond)
	}
}

var planHashRE = regexp.MustCompile(`fault plan ([0-9a-f]{64})`)

// measure runs the prepared campaign and its analysis, then verifies the
// store it left behind.
func (p *prepared) measure(e *env) (*sample, error) {
	defer p.close()
	s := &sample{seed: p.seed, n: p.n, setupS: p.setupS, setupCPUS: p.setupCPUS}
	var report string
	var err error
	if p.w.path == pathShard2 {
		report, err = p.runSharded(e, s)
	} else {
		report, err = p.runSolo(e, s)
	}
	if err != nil {
		return nil, err
	}
	s.reportHash = digest(report)
	if s.rows, err = readRows(p.db, p.n); err != nil {
		return nil, err
	}
	return s, nil
}

func (p *prepared) runSolo(e *env, s *sample) (string, error) {
	args := []string{"run", "-db", p.db, "-campaign", campaignName, "-boards", "1", "-quiet"}
	if p.w.path == pathProc {
		args = append(args, "-target", "proc")
	}
	out, u, err := runChild(e.goofi, args...)
	if err != nil {
		return "", err
	}
	s.runS, s.run = u.wallS, u
	if m := planHashRE.FindStringSubmatch(out); m != nil {
		s.planHash = m[1]
	}
	if s.disk, err = diskBytes(p.dir); err != nil {
		return "", err
	}
	report, u, err := runChild(e.goofi, "analyze", "-db", p.db, "-campaign", campaignName)
	if err != nil {
		return "", err
	}
	s.analyzeS, s.analyzeCPUS = u.wallS, u.cpuS
	return report, nil
}

// jobDeadline bounds how long a sharded campaign may take before the
// harness gives up on it.
const jobDeadline = 150 * time.Second

// jobState asks the daemon at addr for the campaign's state once. A
// failed or cancelled job is an error.
func jobState(addr string) (string, error) {
	resp, err := http.Get(fmt.Sprintf("http://%s/api/v1/campaigns/%s/%s", addr, tenantName, campaignName))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", err
	}
	if st.State == server.StateFailed || st.State == server.StateCancelled {
		return "", fmt.Errorf("sharded campaign ended %s: %s", st.State, st.Error)
	}
	return st.State, nil
}

// waitJobState polls until the job reaches one of the wanted states.
func waitJobState(addr string, want ...string) error {
	deadline := time.Now().Add(jobDeadline)
	for {
		state, err := jobState(addr)
		if err != nil {
			return err
		}
		for _, w := range want {
			if state == w {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sharded campaign stuck in state %q", state)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *prepared) runSharded(e *env, s *sample) (string, error) {
	start := time.Now()
	submit := append([]string{"submit", "-server", p.addr, "-tenant", tenantName,
		"-shards", "2", "-external-workers"}, p.w.defineArgs(e, p.n, p.seed)...)
	_, u, err := runChild(e.goofi, submit...)
	if err != nil {
		return "", err
	}
	s.run.add(u)
	// Workers start once the coordinator exists: a lease call that beats
	// it would sleep a whole retry interval and make the run bimodal.
	if err := waitJobState(p.addr, server.StateRunning, server.StateDone); err != nil {
		return "", err
	}
	var workers []*child
	var workerDirs []string
	for _, name := range []string{"w0", "w1"} {
		dir := filepath.Join(p.dir, name)
		cmd, err := p.kids.start(filepath.Join(p.dir, name+".log"), e.goofi, "shard-worker",
			"-server", p.addr, "-tenant", tenantName, "-campaign", campaignName,
			"-dir", dir, "-name", name)
		if err != nil {
			return "", err
		}
		workers = append(workers, cmd)
		workerDirs = append(workerDirs, dir)
	}
	// Workers exit when the coordinator reports the plan done, so waiting
	// for them needs no polling that would compete with them for the two
	// CPUs. A watchdog at the pace of `goofi submit -wait` kills them if
	// the job fails instead, which they would otherwise retry forever.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		deadline := time.Now().Add(jobDeadline)
		for {
			select {
			case <-watchdogDone:
				return
			case <-tick.C:
				if _, err := jobState(p.addr); err != nil || time.Now().After(deadline) {
					for _, w := range workers {
						_ = w.cmd.Process.Kill()
					}
					return
				}
			}
		}
	}()
	for _, w := range workers {
		u, err := w.wait()
		if err != nil {
			if _, jobErr := jobState(p.addr); jobErr != nil {
				return "", jobErr // the watchdog's reason for the kill
			}
			return "", fmt.Errorf("shard worker: %w", err)
		}
		s.workerCPUS += u.cpuS
		s.run.add(u)
	}
	// The job turns done once the coordinator has compacted its store.
	if err := waitJobState(p.addr, server.StateDone); err != nil {
		return "", err
	}
	s.runS = time.Since(start).Seconds()
	// The daemon keeps serving (the analysis below runs inside it), so
	// its share of the run is read from /proc at the run's end.
	coord, err := liveUsage(p.daemon.cmd.Process.Pid)
	if err != nil {
		return "", err
	}
	s.coordCPUS = coord.cpuS
	s.run.add(coord)
	if s.disk, err = diskBytes(append(workerDirs, filepath.Join(p.dir, "data"))...); err != nil {
		return "", err
	}
	report, u, err := runChild(e.goofi, "results", "-server", p.addr,
		"-tenant", tenantName, "-campaign", campaignName)
	if err != nil {
		return "", err
	}
	// The report is rendered inside the daemon; the client's wait for it
	// counts as computing.
	s.analyzeS, s.analyzeCPUS = u.wallS, u.wallS
	// Graceful stop: the tenant database is checkpointed and closed
	// before the verification below opens it.
	if err := p.daemon.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", err
	}
	if _, err := p.daemon.wait(); err != nil {
		return "", fmt.Errorf("goofid shutdown: %w", err)
	}
	p.db = filepath.Join(p.dir, "data", tenantName+".db")
	return report, nil
}
