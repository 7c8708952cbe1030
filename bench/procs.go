package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is what one process (or a group of them) cost.
type usage struct {
	wallS float64
	cpuS  float64 // user + sys
	rssMB float64 // peak resident set
}

func (u *usage) add(o usage) {
	u.cpuS += o.cpuS
	u.rssMB += o.rssMB
}

// child is a started process with a watcher that polls its resident
// high-water mark. The kernel's own figure, ru_maxrss, cannot be used: a
// child's starts at the parent's resident size at the moment of exec
// (the harness's, which grows over a traced run), so it says nothing
// about a child smaller than its parent.
type child struct {
	cmd  *exec.Cmd
	stop chan struct{}
	peak chan float64
}

// rssPoll is how often a child's VmHWM is read. The mark only rises, so
// the last reading before exit misses at most this much growth.
const rssPoll = 20 * time.Millisecond

func startChild(cmd *exec.Cmd) (*child, error) {
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		peak := 0.0
		for {
			if mb, err := residentPeakMB(cmd.Process.Pid); err == nil && mb > peak {
				peak = mb
			}
			select {
			case <-c.stop:
				c.peak <- peak
				return
			case <-time.After(rssPoll):
			}
		}
	}()
	return c, nil
}

// wait reaps the child and returns its CPU time and observed peak RSS.
func (c *child) wait() (usage, error) {
	err := c.cmd.Wait()
	close(c.stop)
	u := usage{rssMB: <-c.peak}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		u.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	return u, err
}

// runChild runs one command to completion and returns its standard
// output and cost. A non-zero exit is an error carrying stderr.
func runChild(bin string, args ...string) (string, usage, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		return "", usage{}, err
	}
	u, err := c.wait()
	u.wallS = time.Since(start).Seconds()
	if err != nil {
		return "", usage{}, fmt.Errorf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String(), u, nil
}

// children tracks started background processes so every exit path stops
// and reaps them.
type children struct{ started []*child }

// start launches a background process with its output appended to logPath.
func (cs *children) start(logPath, bin string, args ...string) (*child, error) {
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	c, err := startChild(cmd)
	if err != nil {
		return nil, err
	}
	cs.started = append(cs.started, c)
	return c, nil
}

// killAll stops and reaps whatever is still running.
func (cs *children) killAll() {
	for _, c := range cs.started {
		if c.cmd.ProcessState == nil {
			_ = c.cmd.Process.Kill()
			_, _ = c.wait()
		}
	}
}

// residentPeakMB reads a live process's VmHWM.
func residentPeakMB(pid int) (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(v); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// liveUsage samples a running process from /proc: CPU consumed so far
// (clock ticks, 10ms resolution) and its resident high-water mark. It
// delimits the run phase of a daemon that keeps serving afterwards.
func liveUsage(pid int) (usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line, 12th and 13th after ") ".
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return usage{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return usage{}, fmt.Errorf("bad /proc/%d/stat times", pid)
	}
	const clockTick = 100 // USER_HZ on Linux
	u := usage{cpuS: (utime + stime) / clockTick}
	if u.rssMB, err = residentPeakMB(pid); err != nil {
		return usage{}, err
	}
	return u, nil
}
