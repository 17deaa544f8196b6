package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running ccserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startServer execs ccserve on an ephemeral loopback port with the given
// flags and returns once /healthz first answers 200, with the time that
// took (the setup_s sample).
func startServer(ctx context.Context, bin string, flags []string, logPath string, hc *http.Client) (*server, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stdout = pw
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, 0, fmt.Errorf("starting ccserve: %w", err)
	}
	pw.Close()
	s := &server{cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()

	// The first stdout line announces the bound address; the rest of
	// stdout is drained until the process exits.
	addr := make(chan string, 1)
	go func() {
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		if sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				a := line[i+len("listening on "):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				addr <- a
			}
		}
		close(addr)
		io.Copy(io.Discard, pr)
	}()

	fail := func(err error) (*server, time.Duration, error) {
		s.stop()
		return nil, 0, err
	}
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case a, ok := <-addr:
		if !ok {
			return fail(fmt.Errorf("ccserve did not announce its address (see %s)", logPath))
		}
		s.base = "http://" + a
	case <-s.exited:
		return fail(fmt.Errorf("ccserve exited during startup: %v (see %s)", s.err, logPath))
	case <-timeout.C:
		return fail(fmt.Errorf("ccserve did not start within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			return fail(fmt.Errorf("ccserve exited during startup: %v (see %s)", s.err, logPath))
		case <-timeout.C:
			return fail(fmt.Errorf("ccserve /healthz did not answer 200 within 30s"))
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (ccserve drains and exits), escalating to SIGKILL
// after 30 s, and waits for the process to end. Idempotent.
func (s *server) stop() {
	if s == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// counters is one /metrics scrape: every sample line, keyed by the metric
// name with its label set as exposed.
type counters map[string]float64

func (s *server) scrape(hc *http.Client) (counters, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	c := counters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] = v
		}
	}
	return c, sc.Err()
}

// sum adds every series of the named metric (all label sets).
func (c counters) sum(name string) float64 {
	total := 0.0
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// delta is after.sum(name) - before.sum(name).
func delta(before, after counters, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// cpuTime is the process's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	f := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+2:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const ticksPerSecond = 100 // USER_HZ, fixed on Linux
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// peakRSS is the process's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
