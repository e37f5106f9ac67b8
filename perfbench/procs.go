package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a child process the benchmark started: lbserver or lbworker.
type proc struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan error
}

// startProc launches bin with args, sending its output to logPath.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// If the benchmark dies without reaching stop, the child dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, log: log, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// stop sends SIGTERM, waits up to ten seconds for a drain, then kills, and
// returns once the process has exited.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// exited reports whether the process has ended (it must not, mid-run).
func (p *proc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// peakRSSMB is the process's VmHWM while it is still running.
func (p *proc) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
}

// freeAddr picks a loopback port the kernel considers free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitFor polls ok every 100µs until it returns true or the
// timeout passes.
func waitFor(timeout time.Duration, p *proc, ok func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return nil
		}
		if p.exited() {
			return errors.New("process exited during start-up")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("not ready after %s", timeout)
}

// logTail returns the last KiB of a child's log, for error messages.
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 1024 {
		data = data[len(data)-1024:]
	}
	return strings.TrimSpace(string(data))
}

// probeTimeout bounds one readiness request, so a server that accepts a
// connection and then hangs cannot stall start-up past waitFor's timeout.
const probeTimeout = 2 * time.Second

func healthy(client *http.Client, base string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// cpuStat is the machine-wide "cpu" line of /proc/stat, in clock ticks.
type cpuStat []float64

func readCPUStat() (cpuStat, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var st cpuStat
	for _, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		st = append(st, v)
	}
	return st, nil
}

// stealShare is the share of CPU time between before and st that the
// hypervisor ran other guests on this machine's virtual CPUs.
func (st cpuStat) stealShare(before cpuStat) float64 {
	var total float64
	for i := range st {
		total += st[i] - before[i]
	}
	return ratio(st[7]-before[7], total)
}

// promSnapshot is one scrape of /metrics: series key (name plus rendered
// labels) to value.
type promSnapshot map[string]float64

func scrape(ctx context.Context, client *http.Client, base string) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm reads the Prometheus text format: one "key value" sample per
// line, comments skipped.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parsing metric line %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta is after − before, series by series.
func (after promSnapshot) delta(before promSnapshot) promSnapshot {
	d := promSnapshot{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds the series of metric name whose labels contain every one of
// the given `key="value"` fragments.
func (s promSnapshot) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		match := true
		for _, want := range labels {
			if !strings.Contains(lbl, want) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// meanMS is a histogram's mean observation in milliseconds over the
// delta, 0 when nothing was observed.
func (s promSnapshot) meanMS(name string, labels ...string) float64 {
	count := s.sum(name+"_count", labels...)
	if count == 0 {
		return 0
	}
	return s.sum(name+"_sum", labels...) / count * 1000
}
