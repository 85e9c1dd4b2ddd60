package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// daemon is one triclustd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	log  *os.File
	base string // http://127.0.0.1:<port>
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startDaemon launches bin with the daemon's defaults on dataDir, its
// output appended to logPath. port 0 picks a free port.
func startDaemon(bin, dataDir, logPath string, port, procs int) (*daemon, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, fmt.Errorf("pick port: %w", err)
		}
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data-dir", dataDir,
		"-procs", strconv.Itoa(procs),
		"-journal-every", "64",
		"-conform-mode", "off")
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is expected
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) port() int {
	p, _ := strconv.Atoi(d.base[strings.LastIndexByte(d.base, ':')+1:])
	return p
}

// kill sends SIGKILL and waits until the process has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if it already exited
	<-d.done
	d.log.Close()
}

// waitReady polls GET /healthz until it answers 200, the daemon exits or
// the context ends.
func (d *daemon) waitReady(ctx context.Context) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("daemon exited before it was ready (see %s)", d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("daemon not ready: %w", ctx.Err())
		case <-time.After(250 * time.Microsecond):
		}
	}
}

// rssMB reads one of the daemon's resident-set figures, VmRSS (now) or
// VmHWM (peak), in MiB.
func (d *daemon) rssMB(field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, d.cmd.Process.Pid)
}

// cpuSeconds returns the CPU time the daemon's threads have run, summed
// from /proc/<pid>/task/*/schedstat in nanoseconds.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %s/%s/schedstat: %w", dir, t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// cpuTicks are the guest's cumulative CPU times from the first line of
// /proc/stat, in clock ticks.
type cpuTicks struct{ total, idle, steal float64 }

func readTicks() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cpuTicks{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		t.total += x
		switch i {
		case 3, 4:
			t.idle += x
		case 7:
			t.steal = x
		}
	}
	return t, nil
}

// stolenShare returns the share of the guest's busy CPU time between a
// and t that the hypervisor stole.
func (t cpuTicks) stolenShare(a cpuTicks) float64 {
	busy := (t.total - a.total) - (t.idle - a.idle)
	if busy <= 0 {
		return 0
	}
	return (t.steal - a.steal) / busy
}

// cpuMeter measures a daemon's CPU time over a window net of stolen
// time. On this guest a thread's run time goes on while the hypervisor
// has preempted its virtual CPU, so a busy host inflates it: across ten
// runs whose steal ranged from 1% to 36% of busy time, CPU per batch
// varied by up to 28%. How much of the stolen time the daemon's threads
// absorbed is not observable: none of it when it fell while they slept
// or woke, their whole share when it fell evenly over busy time. The
// meter takes the midpoint and scales the run time by one minus half
// the stolen share of busy time over the same window. Over ten runs per
// workload, that left CPU per batch with a quartile spread of 0.03 to
// 0.10 of the median, against 0.07 to 0.11 uncorrected and 0.06 to 0.23
// with the whole share removed.
type cpuMeter struct {
	cpu   float64
	ticks cpuTicks
}

// startCPU starts a window on d; a nil d starts one at a daemon's
// launch, when its CPU time is zero.
func startCPU(d *daemon) (cpuMeter, error) {
	var m cpuMeter
	var err error
	if d != nil {
		if m.cpu, err = d.cpuSeconds(); err != nil {
			return m, err
		}
	}
	m.ticks, err = readTicks()
	return m, err
}

// stop ends the window and returns d's CPU seconds in it, net of
// stolen time, and the stolen share of busy time.
func (m cpuMeter) stop(d *daemon) (cpu, stolen float64, err error) {
	c, err := d.cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	t, err := readTicks()
	if err != nil {
		return 0, 0, err
	}
	stolen = t.stolenShare(m.ticks)
	return (c - m.cpu) * (1 - stolen/2), stolen, nil
}
