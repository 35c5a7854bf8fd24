package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"xtalk/internal/serve"
)

// daemon is one xtalkd child process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	log  *os.File
	done chan error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin on addr with flags, logging to dir/xtalkd-<port>.log.
func startDaemon(bin, dir, addr string, flags []string) (*daemon, error) {
	_, port, _ := net.SplitHostPort(addr)
	logf, err := os.Create(filepath.Join(dir, "xtalkd-"+port+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping its daemons, the kernel
	// kills them rather than leaving them running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := onSpawnThread(cmd.Start); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start xtalkd: %w", err)
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	return d, nil
}

// spawnReqs feeds the one goroutine that starts daemons. It stays locked to
// its OS thread for the life of the process: the kernel sends a child its
// Pdeathsig when the thread that forked it exits, not the process, so
// daemons must not be forked from a thread that might go away first.
var spawnReqs = make(chan func())

func init() {
	go func() {
		runtime.LockOSThread()
		for f := range spawnReqs {
			f()
		}
	}()
}

// onSpawnThread runs start on the spawning thread and returns its error.
func onSpawnThread(start func() error) error {
	errc := make(chan error, 1)
	spawnReqs <- func() { errc <- start() }
	return <-errc
}

// waitReady polls /healthz until the daemon answers or timeout passes.
func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("xtalkd on %s exited during start-up: %v", d.addr, err)
		default:
		}
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("xtalkd on %s not ready after %v", d.addr, timeout)
}

// stop drains the daemon with SIGTERM, kills it if the drain overruns, and
// always waits for the process to end.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (d *daemon) url() string { return "http://" + d.addr + "/compile" }

// stats fetches /stats.
func (d *daemon) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get("http://" + d.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// cpuTime reads the process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are positional, utime and stime being fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed CPU times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks reads the machine's cumulative steal time from /proc/stat, in
// clock ticks: time the hypervisor ran someone else while a virtual CPU of
// this machine was ready to run.
func stealTicks() (int64, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("/proc/stat: no aggregate cpu line")
	}
	return strconv.ParseInt(f[8], 10, 64)
}
