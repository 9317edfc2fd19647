package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one admitd process under test.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port it listens on
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has exited
	exit   error         // cmd.Wait's result, set before done closes
}

// startDaemon launches admitd on a free loopback port and waits until it
// has published its address. Readiness (journal recovery) is waited for
// separately, so callers can time it.
func startDaemon(bin, work string, args ...string) (*daemon, error) {
	addrFile := filepath.Join(work, "admitd.addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-q"}, args...)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start admitd: %w", err)
	}
	go func() {
		d.exit = d.cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.addr = strings.TrimSpace(string(b))
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("admitd exited before listening: %v: %s", d.exit, d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("admitd did not publish its address within 20s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop asks the daemon to shut down gracefully and waits for it to exit,
// killing it if it does not within ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return nil
	}
	select {
	case <-d.done:
		if d.exit != nil {
			return fmt.Errorf("admitd exit: %v: %s", d.exit, d.stderr.String())
		}
		return nil
	case <-time.After(10 * time.Second):
		d.kill()
		return errors.New("admitd ignored SIGTERM for 10s")
	}
}

// kill stops the daemon at once, if it still runs, and waits for it to
// exit.
func (d *daemon) kill() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Kill() // it may exit first; the wait below settles either way
	<-d.done
}

// pid returns the daemon's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis are space-separated, utime and stime being the 12th and
	// 13th of them.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rssPoll is how often runPeak samples a child's peak resident set.
const rssPoll = 5 * time.Millisecond

// runPeak runs cmd to completion and returns its wall time and its peak
// resident set in MiB, sampled from /proc every rssPoll while it runs. The
// rusage maxrss the kernel reports at exit will not do: the child is
// started sharing this process's memory map, whose high-water mark exec
// carries into the child's.
func runPeak(cmd *exec.Cmd) (time.Duration, float64, error) {
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	tick := time.NewTicker(rssPoll)
	defer tick.Stop()
	peak := 0.0
	for {
		// The child may have exited since the last sample; a read that
		// fails then is simply not a sample.
		if mb, err := peakRSSMB(cmd.Process.Pid); err == nil && mb > peak {
			peak = mb
		}
		select {
		case err := <-done:
			return time.Since(t0), peak, err
		case <-tick.C:
		}
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// walBytes sums the sizes of a journal directory's write-ahead logs.
func walBytes(dir string) (int64, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range matches {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}
