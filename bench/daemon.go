package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one spawned ssspd or ssspr. Every daemon is registered in live
// until stopped, so any exit path — return, error, signal — can kill what is
// left; Pdeathsig covers the one path that runs no Go code (SIGKILL of the
// benchmark itself).
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]struct{}{}
)

// spawn starts bin in dir with its output appended to dir/<logName>. addr is
// the host:port the daemon was told to listen on.
func spawn(dir, bin, logName, addr string, args ...string) (*daemon, error) {
	logf, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, done: make(chan struct{})}
	liveMu.Lock()
	live[d] = struct{}{}
	liveMu.Unlock()
	go func() {
		cmd.Wait() // exit status is irrelevant: stop kills, and an early death shows up as failed requests
		close(d.done)
	}()
	return d, nil
}

// stop kills the daemon and returns once it has been reaped. Idempotent.
func (d *daemon) stop() {
	liveMu.Lock()
	_, running := live[d]
	delete(live, d)
	liveMu.Unlock()
	if !running {
		return
	}
	d.cmd.Process.Kill() // already-exited is the only error, and that is fine
	<-d.done
	d.log.Close()
}

// stopAll kills every daemon still running.
func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// portFree reports whether addr can be listened on right now.
func portFree(addr string) bool {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return false
	}
	l.Close()
	return true
}

// awaitAnswer polls GET url until it answers 200, the daemon exits, or ctx
// ends, and returns the body. Connection refusals come back in microseconds,
// so a 1 ms pause bounds the polling error on a cold-start time.
func awaitAnswer(ctx context.Context, c *http.Client, d *daemon, url string) ([]byte, error) {
	for {
		body, status, err := get(ctx, c, url)
		if err == nil && status == http.StatusOK {
			return body, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("daemon exited before answering %s (see %s)", url, d.log.Name())
		case <-ctx.Done():
			return nil, fmt.Errorf("no answer from %s: %w (last: status %d, %v)", url, ctx.Err(), status, err)
		case <-time.After(time.Millisecond):
		}
	}
}

func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	return do(ctx, c, http.MethodGet, url, nil)
}

// do performs one request and reads the whole body.
func do(ctx context.Context, c *http.Client, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// newClient returns a keep-alive client sized for a handful of closed-loop
// callers; compression is off so bytes on the wire are the daemon's bytes.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			DisableCompression:  true,
		},
	}
}

// clockTick is the kernel's USER_HZ. It is 100 on every Linux platform Go
// supports; Go has no sysconf to ask.
const clockTick = 100

// cpuSeconds returns the user+system CPU time a process has used, from
// /proc/<pid>/stat fields 14 and 15.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; everything after its
	// closing parenthesis is space-separated, starting at field 3.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable CPU times in /proc/%d/stat", pid)
	}
	return float64(ut+st) / clockTick, nil
}

// peakRSSMB returns a process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// loadavg1 is the 1-minute load average.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed file: the value is advisory
	return v
}
