package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a program under test running as a child process. It is
// started with Pdeathsig=SIGKILL from a goroutine locked to its OS
// thread for the child's whole life, so the kernel kills the child if
// this process dies for any reason — timeout, panic, or SIGKILL from a
// driver — not only on the paths that reach kill().
type child struct {
	pid    int
	start  time.Time
	stdout *bufio.Reader
	stderr *tailBuffer
	done   chan struct{} // closed when the process has been reaped
	proc   *os.Process
	pipe   *os.File // read end of the child's stdout
}

// tailBuffer keeps the last few KiB written, for diagnostics.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func startChild(bin string, args ...string) (*child, error) {
	c := &child{stderr: &tailBuffer{}, done: make(chan struct{})}
	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // Pdeathsig follows the starting thread
		defer close(c.done)
		cmd := exec.Command(bin, args...)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = c.stderr
		// An os.Pipe of our own rather than StdoutPipe: cmd.Wait closes
		// the latter under a reader that may still be draining it.
		r, w, err := os.Pipe()
		if err != nil {
			started <- err
			return
		}
		cmd.Stdout = w
		c.pipe, c.stdout = r, bufio.NewReader(r)
		c.start = time.Now()
		err = cmd.Start()
		w.Close()
		if err != nil {
			r.Close()
			started <- err
			return
		}
		c.pid, c.proc = cmd.Process.Pid, cmd.Process
		started <- nil
		cmd.Wait()
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	return c, nil
}

// waitLine reads the child's stdout until a line matches re and returns
// its first submatch (or the whole line).
func (c *child) waitLine(re *regexp.Regexp, timeout time.Duration) (string, error) {
	type result struct {
		s   string
		err error
	}
	ch := make(chan result, 1)
	go func() {
		for {
			line, err := c.stdout.ReadString('\n')
			if m := re.FindStringSubmatch(line); m != nil {
				ch <- result{s: m[len(m)-1]}
				return
			}
			if err != nil {
				ch <- result{err: fmt.Errorf("child exited before %q: %v; stderr: %s", re, err, c.stderr)}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.s, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("child printed no %q within %s; stderr: %s", re, timeout, c.stderr)
	}
}

// drain discards the rest of the child's stdout so it never blocks on a
// full pipe.
func (c *child) drain() { go io.Copy(io.Discard, c.stdout) }

// kill stops the child and waits until it has ended.
func (c *child) kill() {
	c.proc.Kill()
	<-c.done
	c.pipe.Close()
}

// wait waits for the child to exit by itself.
func (c *child) wait(timeout time.Duration) error {
	select {
	case <-c.done:
		c.pipe.Close()
		return nil
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("child still running after %s; killed; stderr: %s", timeout, c.stderr)
	}
}

var servingRE = regexp.MustCompile(`serving (http://[^/\s]+)/query`)

// startServer starts a fresh bluserve and waits until /healthz answers
// 200. The returned duration is setup_s: process start → first 200,
// i.e. generate + register + warm-up + listen.
func startServer(bin string, sf float64) (*child, string, time.Duration, error) {
	c, err := startChild(bin,
		"-sf", fmt.Sprint(sf), "-seed", fmt.Sprint(dataSeed),
		"-devices", fmt.Sprint(devices), "-degree", fmt.Sprint(degree),
		"-warmup", "1", "-addr", "127.0.0.1:0")
	if err != nil {
		return nil, "", 0, err
	}
	base, err := c.waitLine(servingRE, 60*time.Second)
	if err != nil {
		c.kill()
		return nil, "", 0, err
	}
	c.drain()
	// No keep-alive: the load's two connections stay the only ones.
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probe.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, base, time.Since(c.start), nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, "", 0, fmt.Errorf("%s/healthz not 200 within 10s (last error: %v)", base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// clkTck is the kernel's USER_HZ. It is 100 on every Linux port Go
// supports; /proc/<pid>/stat reports CPU time in these ticks.
const clkTck = 100

// parseStatCPU extracts user+system CPU seconds from the contents of
// /proc/<pid>/stat. The command name (field 2) may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat: no ')'")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after comm", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clkTck, nil
}

// parseStatusKB extracts a "Key:   123 kB" line from /proc/<pid>/status.
func parseStatusKB(status []byte, key string) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb, err
		}
	}
	return 0, fmt.Errorf("status: no %s", key)
}

// procCPU is the CPU seconds (user+sys) a process has used; pid 0 means
// this process.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(data)
}

// procPeakMB is the process's resident-set high-water mark in MB.
func procPeakMB(pid int) (float64, error) {
	data, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return kb / 1024, err
}

// rssSampler reads a process's resident set every 100 ms until stopped.
// The mean over a window is the memory metric: the high-water mark is a
// maximum of a garbage-collector saw-tooth and swings ±10 % between
// identical runs, the mean does not.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
}

func startRSSSampler(pid int) *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if data, err := os.ReadFile(procPath(pid, "status")); err == nil {
				if kb, err := parseStatusKB(data, "VmRSS"); err == nil {
					r.mb = append(r.mb, kb/1024)
				}
			}
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// mean stops the sampler and returns the mean resident set in MB.
func (r *rssSampler) mean() float64 {
	close(r.stop)
	<-r.done
	return mean(r.mb)
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return fmt.Sprintf("/proc/%d/%s", pid, file)
}

// buildServer compiles ./cmd/bluserve from the checkout's source into
// outDir/bin. The Go build cache makes every build after the first a
// sub-second no-op.
func buildServer(ctx context.Context) (string, error) {
	bin := outDir + "/bin/bluserve"
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bluserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bluserve: %v\n%s", err, out)
	}
	return bin, nil
}
