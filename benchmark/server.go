package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mega/internal/httpfront"
)

const (
	readyTimeout = 30 * time.Second
	stopTimeout  = 15 * time.Second
	stderrTail   = 4 << 10
	userHz       = 100 // Linux USER_HZ: /proc/<pid>/stat counts CPU time in 1/100 s
)

// tailBuffer keeps the last stderrTail bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > stderrTail {
		t.buf = t.buf[len(t.buf)-stderrTail:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// server is one megaserve child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr *tailBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited closes
	readyS float64       // exec → first 200 from /readyz
}

// startServer execs bin on an ephemeral loopback port and waits until
// /readyz answers 200. dir receives the address file. A server that dies
// or is not ready within readyTimeout is an error carrying its stderr
// tail; no process is left behind on any error path.
func startServer(ctx context.Context, bin, dir string, args ...string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	os.Remove(addrFile)
	s := &server{stderr: &tailBuffer{}, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	s.cmd.Stderr = s.stderr
	s.cmd.Env = serverEnv()
	// The child must not outlive the benchmark, whatever kills it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()

	fail := func(why string) (*server, error) {
		s.kill()
		return nil, fmt.Errorf("megaserve %s: %s; stderr tail:\n%s", strings.Join(args, " "), why, s.stderr.String())
	}
	deadline := start.Add(readyTimeout)
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-s.exited:
			return fail(fmt.Sprintf("exited before ready (%v)", s.err))
		case <-ctx.Done():
			return fail("interrupted")
		default:
		}
		if time.Now().After(deadline) {
			return fail(fmt.Sprintf("not ready within %s", readyTimeout))
		}
		if s.url == "" {
			if raw, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
				s.url = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if s.url != "" {
			if resp, err := hc.Get(s.url + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.readyS = time.Since(start).Seconds()
					return s, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill ends the child at once and reaps it.
func (s *server) kill() {
	if s.cmd.Process != nil {
		s.cmd.Process.Kill()
	}
	<-s.exited
}

// stop drains the server with SIGTERM and demands the documented clean
// exit: status 0 and the "drained cleanly" line.
func (s *server) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("megaserve died before drain (%v); stderr tail:\n%s", s.err, s.stderr.String())
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("megaserve ignored SIGTERM for %s; stderr tail:\n%s", stopTimeout, s.stderr.String())
	}
	if s.err != nil {
		return fmt.Errorf("megaserve drain: %v; stderr tail:\n%s", s.err, s.stderr.String())
	}
	if out := s.stderr.String(); !strings.Contains(out, "drained cleanly") {
		return fmt.Errorf("megaserve exited 0 without a clean drain; stderr tail:\n%s", out)
	}
	return nil
}

// procStats reads the child's peak resident set (VmHWM) and consumed CPU
// time (utime + stime) from /proc.
func (s *server) procStats() (rssMB, cpuS float64, err error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	rssMB, err = parseVmHWM(string(status))
	if err != nil {
		return 0, 0, err
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	cpuS, err = parseCPUSeconds(string(stat))
	return rssMB, cpuS, err
}

// parseVmHWM extracts "VmHWM:   12345 kB" from /proc/<pid>/status as MB.
func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1000, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// parseCPUSeconds extracts utime + stime (fields 14 and 15) from
// /proc/<pid>/stat. The command name may hold spaces, so fields are
// counted from the closing parenthesis.
func parseCPUSeconds(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / userHz, errors.Join(err1, err2)
}

// newClient builds the repo's own client with retries disabled (a 429 or
// 503 is a failure, not a hidden retry) over one keep-alive connection.
// The tracing transport is always in place; it only acts on requests
// whose context a traced round armed.
func newClient(url string) (*httpfront.Client, error) {
	return httpfront.NewClient(httpfront.ClientConfig{
		BaseURL: url,
		HTTPClient: &http.Client{Transport: tracingTransport{base: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}}},
		MaxRetries: -1,
	})
}
