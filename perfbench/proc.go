package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one process of the system under test, started from a binary
// built from the checkout.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // base URL the process announced

	mu       sync.Mutex
	tail     []byte // the last stderr bytes, for error messages
	done     chan struct{}
	stopOnce sync.Once
}

var listenRe = regexp.MustCompile(`on (http://[0-9.:]+)`)

// startServer starts a daemon or coordinator and waits for the line in
// which it announces its listen address.
func startServer(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go p.drain(stderr, addrc)
	select {
	case a := <-addrc:
		p.addr = a
		return p, nil
	case <-time.After(30 * time.Second):
	case <-p.done:
	}
	p.stop()
	return nil, fmt.Errorf("%s did not announce an address: %s", name, p.stderrTail())
}

// drain reads the process's stderr until EOF, keeping the tail and
// handing the first announced address to addrc.
func (p *proc) drain(r io.Reader, addrc chan<- string) {
	defer close(p.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	sent := false
	for sc.Scan() {
		line := sc.Bytes()
		if !sent {
			if m := listenRe.FindSubmatch(line); m != nil {
				addrc <- string(m[1])
				sent = true
			}
		}
		p.mu.Lock()
		p.tail = append(p.tail, line...)
		p.tail = append(p.tail, '\n')
		if len(p.tail) > 8<<10 {
			p.tail = p.tail[len(p.tail)-4<<10:]
		}
		p.mu.Unlock()
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.TrimSpace(string(p.tail))
}

// stop asks the process to drain (SIGTERM) and waits for it to exit,
// killing it after a grace period. Stopping twice is harmless.
func (p *proc) stop() {
	p.stopOnce.Do(func() {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		}
		p.cmd.Wait() //nolint:errcheck // exit status after SIGTERM is not a result
	})
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// sut is a running system under test: its processes and the front door
// clients talk to.
type sut struct {
	procs []*proc // front door last
	front string
}

func (s *sut) stop() {
	for i := len(s.procs) - 1; i >= 0; i-- {
		s.procs[i].stop()
	}
}

// peakRSSMB sums the processes' peaks: an upper bound on the system's.
func (s *sut) peakRSSMB() (float64, error) {
	total := 0.0
	for _, p := range s.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// env is where the benchmark finds its binaries and keeps its files.
type env struct {
	bin     string // directory of isampd, isampfleet and perfbench
	scratch string // per-run directory, removed at the end
}

// startDaemon starts isampd in its default configuration: obs off, two
// workers, no disk cache unless cacheDir is set.
func (e env) startDaemon(cacheDir string) (*sut, error) {
	args := []string{"-addr", "127.0.0.1:0", "-j", "2", "-obs", "off"}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	p, err := startServer("isampd", filepath.Join(e.bin, "isampd"), args...)
	if err != nil {
		return nil, err
	}
	return &sut{procs: []*proc{p}, front: p.addr}, nil
}

// startFleet starts two isampd workers, each with its own new disk
// cache, and an isampfleet coordinator with one slot per worker and a
// new CAS replica; otherwise every process keeps its defaults.
func (e env) startFleet() (*sut, error) {
	dir, err := os.MkdirTemp(e.scratch, "fleet-")
	if err != nil {
		return nil, err
	}
	s := &sut{}
	var workerArgs []string
	for i := 0; i < 2; i++ {
		p, err := startServer("isampd", filepath.Join(e.bin, "isampd"),
			"-addr", "127.0.0.1:0", "-j", "2", "-obs", "off", "-cache-dir", filepath.Join(dir, fmt.Sprintf("w%d", i)))
		if err != nil {
			s.stop()
			return nil, err
		}
		s.procs = append(s.procs, p)
		workerArgs = append(workerArgs, "-worker", p.addr)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-slots", "1",
		"-cache-dir", filepath.Join(dir, "cas")}, workerArgs...)
	p, err := startServer("isampfleet", filepath.Join(e.bin, "isampfleet"), args...)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.procs = append(s.procs, p)
	s.front = p.addr
	return s, nil
}

// awaitAccept posts probeSpec until the front door accepts it (202); it
// is how set-up time ends.
func awaitAccept(c *http.Client, base string) error {
	body, err := json.Marshal(probeSpec)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never accepted a job (last: %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// buildID asks a binary for the build ID it keys its cache with.
func buildID(bin string) (string, error) {
	out, err := exec.Command(bin, "-version").Output()
	if err != nil {
		return "", fmt.Errorf("%s -version: %w", bin, err)
	}
	return strings.TrimSpace(string(out)), nil
}
