package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
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

// Child-process hygiene: the real subseqctl binary is built once into the
// scratch directory, children listen on port 0 and are awaited on /healthz,
// get GOMAXPROCS through their environment, log to the scratch directory,
// and every live child is stopped when the harness exits, panics or is
// interrupted.

// scratchDir is where the harness builds and logs, inside the checkout.
const scratchDir = ".bench_build"

// building builds subseqctl at most once per harness process.
type building struct {
	once    sync.Once
	bin     string
	seconds float64
	err     error
}

// binary returns the path of the built subseqctl and how long `go build`
// took (a no-op rebuild when the build cache is warm).
func (b *building) binary() (string, float64, error) {
	b.once.Do(func() {
		if _, err := os.Stat("go.mod"); err != nil {
			b.err = errors.New("bench: run from the repository root (no go.mod here), the harness builds ./cmd/subseqctl from source")
			return
		}
		if err := os.MkdirAll(scratchDir, 0o755); err != nil {
			b.err = err
			return
		}
		abs, err := filepath.Abs(filepath.Join(scratchDir, "subseqctl"))
		if err != nil {
			b.err = err
			return
		}
		t0 := time.Now()
		out, err := exec.Command("go", "build", "-o", abs, "./cmd/subseqctl").CombinedOutput()
		if err != nil {
			b.err = fmt.Errorf("bench: go build ./cmd/subseqctl: %v\n%s", err, out)
			return
		}
		b.bin, b.seconds = abs, time.Since(t0).Seconds()
	})
	return b.bin, b.seconds, b.err
}

// child is one running subseqctl process.
type child struct {
	name string
	cmd  *exec.Cmd
	url  string        // base URL parsed from the child's own announcement
	done chan struct{} // closed when the process has exited
	log  *os.File
}

// live tracks every child not yet stopped, for the exit paths.
var live struct {
	sync.Mutex
	procs map[*child]bool
}

// startChild launches subseqctl with args, waits for the line announcing its
// bound address ("... on http://host:port") and then for GET /healthz to
// answer 200. A child that exits first is an error, not a hang.
func startChild(bin, name string, gomaxprocs int, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(scratchDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, done: make(chan struct{}), log: logf}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*child]bool{}
	}
	live.procs[c] = true
	live.Unlock()

	urlc := make(chan string, 1) // one send: the first announced address
	go func() {
		sc := bufio.NewScanner(stdout)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, after, ok := strings.Cut(line, " on http://"); ok && !announced {
				announced = true
				urlc <- "http://" + strings.TrimSpace(after)
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(c.done)
	}()
	select {
	case c.url = <-urlc:
	case <-c.done:
		c.stop()
		return nil, fmt.Errorf("bench: %s exited before announcing its address (see %s)", name, logf.Name())
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, fmt.Errorf("bench: %s did not announce its address within 60s", name)
	}
	if err := c.awaitHealthy(30 * time.Second); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

func (c *child) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/healthz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("bench: %s exited before becoming healthy (see %s)", c.name, c.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: %s not healthy after %v", c.name, timeout)
		}
	}
}

// dead reports whether the process has exited.
func (c *child) dead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// stop ends the child — SIGTERM, then SIGKILL if it lingers — and waits
// until it has exited. It is safe to call more than once.
func (c *child) stop() {
	live.Lock()
	known := live.procs[c]
	delete(live.procs, c)
	live.Unlock()
	if !known {
		<-c.done
		return
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(3 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

// stopAll stops every live child; the exit, panic and signal paths call it.
func stopAll() {
	live.Lock()
	var cs []*child
	for c := range live.procs {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// fleet is a set of children that live and die together.
type fleet struct {
	children []*child
}

func (f *fleet) stop() {
	if f == nil {
		return
	}
	// Front ends first, so nothing fans out to a shard that is going away.
	for i := len(f.children) - 1; i >= 0; i-- {
		f.children[i].stop()
	}
}

// deadChild names a child that has exited, "" if all are running.
func (f *fleet) deadChild() string {
	for _, c := range f.children {
		if c.dead() {
			return c.name
		}
	}
	return ""
}

// peakRSS sums VmHWM over the fleet's processes.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, c := range f.children {
		v, err := peakRSSMiB(c.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
