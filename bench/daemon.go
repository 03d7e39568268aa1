package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
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

// daemon is one opprenticed child process with durable data and model
// directories, restartable on the same address.
type daemon struct {
	bin      string
	addr     string // host:port
	dataDir  string
	modelDir string
	log      *os.File // the child's stderr, appended across restarts
	cmd      *exec.Cmd
	exited   chan struct{} // closed once cmd.Wait returned; waitErr is then set
	waitErr  error
	probe    *http.Client
}

// buildDaemon compiles the real opprenticed of the checkout rooted at root
// into outDir and returns the binary's path.
func buildDaemon(ctx context.Context, root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "opprenticed"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/opprenticed")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build opprenticed: %w\n%s", err, out)
	}
	return bin, nil
}

// newDaemon prepares (but does not start) a daemon on a free loopback port
// with fresh data and model directories under dir.
func newDaemon(bin, dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{
		bin:      bin,
		addr:     addr,
		dataDir:  filepath.Join(dir, "data"),
		modelDir: filepath.Join(dir, "models"),
		probe:    &http.Client{Timeout: 5 * time.Second},
	}
	for _, p := range []string{d.dataDir, d.modelDir} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, err
		}
	}
	d.log, err = os.Create(filepath.Join(dir, "opprenticed.log"))
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *daemon) base() string { return "http://" + d.addr }

// start execs the daemon and waits for the first 200 on /v1/readyz,
// returning the time from exec to that answer — the restore time a load
// balancer would see.
func (d *daemon) start() (time.Duration, error) {
	d.cmd = exec.Command(d.bin, "-addr", d.addr, "-data-dir", d.dataDir, "-model-dir", d.modelDir)
	d.cmd.Stderr = d.log
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return 0, err
	}
	exited := make(chan struct{})
	d.exited = exited
	go func() { d.waitErr = d.cmd.Wait(); close(exited) }()
	for time.Since(t0) < 2*time.Minute {
		resp, err := d.probe.Get(d.base() + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0), nil
			}
		}
		select {
		case <-exited:
			return 0, fmt.Errorf("opprenticed exited during start: %v (see %s)", d.waitErr, d.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
	d.kill()
	return 0, errors.New("opprenticed not ready after 2m")
}

// stop asks the daemon to shut down gracefully and waits for it to exit.
func (d *daemon) stop() error {
	if d.cmd == nil || d.cmd.Process == nil {
		return nil
	}
	d.probe.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("opprenticed ignored SIGTERM for 30s")
	}
	if d.waitErr != nil {
		return fmt.Errorf("opprenticed exit: %w", d.waitErr)
	}
	return nil
}

// kill ends the child at once and waits for it; safe to call at any time,
// any number of times.
func (d *daemon) kill() {
	if d.cmd != nil && d.cmd.Process != nil {
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// procSample is a point-in-time reading of the daemon's /proc entries.
type procSample struct {
	userTicks, sysTicks float64 // USER_HZ ticks
	threads             float64
	rssKB               float64
	writeBytes          float64
}

// ticksPerSecond is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux port Go supports.
const ticksPerSecond = 100

func (p procSample) cpuSeconds() float64 { return (p.userTicks + p.sysTicks) / ticksPerSecond }

// sample reads the daemon's CPU time, thread count, resident size and
// storage writes from /proc.
func (d *daemon) sample() (procSample, error) {
	var s procSample
	dir := fmt.Sprintf("/proc/%d/", d.cmd.Process.Pid)
	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	rest := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(rest) < 18 {
		return s, fmt.Errorf("short %sstat", dir)
	}
	s.userTicks, _ = strconv.ParseFloat(rest[11], 64) // field 14
	s.sysTicks, _ = strconv.ParseFloat(rest[12], 64)  // field 15
	s.threads, _ = strconv.ParseFloat(rest[17], 64)   // field 20
	if s.rssKB, err = procField(dir+"status", "VmRSS:"); err != nil {
		return s, err
	}
	if s.writeBytes, err = procField(dir+"io", "write_bytes:"); err != nil {
		return s, err
	}
	return s, nil
}

// procField returns the first number after key in a "key value ..." file.
func procField(path, key string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseFloat(strings.Fields(rest)[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// counters scrapes /v1/metrics into a map keyed by the sample name with its
// labels, e.g. `opprenticed_model_restore_total{mode="warm"}`.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.probe.Get(d.base() + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
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
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
