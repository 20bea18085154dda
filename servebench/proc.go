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
	"syscall"
	"time"

	"fannr/internal/obs"
)

// readyTimeout bounds how long a server may take to answer /readyz.
const readyTimeout = 120 * time.Second

// serverProc is one running server under test.
type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

// serverArgs returns the command line a workload deploys: the binary's
// own defaults plus dataset scale and listen address.
func serverArgs(spec workloadSpec, binDir, addr string) []string {
	scale := strconv.FormatFloat(datasetScale, 'g', -1, 64)
	if spec.shard {
		return []string{filepath.Join(binDir, "fannr-shard"), "-mode", "all", "-shards", "4",
			"-engines", "PHL", "-dataset", datasetName, "-scale", scale, "-addr", addr}
	}
	return []string{filepath.Join(binDir, "fannr-server"), "-engines", "PHL,GTree",
		"-dataset", datasetName, "-scale", scale, "-addr", addr}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches the workload's server and waits for its first
// /readyz 200, returning the process and the seconds that took.
func startServer(spec workloadSpec, binDir, logPath string) (*serverProc, float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := serverArgs(spec, binDir, addr)
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", args[0], err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop is irrelevant
		close(p.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start).Seconds(), nil
			}
		}
		select {
		case <-p.done:
			p.log.Close()
			return nil, 0, fmt.Errorf("%s exited before ready (log %s)", args[0], logPath)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Since(start) > readyTimeout {
			p.stop()
			return nil, 0, fmt.Errorf("%s not ready after %v (log %s)", args[0], readyTimeout, logPath)
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within the drain budget.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // the process may already be gone
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// scrape reads the server's /metrics exposition.
func (p *serverProc) scrape(ctx context.Context) (obs.Scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return obs.ParseExposition(resp.Body)
}

// counterFamilies are the /metrics families whose deltas each phase
// records: cache traffic by kind, coalescing, sheds and shard fan-out.
var counterFamilies = []string{
	"fannr_cache_hits_total", "fannr_cache_misses_total", "fannr_cache_evictions_total",
	"fannr_coalesced_total", "fannr_pool_shed_total", "fannr_dist_shed_total",
	"fannr_shard_contacted_total", "fannr_shard_pruned_total",
	"fannr_shard_cache_hits_total", "fannr_shard_cache_misses_total",
}

// deltas returns after − before for every series of counterFamilies.
func deltas(before, after obs.Scrape) map[string]float64 {
	out := map[string]float64{}
	for series, v := range after {
		for _, fam := range counterFamilies {
			if series == fam || strings.HasPrefix(series, fam+"{") {
				out[series] = v - before[series]
			}
		}
	}
	return out
}

// family sums a delta map over every series of one family.
func family(d map[string]float64, fam string) float64 {
	var sum float64
	for series, v := range d {
		if series == fam || strings.HasPrefix(series, fam+"{") {
			sum += v
		}
	}
	return sum
}
