// Command servebench is the repository's serving benchmark. It drives
// /fann on fannr-server or fannr-shard over loopback HTTP and reports
// end-to-end metrics (--trace 0), or replays the same seeded request
// stream in-process with every layer timed and reports per-layer
// metrics (--trace 1). See README.md for the workloads, the metrics and
// what each layer metric predicts.
//
//	bash servebench/run.sh --workload poi-fresh --seed 1 --seconds 18 --trace 0
//
// run.sh builds the servers and this command from the checkout, then
// runs it from the checkout's root. The last line of standard output is
// the result object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fannr/internal/workload"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	binDir   string
	workDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: poi-fresh, poi-repeat or shard-fresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream")
	flag.IntVar(&cfg.seconds, "seconds", 6, "seconds of HTTP load per run, open and closed loop, spread over the rounds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding fannr-server and fannr-shard")
	flag.StringVar(&cfg.workDir, "work", ".bench_build", "directory for server logs and cached indexes")
	flag.Parse()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// Run shape (see phaseDurations and newLoad for the load phases).
const (
	// minWarm is the fewest warm-up requests a --trace 0 round sends
	// before timing; a round warms up with one second's worth at the
	// open-loop rate, which brings poi-repeat's cache to its steady state.
	minWarm     = 200
	seqRequests = 600 // one-connection requests the replay mirrors (--trace 1)
	setupRuns   = 3   // rounds (server starts) per --trace 0 run; setup_s is their median
	loadChunks  = 3   // alternating open- and closed-loop chunks per round
	// settle is the idle pause between a round's warm-up burst and its
	// timed load, so the burst's garbage collection does not run into it.
	settle = 250 * time.Millisecond
	// minOpen is the fewest open-loop requests a run sends, so that at
	// least 10 latencies lie beyond its p99.
	minOpen = 1000
	// maxLatenessShare rejects an open-loop phase whose median generator
	// lateness exceeds this share of its median latency.
	maxLatenessShare = 0.25
	maxReported      = 20 // failed requests printed in full
)

// bench carries one run's state.
type bench struct {
	cfg    config
	spec   workloadSpec
	env    *env
	conns  int
	res    *result
	wrong  int     // wrong answers found by the checks
	errs   []error // every failed request, for the report
	phases []phase
	start  time.Time
}

// printf writes one report line, stamped with the seconds since start.
func (b *bench) printf(format string, args ...any) {
	fmt.Printf("[%6.2fs] "+format+"\n", append([]any{time.Since(b.start).Seconds()}, args...)...)
}

// metric records a reported value and prints it with its sample count.
func (b *bench) metric(name, unit string, v float64, n int) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
	b.printf("metric %-26s %14.6f %-6s (n=%d)", name, v, unit, n)
}

func run(cfg config) (*result, error) {
	spec, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		return nil, errors.New("--trace must be 0 or 1")
	}
	for _, bin := range []string{"fannr-server", "fannr-shard"} {
		if _, err := os.Stat(filepath.Join(cfg.binDir, bin)); err != nil {
			return nil, fmt.Errorf("server binary missing (build it with run.sh): %w", err)
		}
	}
	if err := os.MkdirAll(filepath.Join(cfg.workDir, "logs"), 0o755); err != nil {
		return nil, err
	}
	g, err := workload.LoadDataset(datasetName, datasetScale)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(g, filepath.Join(cfg.workDir, "cache"))
	if err != nil {
		return nil, err
	}
	b := &bench{
		cfg: cfg, spec: spec, env: e, conns: runtime.NumCPU(),
		res: &result{Correct: true, Metrics: map[string]metric{}}, start: time.Now(),
	}
	b.record()
	if cfg.trace == 0 {
		err = b.endToEnd()
	} else {
		err = b.traced()
	}
	if err != nil {
		return nil, err
	}
	for i, err := range b.errs {
		if i == maxReported {
			b.printf("failed: %d more", len(b.errs)-i)
			break
		}
		b.printf("failed: %v", err)
	}
	if b.wrong > 0 {
		b.res.Correct = false
	}
	return b.res, nil
}

// record prints the deployment this run measures.
func (b *bench) record() {
	args := serverArgs(b.spec, b.cfg.binDir, "127.0.0.1:<port>")
	args[0] = filepath.Base(args[0])
	rec := map[string]any{
		"workload": b.spec.name, "seed": b.cfg.seed, "seconds": b.cfg.seconds, "trace": b.cfg.trace,
		"server": strings.Join(args, " "), "dataset": datasetName, "scale": datasetScale,
		"nodes": b.env.g.NumNodes(), "open_rate": b.spec.rate, "conns": b.conns,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
	line, _ := json.Marshal(rec) // a map of strings and numbers always marshals
	b.printf("record %s", line)
}

func (b *bench) logPath(tag string) string {
	return filepath.Join(b.cfg.workDir, "logs", fmt.Sprintf("%s-%d-%s.log", b.spec.name, b.cfg.seed, tag))
}

// phaseDurations is one round's share of --seconds, split two thirds
// open loop and one third closed loop. A --trace 0 run has setupRuns
// rounds; a --trace 1 run has one.
func (b *bench) phaseDurations() (open, closed time.Duration) {
	round := time.Duration(b.cfg.seconds) * time.Second / setupRuns
	open = round * 2 / 3
	return open, round - open
}

// newLoad draws one round's requests: the open loop's share of the
// round at the workload's rate, but never fewer than a third of minOpen
// (a --trace 0 run pools three rounds), and a closed-loop pool of ten
// times the open-loop rate (about twice the capacity measured when the
// rates were set), which the closed loop ends early only if it runs dry.
func (b *bench) newLoad(sg *streamGen) *load {
	openDur, closedDur := b.phaseDurations()
	return &load{
		open:   sg.take(max((minOpen+setupRuns-1)/setupRuns, int(b.spec.rate*openDur.Seconds()))),
		closed: sg.take(int(10 * b.spec.rate * closedDur.Seconds())),
	}
}

// load is the HTTP traffic of one run against one server.
type load struct {
	open, closed       []request
	openOut, closedOut []outcome
	closedElapsed      time.Duration
	closedBad          map[int]bool // closed-loop requests that failed or answered wrong
	// counters are the /metrics deltas over the open and closed phases.
	counters map[string]float64
}

// drive runs the round's load against p as loadChunks alternating
// open- and closed-loop chunks, so that both phases sample the whole
// round rather than one stretch of host conditions each, and scrapes
// /metrics around every chunk.
func (b *bench) drive(ctx context.Context, p *serverProc, l *load) error {
	_, closedDur := b.phaseDurations()
	openD, closedD := map[string]float64{}, map[string]float64{}
	for c := 0; c < loadChunks; c++ {
		before, err := p.scrape(ctx)
		if err != nil {
			return err
		}
		lo, hi := c*len(l.open)/loadChunks, (c+1)*len(l.open)/loadChunks
		l.openOut = append(l.openOut, openLoop(ctx, p.base, l.open[lo:hi], b.spec.rate, b.conns)...)
		mid, err := p.scrape(ctx)
		if err != nil {
			return err
		}
		out, elapsed := closedLoop(ctx, p.base, l.closed[len(l.closedOut):], closedDur/loadChunks, b.conns)
		l.closedOut = append(l.closedOut, out...)
		l.closedElapsed += elapsed
		after, err := p.scrape(ctx)
		if err != nil {
			return err
		}
		addDeltas(openD, deltas(before, mid))
		addDeltas(closedD, deltas(mid, after))
	}
	l.counters = map[string]float64{}
	addDeltas(l.counters, openD)
	addDeltas(l.counters, closedD)
	b.counters("open", openD)
	b.counters("closed", closedD)
	return nil
}

// addDeltas adds every counter delta of d into sum.
func addDeltas(sum, d map[string]float64) {
	for k, v := range d {
		sum[k] += v
	}
}

func (b *bench) counters(phase string, d map[string]float64) {
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%g", k, d[k]))
	}
	b.printf("counters %s: %s", phase, strings.Join(parts, " "))
}

// phase is one verified phase, kept for the run-wide sample check.
type phase struct {
	name string
	reqs []request
	outs []outcome
	bad  map[int]bool
}

// verify checks every outcome of a phase, adds the phase to the result's
// attempted and failed counts, and returns the failed requests: transport
// errors, non-2xx replies and wrong answers.
func (b *bench) verify(name string, reqs []request, outs []outcome, c *checker) map[int]bool {
	bad := map[int]bool{}
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			bad[i] = true
			b.errs = append(b.errs, fmt.Errorf("%s request %d: status %d err %v", name, i, o.status, o.err))
			continue
		}
		if err := c.answers(reqs[i].req, o.answers); err != nil {
			bad[i] = true
			b.wrong++
			b.errs = append(b.errs, fmt.Errorf("%s request %d: %w", name, i, err))
		}
	}
	b.res.Attempted += len(outs)
	b.res.Failed += len(bad)
	b.phases = append(b.phases, phase{name: name, reqs: reqs, outs: outs, bad: bad})
	b.printf("phase %s: sent %d ok %d failed %d", name, len(outs), len(outs)-len(bad), len(bad))
	return bad
}

// verifySample runs the checker's seeded sample over every phase the run
// verified; a wrong sampled answer fails its request and the run.
func (b *bench) verifySample(c *checker) {
	var reqs []request
	var outs []outcome
	var from []*phase
	var at []int
	for pi := range b.phases {
		ph := &b.phases[pi]
		for i := range ph.outs {
			reqs, outs = append(reqs, ph.reqs[i]), append(outs, ph.outs[i])
			from, at = append(from, ph), append(at, i)
		}
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for j, err := range c.sample(rng, reqs, outs) {
		ph, i := from[j], at[j]
		if !ph.bad[i] {
			ph.bad[i] = true
			b.res.Failed++
			b.wrong++
		}
		b.errs = append(b.errs, fmt.Errorf("%s request %d: %w", ph.name, i, err))
	}
}

// verifyLoad checks both load phases of one round.
func (b *bench) verifyLoad(round string, l *load, c *checker) {
	b.verify(round+" open", l.open, l.openOut, c)
	l.closedBad = b.verify(round+" closed", l.closed[:len(l.closedOut)], l.closedOut, c)
}

// lateness returns the open loop's generator lateness quantiles: how
// long after its due time each request actually went out.
func lateness(outs []outcome) (p50, p99 float64) {
	late := make([]float64, len(outs))
	for i := range outs {
		late[i] = millis(outs[i].sent.Sub(outs[i].due))
	}
	return median(late), quantile(late, 0.99)
}

// openLatencies returns open-loop latencies in ms; a failed request
// counts as missing every latency limit.
func openLatencies(outs []outcome) []float64 {
	lat := make([]float64, len(outs))
	for i := range outs {
		if outs[i].ok() {
			lat[i] = millis(outs[i].latency())
		} else {
			lat[i] = float64(time.Hour / time.Millisecond)
		}
	}
	return lat
}

// round is one server lifetime of a --trace 0 run.
type round struct {
	setup, rss float64
	*load
}

// endToEnd is the --trace 0 run: setupRuns rounds, each of which starts
// the server (timing its set-up), warms it up and runs its share of the
// open and closed loops. setup_s is the median over the rounds; the
// load metrics pool them (see reportEndToEnd).
func (b *bench) endToEnd() error {
	ctx := context.Background()
	sg, err := newStreamGen(b.env.g, b.spec, b.cfg.seed)
	if err != nil {
		return err
	}
	rounds := make([]round, setupRuns)
	warm := make([][]request, setupRuns)
	warmOut := make([][]outcome, setupRuns)
	for i := range rounds {
		warm[i] = sg.take(max(minWarm, int(b.spec.rate)))
		rounds[i].load = b.newLoad(sg)
	}
	for i := range rounds {
		r := &rounds[i]
		p, secs, err := startServer(b.spec, b.cfg.binDir, b.logPath(fmt.Sprintf("round%d", i)))
		if err != nil {
			return err
		}
		r.setup = secs
		b.printf("round %d: ready after %.3f s", i, secs)
		warmOut[i], _ = closedLoop(ctx, p.base, warm[i], time.Hour, b.conns)
		time.Sleep(settle)
		err = b.drive(ctx, p, r.load)
		if err == nil {
			r.rss, err = p.peakRSSMB()
		}
		p.stop()
		if err != nil {
			return err
		}
	}

	if err := b.env.loadPHL(); err != nil {
		return err
	}
	c := newChecker(b.env)
	for i := range rounds {
		name := fmt.Sprintf("round %d", i)
		b.verify(name+" warmup", warm[i], warmOut[i], c)
		b.verifyLoad(name, rounds[i].load, c)
	}
	b.verifySample(c)
	return b.reportEndToEnd(rounds)
}

// reportEndToEnd rejects a run whose open loop measured its own
// generator, and reports the end-to-end metrics. The load metrics pool
// every round: latency quantiles over all open-loop requests of the run
// and throughput over all its closed-loop time, so that each figure
// averages the host's conditions over the whole run.
func (b *bench) reportEndToEnd(rounds []round) error {
	var setups, rss, allOpen []float64
	var openOut []outcome
	var closedTime time.Duration
	nClosed, okClosed := 0, 0
	for i := range rounds {
		r := &rounds[i]
		lat := openLatencies(r.openOut)
		ok := 0
		for j := range r.closedOut {
			if !r.closedBad[j] {
				ok++
			}
		}
		setups = append(setups, r.setup)
		rss = append(rss, r.rss)
		allOpen = append(allOpen, lat...)
		openOut = append(openOut, r.openOut...)
		closedTime += r.closedElapsed
		nClosed += len(r.closedOut)
		okClosed += ok
		b.printf("round %d: setup %.3f s, open p50 %.4f ms p99 %.4f ms (n=%d), closed %.1f/s (n=%d in %.3f s), rss %.1f MiB",
			i, r.setup, median(lat), quantile(lat, 0.99), len(lat), float64(ok)/r.closedElapsed.Seconds(),
			len(r.closedOut), r.closedElapsed.Seconds(), r.rss)
	}
	late50, late99 := lateness(openOut)
	p50 := median(allOpen)
	b.printf("open loop: rate %.0f/s, %d connections, generator lateness p50 %.4f ms p99 %.4f ms",
		b.spec.rate, b.conns, late50, late99)
	if late50 > maxLatenessShare*p50 {
		return fmt.Errorf("generator lateness p50 %.3f ms exceeds %.0f%% of p50 latency %.3f ms: the run measured the generator, not the server",
			late50, 100*maxLatenessShare, p50)
	}
	b.metric("setup_s", "s", median(setups), len(setups))
	b.metric("p50_ms", "ms", p50, len(allOpen))
	b.metric("p99_ms", "ms", quantile(allOpen, 0.99), len(allOpen))
	b.metric("sat_rps", "1/s", float64(okClosed)/closedTime.Seconds(), nClosed)
	// The lowest round, not the median: a round's peak is either the
	// steady footprint or, in about one round in four, a transient about
	// half as large again.
	b.metric("rss_mb", "MiB", quantile(rss, 0), len(rss))
	b.printf("metric %-26s %14.6f ratio (failed %d of %d attempted; carried by the result's failed/attempted)",
		"error_rate", ratio(float64(b.res.Failed), float64(b.res.Attempted)), b.res.Failed, b.res.Attempted)
	return nil
}
