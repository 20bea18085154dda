package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/phl"
	"fannr/internal/workload"
)

// nwGraph loads the benchmark's own network once per test binary.
var nwGraph = func() func(t *testing.T) *graph.Graph {
	var g *graph.Graph
	return func(t *testing.T) *graph.Graph {
		t.Helper()
		if g == nil {
			var err error
			if g, err = workload.LoadDataset(datasetName, datasetScale); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
}()

func stream(t *testing.T, g *graph.Graph, name string, seed int64, n int) []request {
	t.Helper()
	spec, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := newStreamGen(g, spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return sg.take(n)
}

func streamBytes(reqs []request) []byte {
	var buf bytes.Buffer
	for _, r := range reqs {
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamDeterministic(t *testing.T) {
	g := nwGraph(t)
	for _, w := range workloads {
		a := streamBytes(stream(t, g, w.name, 7, 300))
		b := streamBytes(stream(t, g, w.name, 7, 300))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if c := streamBytes(stream(t, g, w.name, 8, 300)); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestFreshStreamsNeverRepeatAKey(t *testing.T) {
	g := nwGraph(t)
	for _, name := range []string{"poi-fresh", "shard-fresh"} {
		seen := map[any]bool{}
		for i, r := range stream(t, g, name, 3, 5000) {
			k := r.resultKey()
			if seen[k] {
				t.Fatalf("%s: request %d repeats a result key", name, i)
			}
			seen[k] = true
		}
	}
}

func TestRepeatStreamFitsTheCache(t *testing.T) {
	g := nwGraph(t)
	reqs := stream(t, g, "poi-repeat", 3, 20000)
	keys := map[any]bool{}
	for _, r := range reqs {
		keys[r.resultKey()] = true
	}
	if len(keys) > repeatBases*len(phis) || len(keys) > cacheEntries/4 {
		t.Fatalf("%d distinct result keys, want at most %d and well under the %d-entry cache",
			len(keys), repeatBases*len(phis), cacheEntries)
	}
	if len(keys) < len(reqs)/100 {
		t.Fatalf("only %d distinct keys in %d requests", len(keys), len(reqs))
	}
}

// TestMixProportions pins the stream's mix: every attribute is dealt in
// exact proportions, so seeds differ only in the points drawn.
func TestMixProportions(t *testing.T) {
	g := nwGraph(t)
	n := len(classMix) * len(poiLayers) * len(qSizes) * len(phis) * 2
	counts := map[string]int{}
	for _, r := range stream(t, g, "poi-fresh", 5, n) {
		counts[r.req.Algo+"/"+r.req.Engine+"/"+r.req.Agg] += 1
	}
	want := map[string]int{"ier/IER-PHL/max": n * 6 / 10, "gd/PHL/max": n * 2 / 10, "ier/IER-PHL/sum": n * 2 / 10}
	for k, v := range want {
		if counts[k] != v {
			t.Errorf("%s: %d requests, want %d", k, counts[k], v)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the name test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func names(ms map[string]metric) []string {
	var out []string
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func declared(list []struct{ Name string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestEmittedNames checks that every metric either pass emits is
// declared in BENCHMARK.json and every name is well formed.
func TestEmittedNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	spec := workloads[0]
	b := &bench{spec: spec, res: &result{Metrics: map[string]metric{}}, start: time.Now(), conns: 2}
	out := make([]outcome, 10)
	for i := range out {
		out[i].due = time.Now()
		out[i].sent, out[i].done = out[i].due, out[i].due.Add(time.Millisecond)
		out[i].status = 200
	}
	l := &load{openOut: out, closedOut: out, closedElapsed: time.Second, counters: map[string]float64{}}
	if err := b.reportEndToEnd([]round{{setup: 1, rss: 100, load: l}}); err != nil {
		t.Fatal(err)
	}
	e2e := names(b.res.Metrics)

	b.res.Metrics = map[string]metric{}
	srv := &serverReplay{recs: make([]serverRec, len(out))}
	b.layerMetrics(out, srv, make([]shardRec, len(out)), l)
	b.metric("bench.trace_overhead_pct", "%", 0, 0)
	b.metric("bench.late_p99_ms", "ms", 0, 0)
	layer := names(b.res.Metrics)

	for _, c := range []struct {
		what           string
		emitted, filed []string
	}{
		{"end_to_end", e2e, declared(bf.EndToEnd)},
		{"per_layer", layer, declared(bf.PerLayer)},
	} {
		if !equalStrings(c.emitted, c.filed) {
			t.Errorf("%s: emitted %v, BENCHMARK.json declares %v", c.what, c.emitted, c.filed)
		}
		for _, n := range c.emitted {
			if !valid.MatchString(n) {
				t.Errorf("%s: metric name %q is malformed", c.what, n)
			}
		}
	}
	var ws []string
	for _, w := range workloads {
		if !valid.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		if !w.manual {
			ws = append(ws, w.name)
		}
	}
	sort.Strings(ws)
	if filed := declared(bf.Workloads); !equalStrings(ws, filed) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", ws, filed)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// smallEnv is a 1,000-node network with hub labels and the shard plan,
// small enough to build in a test.
func smallEnv(t *testing.T) *env {
	t.Helper()
	g, err := workload.LoadDataset("DE", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEnv(g, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if e.phl, err = phl.Build(g, phl.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e.loadPlan(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestTimingWrapperIsTransparent replays one stream through the server
// pipeline with and without the g_φ timing wrapper: op counts, cache
// outcomes and answers must be identical.
func TestTimingWrapperIsTransparent(t *testing.T) {
	e := smallEnv(t)
	for _, name := range []string{"poi-fresh", "poi-repeat"} {
		reqs := stream(t, e.g, name, 11, 300)
		var runs [2]*serverReplay
		for i, sw := range []stopwatch{false, true} {
			var err error
			b := &bench{env: e}
			if runs[i], err = b.replayServer(reqs, sw); err != nil {
				t.Fatal(err)
			}
		}
		computed := 0
		for i := range reqs {
			plain, timed := &runs[0].recs[i], &runs[1].recs[i]
			if plain.stats != timed.stats || plain.hit != timed.hit {
				t.Fatalf("%s request %d: stats %+v hit %v unwrapped, %+v hit %v wrapped",
					name, i, plain.stats, plain.hit, timed.stats, timed.hit)
			}
			pa, _ := json.Marshal(plain.resp)
			ta, _ := json.Marshal(timed.resp)
			if !bytes.Equal(pa, ta) {
				t.Fatalf("%s request %d: answers %s unwrapped, %s wrapped", name, i, pa, ta)
			}
			if timed.computed {
				computed++
				if timed.gphi <= 0 || timed.gphi > timed.dispatch {
					t.Errorf("%s request %d: g_phi time %v outside dispatch time %v", name, i, timed.gphi, timed.dispatch)
				}
			}
		}
		if computed == 0 {
			t.Fatalf("%s: no request reached the engine", name)
		}
		if runs[0].cache != runs[1].cache {
			t.Fatalf("%s: cache counters %+v unwrapped, %+v wrapped", name, runs[0].cache, runs[1].cache)
		}
	}
}

// TestTimingWrapperKeepsCapabilities checks that the wrapper exposes
// NeighborSearcher exactly when the wrapped engine does.
func TestTimingWrapperKeepsCapabilities(t *testing.T) {
	e := smallEnv(t)
	var acc time.Duration
	searcher := core.NewOracleGPhi("PHL", e.phl)
	if _, ok := timeGPhi(searcher, &acc).(core.NeighborSearcher); !ok {
		t.Error("wrapping a NeighborSearcher hid the capability")
	}
	plain := core.NewCounting(searcher)
	if _, ok := timeGPhi(plain, &acc).(core.NeighborSearcher); ok {
		t.Error("wrapping an engine without KNearest invented the capability")
	}
}

// TestShardReplayMatchesDirect checks the coordinator replay against the
// server-pipeline replay on the same stream.
func TestShardReplayMatchesDirect(t *testing.T) {
	e := smallEnv(t)
	reqs := stream(t, e.g, "shard-fresh", 4, 200)
	b := &bench{env: e}
	srv, err := b.replayServer(reqs, false)
	if err != nil {
		t.Fatal(err)
	}
	shd, err := b.replayShard(reqs)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for i := range reqs {
		if !equalDists(shardDists(shd[i].answers), respDists(srv.recs[i].resp.Answers), relTol) {
			t.Fatalf("request %d: coordinator %v, direct %v", i, shardDists(shd[i].answers), respDists(srv.recs[i].resp.Answers))
		}
		if shd[i].contacted != len(shd[i].codec) {
			t.Fatalf("request %d: %d shards contacted, %d calls timed", i, shd[i].contacted, len(shd[i].codec))
		}
		calls += shd[i].contacted
	}
	if calls == 0 {
		t.Fatal("no shard was contacted")
	}
}
