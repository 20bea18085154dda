package shard

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/phl"
)

// pickNodes draws n distinct node ids of g.
func pickNodes(g *graph.Graph, rng *rand.Rand, n int) []graph.NodeID {
	seen := map[graph.NodeID]bool{}
	out := make([]graph.NodeID, 0, n)
	for len(out) < n {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// statsSpy is a real INE engine that remembers the Stats the host binds
// to it, so the test can read the request's op counts after Execute.
type statsSpy struct {
	core.GPhi
	bound *atomic.Pointer[core.Stats]
}

func (s statsSpy) BindStats(st *core.Stats) {
	if st != nil {
		s.bound.Store(st)
	}
	core.BindStats(s.GPhi, st)
}

func (s statsSpy) BindCancel(done <-chan struct{}) { core.BindCancel(s.GPhi, done) }

// A coordinator that gives up must stop the shard's compute. GD over INE
// with |P|=2000 and |Q|=64 on a 40k-node graph runs for seconds; with a
// 5ms deadline Host.Execute must return a timeout within the deadline
// plus one g_φ evaluation, and the request's g_φ count must stop growing
// once it has returned.
func TestHostDeadlineStopsRealEngine(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 40000, Seed: 3, Name: "deadline"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	P, Q := pickNodes(g, rng, 2000), pickNodes(g, rng, 64)
	const phi = 0.5

	// The cost of one g_φ evaluation here: the slowest of a few direct
	// INE evaluations.
	ine := core.NewINE(g)
	ine.Reset(Q)
	k := int(math.Ceil(phi * float64(len(Q))))
	var eval time.Duration
	for _, p := range P[:16] {
		start := time.Now()
		ine.Dist(p, k, core.Max)
		eval = max(eval, time.Since(start))
	}

	var bound atomic.Pointer[core.Stats]
	h := NewHost(0, g, HostOptions{})
	if err := h.AddEngine("INE", func() core.GPhi { return statsSpy{core.NewINE(g), &bound} }); err != nil {
		t.Fatal(err)
	}
	const deadline = 5 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err = h.Execute(ctx, &Request{P: P, Q: Q, Phi: phi, Algo: "gd", Engine: "INE"})
	elapsed := time.Since(start)

	var se *Error
	if !errors.As(err, &se) || se.Code != "timeout" {
		t.Fatalf("Execute past its deadline: err %v, want a timeout-class error", err)
	}
	// The slack absorbs scheduling on a loaded host or under -race; an
	// uncancelled run takes seconds.
	if budget := deadline + eval + 100*time.Millisecond; elapsed > budget {
		t.Fatalf("Execute returned %v after the call, want ≤ %v (deadline %v + one evaluation %v + slack)",
			elapsed, budget, deadline, eval)
	}
	st := bound.Load()
	if st == nil {
		t.Fatal("the host bound no Stats to its engine")
	}
	evals := st.GPhiEvals
	if evals >= int64(len(P)) {
		t.Fatalf("%d g_φ evaluations: the query ran to completion", evals)
	}
	time.Sleep(20 * time.Millisecond)
	if st.GPhiEvals != evals {
		t.Fatalf("g_φ evaluations grew after cancel: %d → %d", evals, st.GPhiEvals)
	}
}

var responseSink *Response

// copyResponse is the answer copy a response needs: the Response, its
// answer list, and one subset per answer.
func copyResponse(answers []Answer) *Response {
	resp := &Response{}
	for _, a := range answers {
		resp.Answers = append(resp.Answers, Answer{P: a.P, Dist: a.Dist, Subset: append([]graph.NodeID(nil), a.Subset...)})
	}
	return resp
}

// The warm host path — GD over PHL with the host cache off — allocates
// no more than copying its answers into the response needs: request
// normalisation, admission, Scratch, context and stats binding, the
// fault guard and the dispatch itself add nothing.
func TestHostWarmPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	g, err := graph.Generate(graph.GenConfig{Nodes: 600, Seed: 11, Name: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := phl.Build(g, phl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHost(0, g, HostOptions{})
	if err := h.AddEngine("PHL", func() core.GPhi { return core.NewOracleGPhi("PHL", ix) }); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	req := &Request{P: pickNodes(g, rng, 48), Q: pickNodes(g, rng, 24), Phi: 0.5, Algo: "gd", Engine: "PHL"}
	ctx := context.Background()
	resp, err := h.Execute(ctx, req) // warm the engine and its Scratch
	if err != nil {
		t.Fatal(err)
	}
	want := testing.AllocsPerRun(20, func() { responseSink = copyResponse(resp.Answers) })
	got := testing.AllocsPerRun(20, func() {
		if responseSink, err = h.Execute(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if got > want {
		t.Fatalf("warm Host.Execute allocates %v objects, want ≤ %v (the response's answer copy)", got, want)
	}
}
