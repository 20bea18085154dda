package main

import (
	"fmt"
	"math"
	"math/rand"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/server"
	"fannr/internal/shard"
)

// relTol is the relative tolerance of every distance comparison between
// different algorithms or engines.
const relTol = 1e-9

// Sample sizes of the run-wide checks that run a whole query again.
const (
	directSample = 64 // re-dispatched in-process, and checked against gd
	bruteSample  = 3  // checked against core.Brute / core.KBrute
	// bruteMaxP bounds |P| of the Brute sample: Brute runs one full
	// Dijkstra per data point.
	bruteMaxP = 100
)

func closeTo(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func equalDists(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !closeTo(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

func coreDists(as []core.Answer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Dist
	}
	return out
}

func shardDists(as []shard.Answer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Dist
	}
	return out
}

func httpDists(as []httpAnswer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Dist
	}
	return out
}

// sameAnswers reports whether an HTTP answer list equals a replayed one
// exactly: same points, same distances, same subsets.
func sameAnswers(h []httpAnswer, r []server.FANNAnswer) bool {
	if len(h) != len(r) {
		return false
	}
	for i := range h {
		if graph.NodeID(h[i].P) != r[i].P || h[i].Dist != r[i].Dist || len(h[i].Subset) != len(r[i].Subset) {
			return false
		}
		for j := range h[i].Subset {
			if graph.NodeID(h[i].Subset[j]) != r[i].Subset[j] {
				return false
			}
		}
	}
	return true
}

// checker verifies HTTP answers against the in-process indexes.
type checker struct {
	g   *graph.Graph
	ref core.GPhi // PHL oracle engine, no cache
	env *env
}

func newChecker(e *env) *checker {
	return &checker{g: e.g, ref: core.NewOracleGPhi("PHL", e.phl), env: e}
}

// query builds the validated core query of a request.
func query(g *graph.Graph, r server.FANNRequest) (core.Query, error) {
	q := core.Query{P: r.P, Q: r.Q, Phi: r.Phi}
	if r.Agg == "sum" {
		q.Agg = core.Sum
	}
	return q, q.Validate(g)
}

// answers checks one successful response: it holds min(k, |P|) answers
// in ascending order, each a point of P whose dist is g_φ(p, Q) as the
// PHL index computes it.
func (c *checker) answers(r server.FANNRequest, got []httpAnswer) error {
	q, err := query(c.g, r)
	if err != nil {
		return err
	}
	want := min(max(r.K, 1), len(q.P))
	if len(got) != want {
		return fmt.Errorf("%d answers, want %d", len(got), want)
	}
	inP := map[graph.NodeID]bool{}
	for _, p := range q.P {
		inP[p] = true
	}
	c.ref.Reset(q.Q)
	for i, a := range got {
		p := graph.NodeID(a.P)
		if !inP[p] {
			return fmt.Errorf("answer %d: point %d not in P", i, p)
		}
		if i > 0 && a.Dist < got[i-1].Dist {
			return fmt.Errorf("answer %d: dist %v below answer %d's %v", i, a.Dist, i-1, got[i-1].Dist)
		}
		d, ok := c.ref.Dist(p, q.K(), q.Agg)
		if !ok || !closeTo(d, a.Dist, relTol) {
			return fmt.Errorf("answer %d: point %d dist %v, g_phi is %v", i, p, a.Dist, d)
		}
	}
	return nil
}

// direct answers r in-process with a fresh, uncached engine of the
// kind the request names (oracle PHL, or IER over PHL).
func (c *checker) direct(r server.FANNRequest, algo string) ([]core.Answer, error) {
	q, err := query(c.g, r)
	if err != nil {
		return nil, err
	}
	var gp core.GPhi = core.NewOracleGPhi("PHL", c.env.phl)
	if r.Engine == "IER-PHL" && algo != "gd" {
		if gp, err = core.NewIERGPhi("IER-PHL", c.g, c.env.phl); err != nil {
			return nil, err
		}
	}
	return core.Dispatch(c.g, algo, gp, q, max(r.K, 1))
}

// sample checks a seeded sample of the successful responses: each is
// answered again in-process by the same algorithm (the direct answer)
// and by gd (the exact reference), and the smallest-P ones by Brute.
// It returns the failures by request index.
func (c *checker) sample(rng *rand.Rand, reqs []request, outs []outcome) map[int]error {
	var okIdx []int
	for i := range outs {
		if outs[i].ok() {
			okIdx = append(okIdx, i)
		}
	}
	rng.Shuffle(len(okIdx), func(a, b int) { okIdx[a], okIdx[b] = okIdx[b], okIdx[a] })
	bad := map[int]error{}
	fail := func(i int, err error) { bad[i] = err }
	brutes := 0
	for n, i := range okIdx {
		r := reqs[i].req
		got := httpDists(outs[i].answers)
		if n < directSample {
			d, err := c.direct(r, r.Algo)
			if err != nil {
				fail(i, err)
				continue
			}
			if !equalDists(got, coreDists(d), relTol) {
				fail(i, fmt.Errorf("direct %s answers %v, HTTP %v", r.Algo, coreDists(d), got))
				continue
			}
			ref, err := c.direct(r, "gd")
			if err != nil {
				fail(i, err)
				continue
			}
			if !equalDists(got, coreDists(ref), relTol) {
				fail(i, fmt.Errorf("gd reference %v, HTTP %v", coreDists(ref), got))
				continue
			}
		}
		if brutes < bruteSample && len(r.P) <= bruteMaxP {
			brutes++
			q, err := query(c.g, r)
			if err != nil {
				fail(i, err)
				continue
			}
			b, err := core.KBrute(c.g, q, max(r.K, 1))
			if err != nil {
				fail(i, err)
				continue
			}
			if !equalDists(got, coreDists(b), relTol) {
				fail(i, fmt.Errorf("Brute %v, HTTP %v", coreDists(b), got))
			}
		}
		if n >= directSample && brutes >= bruteSample {
			break
		}
	}
	return bad
}

func respDists(as []server.FANNAnswer) []float64 {
	out := make([]float64, len(as))
	for i, a := range as {
		out[i] = a.Dist
	}
	return out
}
