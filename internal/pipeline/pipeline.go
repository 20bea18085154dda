// Package pipeline is the one /fann request lifecycle that fannr-server
// and the shard hosts share. Each of its decisions is made here and
// nowhere else:
//
//   - request normalisation: the wire request, aggregate parsing, the
//     algo/k/engine defaults, Query.Validate and the result-cache key;
//   - the error taxonomy: Classify maps any error to its HTTP status and
//     stable code, with one Retry-After rule, and the JSON error surface
//     (Fail, WriteJSON, RecoverPanics) is built on it;
//   - the engine run: result cache → coalesce → checkout → fault guard →
//     bind context/stats/cancel + Scratch → core.Dispatch → detach →
//     cache fill → unbind and release (or discard on panic).
//
// Callers keep only what differs between them: the server routes a
// request through its breaker/fallback ladder and reloadable index
// generations, a shard host serves its slice of P.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/lifecycle"
	"fannr/internal/qcache"
)

// Request is the /fann request body. The shard RPC carries the same
// shape, restricted to the P-objects the coordinator routed to a host.
type Request struct {
	P      []graph.NodeID `json:"p"`
	Q      []graph.NodeID `json:"q"`
	Phi    float64        `json:"phi"`
	Agg    string         `json:"agg"`    // "max" | "sum"
	Algo   string         `json:"algo"`   // "gd" | "rlist" | "ier" | "exactmax" | "apxsum"
	Engine string         `json:"engine"` // a registered engine (default: the server's)
	K      int            `json:"k"`      // answers to return (default 1)
}

// Query is a normalised request: the validated core query plus the
// algorithm, engine and answer count with their defaults filled in.
type Query struct {
	Core   core.Query
	Algo   string
	Engine string
	K      int
}

// Normalize parses the aggregate, validates the query against g (which
// also dedupes P and Q) and fills the defaults: algorithm "gd", k = 1,
// and defaultEngine when the request names none. Every error wraps
// core.ErrInvalid.
func Normalize(g *graph.Graph, r *Request, defaultEngine string) (Query, error) {
	q := Query{Core: core.Query{P: r.P, Q: r.Q, Phi: r.Phi}, Algo: r.Algo, Engine: r.Engine, K: max(r.K, 1)}
	switch r.Agg {
	case "", "max":
		q.Core.Agg = core.Max
	case "sum":
		q.Core.Agg = core.Sum
	default:
		return q, Invalidf("unknown aggregate %q", r.Agg)
	}
	if !core.KnownAlgo(q.Algo) {
		return q, Invalidf("unknown algorithm %q", q.Algo)
	}
	if err := q.Core.Validate(g); err != nil {
		return q, err
	}
	if q.Algo == "" {
		q.Algo = "gd"
	}
	if q.Engine == "" {
		q.Engine = defaultEngine
	}
	return q, nil
}

// Key is the result-cache and coalescing key of q answered by engine.
// The engine string carries whatever versions the answer: an index
// generation, a shard topology. Canonical fingerprints make
// permuted-but-equal P and Q share one key.
func (q *Query) Key(engine string) qcache.ResultKey {
	return qcache.ResultKey{
		Engine: engine, Algo: q.Algo, Agg: q.Core.Agg, Phi: q.Core.Phi, K: q.K,
		P: qcache.FingerprintNodes(q.Core.P), Q: qcache.FingerprintNodes(q.Core.Q),
	}
}

// Pipeline runs normalised queries on engine pools. Cache and Flight are
// the optional acceleration layers (nil = off).
type Pipeline struct {
	G      *graph.Graph
	Cache  *qcache.Cache
	Flight *qcache.Flight
	// Checkout resolves the pool serving an engine and pins whatever
	// backs it: an index generation, or nil for a static pool. The pin is
	// released after the engine is back in its pool, so the mapping
	// outlives every request computing on it.
	Checkout func(engine string) (*core.EnginePool, *lifecycle.Pin, error)
	// Ranges arms the fault guard around every checkout and dispatch: a
	// memory fault inside a registered mapping becomes a
	// *lifecycle.IndexFault error, reported to OnFault (nil = no hook).
	Ranges  *lifecycle.Ranges
	OnFault func(*lifecycle.IndexFault)
}

// Route is where a query runs.
type Route struct {
	// Engine is the serving engine, resolved by Pipeline.Checkout.
	Engine string
	// Generation of the index behind Engine (0 for a static engine). It
	// is stamped into the result key, so a swap invalidates every answer
	// computed on the old index and flights never pair generations.
	Generation uint64
	// Probe marks a half-open breaker probe. It bypasses the cache and
	// coalescing: a probe exists to exercise the engine, and a hit would
	// "prove" recovery without touching it.
	Probe bool
}

// Outcome reports how Run answered.
type Outcome struct {
	Answers []core.Answer
	// Cache is "exact" for a result-cache hit, "coalesced" for an
	// outcome shared by a concurrent identical query, "" when this
	// request ran the engine.
	Cache string
	// Leader is the request id of the coalescing leader that computed
	// the outcome ("" without coalescing).
	Leader string
	// Computed is set once the dispatch returned on this request's
	// engine checkout; Compute is its duration.
	Computed bool
	Compute  time.Duration
}

// Run answers q on rt. q.Core carries the request's Stats and Trace
// (either may be nil); the request id for coalescing attribution is the
// trace's. Errors are unclassified: Classify maps them, and a canceled
// run's error names its context's cause. An engine panic discards the
// engine and returns an "internal error".
func (p *Pipeline) Run(ctx context.Context, q *Query, rt Route) (Outcome, error) {
	if (p.Cache == nil && p.Flight == nil) || rt.Probe {
		return p.compute(ctx, q, rt.Engine, false)
	}
	tr := q.Core.Trace
	key := q.Key(rt.Engine)
	if rt.Generation != 0 {
		key.Engine = fmt.Sprintf("%s@%d", rt.Engine, rt.Generation)
	}
	// Exact result hit: answered without an engine checkout.
	sp := tr.StartSpan("cache")
	sp.SetAttr("key_engine", key.Engine)
	if answers, ok := p.Cache.GetResult(key); ok {
		q.Core.Stats.CountCacheHit()
		// The span carries the hit so per-span counts still sum to the
		// request's counter deltas (no algorithm span ran).
		sp.SetAttr("outcome", "exact")
		sp.Count("cache_hits", 1)
		sp.End()
		return Outcome{Answers: answers, Cache: "exact"}, nil
	}
	sp.SetAttr("outcome", "miss")
	sp.End()
	if p.Flight == nil {
		return p.computeFill(ctx, q, rt.Engine, key)
	}

	// Coalescing: concurrent identical queries share one computation.
	// The leader runs it here; a follower adopts shareable outcomes, and
	// a canceled or failing leader promotes a follower instead of
	// poisoning it.
	var id string
	if tr != nil {
		id = tr.ID
	}
	coSp := tr.StartSpan("coalesce")
	var out Outcome
	v, err, coalesced, leader := p.Flight.Do(ctx, key, id, func() (any, error) {
		var err error
		out, err = p.computeFill(ctx, q, rt.Engine, key)
		return out.Answers, err
	})
	out.Leader = leader
	if coalesced {
		out.Cache = "coalesced"
		out.Answers, _ = v.([]core.Answer)
		q.Core.Stats.CountCacheHit()
		// The follower's trace names the leader whose computation
		// produced its answer, and carries the coalesced hit.
		coSp.SetAttr("role", "follower")
		coSp.SetAttr("leader", leader)
		coSp.Count("cache_hits", 1)
	} else {
		coSp.SetAttr("role", "leader")
	}
	coSp.End()
	return out, err
}

// computeFill computes through the cache wrapper and fills the result
// layer with a successful answer.
func (p *Pipeline) computeFill(ctx context.Context, q *Query, engine string, key qcache.ResultKey) (Outcome, error) {
	out, err := p.compute(ctx, q, engine, true)
	if err == nil {
		p.Cache.PutResult(key, out.Answers)
	}
	return out, err
}

// compute performs one engine checkout and evaluation. wrap routes the
// engine's evaluations through the neighbor-list cache.
func (p *Pipeline) compute(ctx context.Context, q *Query, engine string, wrap bool) (out Outcome, err error) {
	// LIFO: the panic conversion runs last; before it, the fault guard
	// turns a SIGBUS on a registered mapping into an IndexFault, after
	// the engine is discarded and the pin released. Everything below may
	// touch a mapped index — engine factories inside Acquire as well as
	// the dispatch itself.
	defer recoverInternal(&err)
	defer p.Ranges.Guard(lifecycle.Arm(), p.OnFault, &err)

	tr := q.Core.Trace
	admit := tr.StartSpan("admit")
	pinSp := tr.StartSpan("pin")
	pool, pin, err := p.Checkout(engine)
	if err != nil {
		pinSp.End()
		admit.End()
		return out, err
	}
	if pin != nil {
		pinSp.SetAttr("generation", pin.Generation())
		defer pin.Release()
	}
	pinSp.End()
	// Bounded admission: wait in the pool's queue up to the deadline;
	// saturation beyond the queue sheds.
	gp, err := pool.Acquire(ctx)
	admit.End()
	if err != nil {
		return out, err
	}

	// Scratch rides with the engine checkout: warm buffers make the
	// steady-state query allocation-free. Answers may alias it until
	// detachSubsets below, which runs before the Scratch is repooled.
	cq := q.Core
	scr := pool.GetScratch()
	cq.Scratch = scr
	stop := cq.BindContext(ctx)
	defer stop()
	// Attribute the engine's internal work to this request's Stats.
	// Pooled engines MUST be unbound before going back to the free list:
	// a stale binding would let the next request write into this one's
	// finished Stats. The cache wrapper is per-request state around the
	// pooled engine.
	eng := gp
	if wrap {
		eng = p.Cache.Wrap(gp)
	}
	core.BindStats(eng, cq.Stats)
	core.BindCancel(eng, ctx.Done())
	completed := false
	defer func() {
		if !completed {
			// On panic the engine's internal state is suspect: drop it
			// for the GC instead of poisoning the free list.
			pool.Discard()
			return
		}
		core.BindStats(gp, nil)
		core.BindCancel(gp, nil)
		pool.Release(gp)
		pool.PutScratch(scr)
	}()

	start := time.Now()
	computeSp := tr.StartSpan("compute")
	out.Answers, err = core.Dispatch(p.G, q.Algo, eng, cq, q.K)
	completed = true
	computeSp.End()
	out.Computed, out.Compute = true, time.Since(start)
	// The answers outlive the checkout (encoding, the result cache,
	// coalesced followers), so any subset aliasing the Scratch is cloned
	// before the deferred PutScratch.
	detachSubsets(out.Answers)
	if errors.Is(err, core.ErrCanceled) && ctx.Err() != nil {
		// Attribute the abort: a deadline reads as a timeout, a vanished
		// client as a cancellation.
		err = fmt.Errorf("%w: %w", err, ctx.Err())
	}
	return out, err
}

// recoverInternal converts a panic into an internal error.
func recoverInternal(errp *error) {
	if rec := recover(); rec != nil {
		*errp = fmt.Errorf("internal error: %v", rec)
	}
}

// detachSubsets clones every answer's subset out of whatever buffer the
// engine or Scratch produced it in, giving the answers independent
// lifetimes.
func detachSubsets(answers []core.Answer) {
	for i, a := range answers {
		if len(a.Subset) > 0 {
			answers[i].Subset = append([]graph.NodeID(nil), a.Subset...)
		}
	}
}
