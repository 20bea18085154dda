package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/obs"
	"fannr/internal/qcache"
	"fannr/internal/server"
	"fannr/internal/shard"
	"fannr/internal/sp"
)

// stopwatch times replay layers when on and costs one branch when off,
// so the same code serves the timed replay and its untimed twin.
type stopwatch bool

func (on stopwatch) now() time.Time {
	if on {
		return time.Now()
	}
	return time.Time{}
}

func (on stopwatch) since(t time.Time) time.Duration {
	if on {
		return time.Since(t)
	}
	return 0
}

// allocCounter reads the runtime's cumulative heap-allocation count.
type allocCounter []metrics.Sample

func newAllocCounter() allocCounter {
	return allocCounter{{Name: "/gc/heap/allocs:objects"}}
}

func (a allocCounter) read() uint64 {
	metrics.Read(a)
	return a[0].Value.Uint64()
}

// serverRec is one request's pass through the server pipeline.
type serverRec struct {
	decode, fingerprint, lookup, acquire time.Duration
	dispatch, gphi, rtreeBuild, fill     time.Duration
	encode                               time.Duration
	respBytes                            int
	hit, computed, ier                   bool
	stats                                core.Stats
	allocs                               uint64
	resp                                 server.FANNResponse
}

// layerSum is the request's time inside the timed layers, the part of
// its HTTP latency the replay attributes. The P R-tree is timed outside
// Dispatch and therefore not added.
func (r *serverRec) layerSum() time.Duration {
	return r.decode + r.fingerprint + r.lookup + r.acquire + r.dispatch + r.fill + r.encode
}

// serverPath replays fannr-server's /fann handling at its default
// flags (exact cache and neighbor-list cache on, batching off) by
// calling the public functions of the server's packages in handleFANN's
// order. Coalescing is left out: with one caller it never triggers.
type serverPath struct {
	g      *graph.Graph
	qc     *qcache.Cache
	pools  map[string]*core.EnginePool
	allocs allocCounter
}

func newServerPath(e *env) (*serverPath, error) {
	ix := e.phl
	if _, err := core.NewIERGPhi("IER-PHL", e.g, ix); err != nil {
		return nil, err
	}
	return &serverPath{
		g:  e.g,
		qc: qcache.New(qcache.Config{MaxEntries: cacheEntries}),
		pools: map[string]*core.EnginePool{
			"PHL": core.NewBoundedEnginePool("PHL", 0, core.PoolLimits{}, func() core.GPhi {
				return core.NewOracleGPhi("PHL", ix)
			}),
			"IER-PHL": core.NewBoundedEnginePool("IER-PHL", 0, core.PoolLimits{}, func() core.GPhi {
				gp, err := core.NewIERGPhi("IER-PHL", e.g, ix)
				if err != nil {
					panic(err) // checked above
				}
				return gp
			}),
		},
		allocs: newAllocCounter(),
	}, nil
}

// run answers one request body. With sw on it fills rec's timings; op
// counts, cache outcome and the response are recorded either way.
func (s *serverPath) run(body []byte, sw stopwatch, rec *serverRec) error {
	tr := obs.NewTrace("replay")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	t := sw.now()
	var req server.FANNRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	q := core.Query{P: req.P, Q: req.Q, Phi: req.Phi, Stats: &rec.stats, Trace: tr}
	switch req.Agg {
	case "", "max":
		q.Agg = core.Max
	case "sum":
		q.Agg = core.Sum
	default:
		return fmt.Errorf("unknown aggregate %q", req.Agg)
	}
	if err := q.Validate(s.g); err != nil {
		return err
	}
	rec.decode = sw.since(t)
	if req.K < 1 {
		req.K = 1
	}
	pool, ok := s.pools[req.Engine]
	if !ok {
		return fmt.Errorf("replay has no engine %q", req.Engine)
	}
	algo := req.Algo
	if algo == "" {
		algo = "gd"
	}

	t = sw.now()
	rkey := qcache.ResultKey{
		Engine: req.Engine, Algo: algo, Agg: q.Agg, Phi: q.Phi, K: req.K,
		P: qcache.FingerprintNodes(q.P), Q: qcache.FingerprintNodes(q.Q),
	}
	rec.fingerprint = sw.since(t)

	t = sw.now()
	answers, hit := s.qc.GetResult(rkey)
	rec.lookup = sw.since(t)
	rec.hit = hit
	if hit {
		q.Stats.CountCacheHit()
	} else {
		var err error
		if answers, err = s.compute(ctx, pool, algo, req.K, q, sw, rec); err != nil {
			return err
		}
		t = sw.now()
		s.qc.PutResult(rkey, answers)
		rec.fill = sw.since(t)
	}

	t = sw.now()
	rec.resp = server.FANNResponse{Engine: req.Engine}
	for _, a := range answers {
		rec.resp.Answers = append(rec.resp.Answers, server.FANNAnswer{P: a.P, Dist: a.Dist, Subset: a.Subset})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rec.resp); err != nil {
		return err
	}
	rec.encode = sw.since(t)
	rec.respBytes = buf.Len()
	return nil
}

// compute is the cache-miss path: admission, engine binding, Dispatch
// through the cache wrapper, and the pool return.
func (s *serverPath) compute(ctx context.Context, pool *core.EnginePool, algo string, k int, q core.Query, sw stopwatch, rec *serverRec) ([]core.Answer, error) {
	rec.computed = true
	rec.ier = algo == "ier"
	if bool(sw) && rec.ier {
		t := time.Now()
		core.BuildPTree(s.g, q.P)
		rec.rtreeBuild = time.Since(t)
	}

	t := sw.now()
	gp, err := pool.Acquire(ctx)
	if err != nil {
		return nil, err
	}
	scr := pool.GetScratch()
	rec.acquire = sw.since(t)
	q.Scratch = scr
	stop := q.BindContext(ctx)
	defer stop()

	inner := gp
	if sw {
		inner = timeGPhi(gp, &rec.gphi)
	}
	eng := s.qc.Wrap(inner)
	core.BindStats(eng, q.Stats)
	core.BindCancel(eng, ctx.Done())

	var before uint64
	if sw {
		before = s.allocs.read()
	}
	t = sw.now()
	answers, err := core.Dispatch(s.g, algo, eng, q, k)
	rec.dispatch = sw.since(t)
	if sw {
		rec.allocs = s.allocs.read() - before
	}

	core.BindStats(gp, nil)
	core.BindCancel(gp, nil)
	for i, a := range answers {
		if len(a.Subset) > 0 {
			answers[i].Subset = append([]graph.NodeID(nil), a.Subset...)
		}
	}
	pool.Release(gp)
	pool.PutScratch(scr)
	return answers, err
}

// timedGPhi charges the time spent inside an engine to *acc. It forwards
// every optional interface the algorithms and the cache probe on an
// engine (StatsSink, CancelSink, NeighborSearcher) so the replay runs the
// same code paths, and the same op counts, as without it.
type timedGPhi struct {
	inner core.GPhi
	acc   *time.Duration
}

// timedSearcher is timedGPhi over an engine that enumerates neighbors.
type timedSearcher struct {
	timedGPhi
	ns core.NeighborSearcher
}

// timeGPhi wraps inner, keeping its NeighborSearcher capability exactly
// when inner has it.
func timeGPhi(inner core.GPhi, acc *time.Duration) core.GPhi {
	t := timedGPhi{inner: inner, acc: acc}
	if ns, ok := inner.(core.NeighborSearcher); ok {
		return &timedSearcher{timedGPhi: t, ns: ns}
	}
	return &t
}

func (t *timedGPhi) Name() string { return t.inner.Name() }

func (t *timedGPhi) BindStats(s *core.Stats) { core.BindStats(t.inner, s) }

func (t *timedGPhi) BindCancel(done <-chan struct{}) { core.BindCancel(t.inner, done) }

func (t *timedGPhi) Reset(Q []graph.NodeID) {
	start := time.Now()
	t.inner.Reset(Q)
	*t.acc += time.Since(start)
}

func (t *timedGPhi) Dist(p graph.NodeID, k int, agg core.Aggregate) (float64, bool) {
	start := time.Now()
	d, ok := t.inner.Dist(p, k, agg)
	*t.acc += time.Since(start)
	return d, ok
}

func (t *timedGPhi) Subset(p graph.NodeID, k int, dst []graph.NodeID) []graph.NodeID {
	start := time.Now()
	dst = t.inner.Subset(p, k, dst)
	*t.acc += time.Since(start)
	return dst
}

func (t *timedSearcher) KNearest(p graph.NodeID, k int, dst []sp.Neighbor) []sp.Neighbor {
	start := time.Now()
	dst = t.ns.KNearest(p, k, dst)
	*t.acc += time.Since(start)
	return dst
}

// shardRec is one request's pass through the coordinator.
type shardRec struct {
	decode, encode time.Duration
	bound, coord   time.Duration
	// per contacted shard, from the breakdown coordinator
	codec, host []time.Duration
	frameBytes  []int
	useful      int
	contacted   int
	pruned      int
	answers     []shard.Answer
}

// layerSum is the coordinator-side time the replay attributes.
func (r *shardRec) layerSum() time.Duration { return r.decode + r.coord + r.encode }

// shardPath replays fannr-shard -mode all at its defaults: four hosts
// with PHL behind InProc transports and a coordinator over them. A
// second, identical deployment runs every request again with a timing
// transport that records per-shard codec and host time; its calls are
// serialized so each one is timed without the others competing for the
// CPU. The first deployment alone gives the coordinator's wall time.
type shardPath struct {
	plan      *shard.Plan
	coord     *shard.Coordinator
	breakdown *shard.Coordinator
	calls     *callLog
}

// coordinatorOptions mirrors fannr-shard's flag defaults.
func coordinatorOptions() shard.CoordinatorOptions {
	return shard.CoordinatorOptions{
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Second, MaxFanout: 4,
		RetryAfter: time.Second, CacheEntries: cacheEntries, Registry: obs.NewRegistry(),
	}
}

func newShardPath(e *env) (*shardPath, error) {
	ix := e.phl
	hosts := func() []*shard.Host {
		var hs []*shard.Host
		for s := 0; s < e.plan.Shards(); s++ {
			h := shard.NewHost(s, e.g, shard.HostOptions{CacheEntries: 1024, RetryAfter: time.Second})
			if err := h.AddEngine("PHL", func() core.GPhi { return core.NewOracleGPhi("PHL", ix) }); err != nil {
				panic(err) // one engine per fresh host cannot collide
			}
			hs = append(hs, h)
		}
		return hs
	}
	p := &shardPath{plan: e.plan, calls: &callLog{}}
	var plain, timed []shard.Transport
	for _, h := range hosts() {
		plain = append(plain, shard.InProc{Host: h})
	}
	for _, h := range hosts() {
		timed = append(timed, &timedTransport{host: h, log: p.calls})
	}
	var err error
	if p.coord, err = shard.NewCoordinator(e.plan, plain, coordinatorOptions()); err != nil {
		return nil, err
	}
	if p.breakdown, err = shard.NewCoordinator(e.plan, timed, coordinatorOptions()); err != nil {
		return nil, err
	}
	return p, nil
}

// shardRequest maps a stream request onto what the hosts offer.
func shardRequest(r server.FANNRequest) shard.FANNRequest {
	return shard.FANNRequest{P: r.P, Q: r.Q, Phi: r.Phi, Agg: r.Agg, Algo: r.Algo, Engine: "PHL", K: r.K}
}

// run answers one request through the coordinator, then through the
// breakdown deployment, timing every layer.
func (p *shardPath) run(body []byte, rec *shardRec) error {
	ctx := context.Background()
	t := time.Now()
	var sreq server.FANNRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sreq); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	fr := shardRequest(sreq)
	rec.decode = time.Since(t)
	req := &shard.Request{P: fr.P, Q: fr.Q, Phi: fr.Phi, Agg: fr.Agg, Algo: fr.Algo, Engine: fr.Engine, K: fr.K}

	t = time.Now()
	res, err := p.coord.Execute(ctx, req, nil)
	rec.coord = time.Since(t)
	if err != nil {
		return err
	}
	rec.contacted, rec.pruned, rec.answers = res.Contacted, res.Pruned, res.Answers

	t = time.Now()
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(shard.FANNResponse{
		Answers: res.Answers, Engine: res.Engine, ShardsContacted: res.Contacted, ShardsPruned: res.Pruned,
	})
	rec.encode = time.Since(t)
	if err != nil {
		return err
	}
	return p.breakDown(ctx, req, res, rec)
}

// breakDown times Plan.Bound for every candidate shard, then runs the
// request on the breakdown deployment and collects its per-shard calls.
func (p *shardPath) breakDown(ctx context.Context, req *shard.Request, res *shard.Result, rec *shardRec) error {
	q := core.Query{P: req.P, Q: req.Q, Phi: req.Phi}
	if req.Agg == "sum" {
		q.Agg = core.Sum
	}
	if err := q.Validate(p.plan.Graph()); err != nil {
		return err
	}
	k := q.K()
	for s, ps := range p.plan.SplitP(q.P) {
		if len(ps) > 0 {
			t := time.Now()
			p.plan.Bound(s, q.Q, k, q.Agg)
			rec.bound += time.Since(t)
		}
	}

	p.calls.reset()
	res2, err := p.breakdown.Execute(ctx, req, nil)
	if err != nil {
		return err
	}
	if !equalDists(shardDists(res.Answers), shardDists(res2.Answers), 0) || res2.Contacted != res.Contacted {
		return fmt.Errorf("breakdown deployment disagrees with the coordinator: %v/%d vs %v/%d",
			res2.Answers, res2.Contacted, res.Answers, res.Contacted)
	}
	final := map[graph.NodeID]bool{}
	for _, a := range res.Answers {
		final[a.P] = true
	}
	for _, c := range p.calls.calls {
		rec.codec = append(rec.codec, c.codec)
		rec.host = append(rec.host, c.host)
		rec.frameBytes = append(rec.frameBytes, c.frameBytes)
		for _, a := range c.answers {
			if final[a.P] {
				rec.useful++
				break
			}
		}
	}
	return nil
}

// shardCall is one RPC of the breakdown deployment.
type shardCall struct {
	codec, host time.Duration
	frameBytes  int
	answers     []shard.Answer
}

// callLog collects the breakdown deployment's RPCs. Its mutex also
// serializes the calls a coordinator wave issues concurrently.
type callLog struct {
	mu    sync.Mutex
	calls []shardCall
}

func (l *callLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = l.calls[:0]
}

// timedTransport is shard.InProc with each step timed: the request and
// response frames through the codec, and Host.Execute.
type timedTransport struct {
	host *shard.Host
	log  *callLog
}

func (t *timedTransport) Target() string { return fmt.Sprintf("timed:%d", t.host.ID) }

func (t *timedTransport) Call(ctx context.Context, req *shard.Request) (*shard.Response, error) {
	t.log.mu.Lock()
	defer t.log.mu.Unlock()
	var c shardCall
	start := time.Now()
	frame, err := shard.EncodeRequest(req)
	if err != nil {
		return nil, shard.Classify(err, 0)
	}
	decoded, err := shard.DecodeRequest(frame)
	if err != nil {
		return nil, shard.Classify(err, 0)
	}
	c.codec = time.Since(start)
	start = time.Now()
	resp, err := t.host.Execute(ctx, decoded)
	c.host = time.Since(start)
	if err != nil {
		return nil, shard.Classify(err, 1)
	}
	start = time.Now()
	out, err := shard.EncodeResponse(resp)
	if err != nil {
		return nil, shard.Classify(err, 0)
	}
	back, err := shard.DecodeResponse(out)
	c.codec += time.Since(start)
	if err != nil {
		return nil, shard.Classify(err, 0)
	}
	c.frameBytes = len(frame) + len(out)
	c.answers = back.Answers
	t.log.calls = append(t.log.calls, c)
	return back, nil
}
