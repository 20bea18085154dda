package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/lifecycle"
	"fannr/internal/pipeline"
	"fannr/internal/qcache"
)

// HostOptions configures one shard host.
type HostOptions struct {
	// PoolCapacity bounds each engine pool's free list (default 2).
	PoolCapacity int
	// Limits is the pool admission policy (zero = EnginePool defaults).
	Limits core.PoolLimits
	// CacheEntries sizes the host-local result cache (0 disables it).
	CacheEntries int
	// RetryAfter is the hint attached to shed responses (rounded to whole
	// seconds, at least 1).
	RetryAfter time.Duration
	// Check, when set, gates every request: a lifecycle error returned
	// here (ErrUnavailable, IndexFault) surfaces with the index-fault /
	// overloaded taxonomy before any engine is touched. This is where a
	// host built over reloadable indexes plugs its holder state in.
	Check func() error
}

// Host serves one shard: the full engine set over the (replicated)
// graph, answering FANN queries restricted to the P-objects the
// coordinator routes here. Queries run through the same pipeline as the
// single-process server — normalisation, result cache, pool admission,
// Scratch, deadline cancellation, op counts, fault guard and taxonomy —
// behind the framed shard RPC instead of the public JSON API.
type Host struct {
	ID    int
	g     *graph.Graph
	opts  HostOptions
	pools map[string]*core.EnginePool
	order []string
	pipe  pipeline.Pipeline
}

// NewHost creates a host over g. Engines are added with AddEngine.
func NewHost(id int, g *graph.Graph, opts HostOptions) *Host {
	if opts.PoolCapacity < 1 {
		opts.PoolCapacity = 2
	}
	h := &Host{ID: id, g: g, opts: opts, pools: map[string]*core.EnginePool{}}
	h.pipe = pipeline.Pipeline{
		G:        g,
		Cache:    qcache.New(qcache.Config{MaxEntries: opts.CacheEntries}),
		Checkout: h.checkout,
		Ranges:   lifecycle.NewRanges(),
	}
	return h
}

// AddEngine registers a named engine pool.
func (h *Host) AddEngine(name string, factory core.EngineFactory) error {
	if _, dup := h.pools[name]; dup {
		return fmt.Errorf("shard: host %d: duplicate engine %q", h.ID, name)
	}
	h.pools[name] = core.NewBoundedEnginePool(name, h.opts.PoolCapacity, h.opts.Limits, factory)
	h.order = append(h.order, name)
	return nil
}

// Engines lists the registered engine names in registration order.
func (h *Host) Engines() []string { return append([]string(nil), h.order...) }

// checkout is the host's pipeline checkout: static pools, no pins.
func (h *Host) checkout(engine string) (*core.EnginePool, *lifecycle.Pin, error) {
	return h.pools[engine], nil, nil
}

func (h *Host) retryAfterSecs() int { return pipeline.RetryAfterSecs(h.opts.RetryAfter) }

// Execute answers one shard RPC. An empty P (the coordinator routed no
// objects here) and a query whose best candidate is unreachable both
// return an empty Answers list: per-shard "nothing found" is a
// successful empty reply — only the coordinator, seeing every shard, can
// declare the global query unanswerable. Errors come back classified
// (see Classify) so both transports preserve the taxonomy.
func (h *Host) Execute(ctx context.Context, req *Request) (*Response, error) {
	start := time.Now()
	if h.opts.Check != nil {
		if err := h.opts.Check(); err != nil {
			return nil, Classify(err, h.retryAfterSecs())
		}
	}
	if len(req.P) == 0 {
		return &Response{Engine: req.Engine}, nil
	}
	q, err := pipeline.Normalize(h.g, req, h.order[0])
	if err != nil {
		return nil, Classify(err, 0)
	}
	if _, ok := h.pools[q.Engine]; !ok {
		return nil, Classify(pipeline.Invalidf("unknown engine %q", q.Engine), 0)
	}
	resp := &Response{Engine: q.Engine}
	q.Core.Stats = &resp.stats
	out, err := h.pipe.Run(ctx, &q, pipeline.Route{Engine: q.Engine})
	if err != nil && !errors.Is(err, core.ErrNoResult) {
		return nil, Classify(err, h.retryAfterSecs())
	}
	// The answers are the pipeline's detached copies (or the cache's
	// shared ones): the response takes them as they are.
	resp.Answers = out.Answers
	resp.CacheHit = out.Cache == "exact"
	resp.GPhiEvals = resp.stats.GPhiEvals
	resp.Micros = time.Since(start).Microseconds()
	return resp, nil
}

// Handler serves the shard RPC:
//
//	POST /shard/fann — framed Request → framed Response
//	GET  /shard/healthz — liveness + the Check hook's verdict
//
// Error responses are plain JSON {error, code} with the HTTP status from
// the taxonomy and Retry-After on sheds — byte-compatible with the
// public server's error surface, which is what lets the coordinator
// relay them without translation.
func (h *Host) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shard/fann", h.handleFANN)
	mux.HandleFunc("GET /shard/healthz", h.handleHealthz)
	return mux
}

func (h *Host) handleFANN(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxFramePayload+frameHeader+frameTrailer))
	if err != nil {
		writeError(w, Classify(fmt.Errorf("%w: reading frame: %s", ErrCodec, err), 0))
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		writeError(w, Classify(err, 0))
		return
	}
	resp, err := h.Execute(r.Context(), req)
	if err != nil {
		writeError(w, Classify(err, h.retryAfterSecs()))
		return
	}
	frame, err := EncodeResponse(resp)
	if err != nil {
		writeError(w, Classify(err, 0))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Fannr-Shard", strconv.Itoa(h.ID))
	w.WriteHeader(http.StatusOK)
	w.Write(frame)
}

func (h *Host) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if h.opts.Check != nil {
		if err := h.opts.Check(); err != nil {
			writeError(w, Classify(err, h.retryAfterSecs()))
			return
		}
	}
	pipeline.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "shard": h.ID, "engines": len(h.pools)})
}

// sortAnswers keeps merged answer lists ordered by distance then node id
// (shared by the coordinator's merge).
func sortAnswers(answers []Answer) {
	sort.Slice(answers, func(i, j int) bool {
		if answers[i].Dist != answers[j].Dist {
			return answers[i].Dist < answers[j].Dist
		}
		return answers[i].P < answers[j].P
	})
}
