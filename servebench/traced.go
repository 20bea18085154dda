package main

import (
	"context"
	"fmt"
	"time"

	"fannr/internal/graph"
	"fannr/internal/qcache"
	"fannr/internal/shard"
)

// traced is the --trace 1 run. A fresh server first answers the replay
// stream one request at a time on one connection, then carries the
// open- and closed-loop load for its /metrics counters. After it stops,
// the same replay stream runs in-process through the server pipeline
// (timed and untimed) and through the coordinator, and every layer
// metric is computed from those passes.
func (b *bench) traced() error {
	ctx := context.Background()
	sg, err := newStreamGen(b.env.g, b.spec, b.cfg.seed)
	if err != nil {
		return err
	}
	seq := sg.take(seqRequests)
	l := b.newLoad(sg)
	p, secs, err := startServer(b.spec, b.cfg.binDir, b.logPath("traced"))
	if err != nil {
		return err
	}
	b.printf("setup: ready after %.3f s", secs)
	seqOut := sequential(ctx, p.base, seq)
	err = b.drive(ctx, p, l)
	p.stop()
	if err != nil {
		return err
	}

	if err := b.env.loadPHL(); err != nil {
		return err
	}
	if err := b.env.loadPlan(); err != nil {
		return err
	}
	c := newChecker(b.env)
	b.verify("sequential", seq, seqOut, c)
	b.verifyLoad("load", l, c)
	b.verifySample(c)

	// Replays: untimed and timed server-pipeline passes, alternated so
	// neither always runs on a warmer process; the fastest of each kind
	// gives the timer overhead.
	var timed *serverReplay
	var walls [2]time.Duration
	for round := 0; round < 2; round++ {
		for i, sw := range []stopwatch{false, true} {
			r, err := b.replayServer(seq, sw)
			if err != nil {
				return err
			}
			if sw {
				timed = r
			}
			if walls[i] == 0 || r.wall < walls[i] {
				walls[i] = r.wall
			}
		}
	}
	srv := timed.recs
	b.printf("replay: server pipeline %d requests, untimed %.3f s, timed %.3f s", len(seq), walls[0].Seconds(), walls[1].Seconds())
	shd, err := b.replayShard(seq)
	if err != nil {
		return err
	}

	// The replay must reproduce what the servers answered.
	for i := range seq {
		if !seqOut[i].ok() {
			continue
		}
		var err error
		switch {
		case b.spec.shard && !sameShardAnswers(seqOut[i].answers, shd[i].answers):
			err = fmt.Errorf("coordinator replay answers %v, HTTP %v", shardDists(shd[i].answers), httpDists(seqOut[i].answers))
		case !b.spec.shard && !sameAnswers(seqOut[i].answers, srv[i].resp.Answers):
			err = fmt.Errorf("server replay answers %v, HTTP %v", srv[i].resp.Answers, seqOut[i].answers)
		case !equalDists(shardDists(shd[i].answers), respDists(srv[i].resp.Answers), relTol):
			err = fmt.Errorf("coordinator answers %v, direct %v", shardDists(shd[i].answers), respDists(srv[i].resp.Answers))
		}
		if err != nil {
			b.wrong++
			b.errs = append(b.errs, fmt.Errorf("replay request %d: %w", i, err))
		}
	}

	b.layerMetrics(seqOut, timed, shd, l)
	b.metric("bench.trace_overhead_pct", "%", 100*(walls[1].Seconds()-walls[0].Seconds())/walls[0].Seconds(), len(seq))
	_, late99 := lateness(l.openOut)
	b.metric("bench.late_p99_ms", "ms", late99, len(l.openOut))
	return nil
}

// serverReplay is one pass of a stream through the server pipeline.
type serverReplay struct {
	recs  []serverRec
	wall  time.Duration
	cache qcache.Metrics // the pass's cache counters
}

// replayServer runs reqs through a fresh server pipeline.
func (b *bench) replayServer(reqs []request, sw stopwatch) (*serverReplay, error) {
	sp, err := newServerPath(b.env)
	if err != nil {
		return nil, err
	}
	r := &serverReplay{recs: make([]serverRec, len(reqs))}
	start := time.Now()
	for i := range reqs {
		if err := sp.run(reqs[i].body, sw, &r.recs[i]); err != nil {
			return nil, fmt.Errorf("server replay request %d: %w", i, err)
		}
	}
	r.wall = time.Since(start)
	r.cache = sp.qc.Metrics()
	return r, nil
}

// replayShard runs reqs through a fresh coordinator deployment.
func (b *bench) replayShard(reqs []request) ([]shardRec, error) {
	p, err := newShardPath(b.env)
	if err != nil {
		return nil, err
	}
	recs := make([]shardRec, len(reqs))
	for i := range reqs {
		if err := p.run(reqs[i].body, &recs[i]); err != nil {
			return nil, fmt.Errorf("coordinator replay request %d: %w", i, err)
		}
	}
	return recs, nil
}

// sameShardAnswers reports whether HTTP coordinator answers equal the
// replayed coordinator's exactly.
func sameShardAnswers(h []httpAnswer, r []shard.Answer) bool {
	if len(h) != len(r) {
		return false
	}
	for i := range h {
		if graph.NodeID(h[i].P) != r[i].P || h[i].Dist != r[i].Dist {
			return false
		}
	}
	return true
}
