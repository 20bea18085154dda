package main

// layerMetrics reports every per-layer metric of a --trace 1 run from
// the timed replays, the one-connection HTTP pass (seqOut) and the
// /metrics deltas of the load phases. Timings are per-request medians in
// µs over the requests that reached the layer; counts are per-request
// means; ratios are totals over the pass.
func (b *bench) layerMetrics(seqOut []outcome, srv *serverReplay, shd []shardRec, l *load) {
	var (
		decode, fingerprint, lookup, fill, encode, respBytes []float64
		acquire, dispatch, gphi, algo, evals, pruned, allocs []float64
		rtreeBuild, visits, unattributed                     []float64
		hits                                                 int
	)
	for i := range srv.recs {
		r := &srv.recs[i]
		decode = append(decode, micros(r.decode))
		fingerprint = append(fingerprint, micros(r.fingerprint))
		lookup = append(lookup, micros(r.lookup))
		encode = append(encode, micros(r.encode))
		respBytes = append(respBytes, float64(r.respBytes))
		if r.hit {
			hits++
		}
		if r.computed {
			fill = append(fill, micros(r.fill))
			acquire = append(acquire, micros(r.acquire))
			dispatch = append(dispatch, micros(r.dispatch))
			gphi = append(gphi, micros(r.gphi))
			algo = append(algo, micros(r.dispatch-r.gphi-r.rtreeBuild))
			evals = append(evals, float64(r.stats.GPhiEvals))
			pruned = append(pruned, float64(r.stats.Pruned))
			allocs = append(allocs, float64(r.allocs))
		}
		if r.ier {
			rtreeBuild = append(rtreeBuild, micros(r.rtreeBuild))
			visits = append(visits, float64(r.stats.IndexVisits))
		}
		if seqOut[i].ok() {
			attributed := r.layerSum()
			if b.spec.shard {
				attributed = shd[i].layerSum()
			}
			unattributed = append(unattributed, micros(seqOut[i].latency()-attributed))
		}
	}
	n := len(srv.recs)
	b.metric("server.decode_us", "us", median(decode), len(decode))
	b.metric("server.encode_us", "us", median(encode), len(encode))
	b.metric("server.resp_bytes", "bytes", median(respBytes), len(respBytes))
	b.metric("server.unattributed_us", "us", median(unattributed), len(unattributed))

	cm := srv.cache
	b.metric("qcache.fingerprint_us", "us", median(fingerprint), len(fingerprint))
	b.metric("qcache.lookup_us", "us", median(lookup), len(lookup))
	b.metric("qcache.fill_us", "us", median(fill), len(fill))
	b.metric("qcache.hit_rate", "ratio", ratio(float64(hits), float64(n)), n)
	httpHits := family(l.counters, "fannr_cache_hits_total{kind=\"exact\"}") + family(l.counters, "fannr_shard_cache_hits_total")
	httpMisses := family(l.counters, "fannr_cache_misses_total{kind=\"exact\"}") + family(l.counters, "fannr_shard_cache_misses_total")
	b.metric("qcache.hit_rate_http", "ratio", ratio(httpHits, httpHits+httpMisses), int(httpHits+httpMisses))
	b.metric("qcache.subsume_hit_rate", "ratio", ratio(float64(cm.HitsSubsume), float64(cm.HitsSubsume+cm.MissesList)), int(cm.HitsSubsume+cm.MissesList))
	b.metric("qcache.evictions_per_req", "count", ratio(float64(cm.Evictions), float64(n)), n)
	loadReqs := float64(len(l.openOut) + len(l.closedOut))
	b.metric("qcache.coalesced_share", "ratio", ratio(family(l.counters, "fannr_coalesced_total"), loadReqs), int(loadReqs))

	b.metric("core.acquire_us", "us", median(acquire), len(acquire))
	b.metric("core.dispatch_us", "us", median(dispatch), len(dispatch))
	b.metric("core.dispatch_p99_us", "us", quantile(dispatch, 0.99), len(dispatch))
	b.metric("core.gphi_us", "us", median(gphi), len(gphi))
	b.metric("core.algo_us", "us", median(algo), len(algo))
	b.metric("core.gphi_evals", "count", mean(evals), len(evals))
	b.metric("core.pruned", "count", mean(pruned), len(pruned))
	b.metric("core.allocs_per_query", "count", mean(allocs), len(allocs))
	b.metric("rtree.build_us", "us", median(rtreeBuild), len(rtreeBuild))
	b.metric("rtree.index_visits", "count", mean(visits), len(visits))

	var bound, coord, contacted, prunedShards, codec, host, frame []float64
	var useful, calls int
	for i := range shd {
		r := &shd[i]
		bound = append(bound, micros(r.bound))
		coord = append(coord, micros(r.coord))
		contacted = append(contacted, float64(r.contacted))
		prunedShards = append(prunedShards, float64(r.pruned))
		for j := range r.codec {
			codec = append(codec, micros(r.codec[j]))
			host = append(host, micros(r.host[j]))
			frame = append(frame, float64(r.frameBytes[j]))
		}
		useful += r.useful
		calls += len(r.codec)
	}
	b.metric("shard.bound_us", "us", median(bound), len(bound))
	b.metric("shard.codec_us", "us", median(codec), len(codec))
	b.metric("shard.frame_bytes", "bytes", median(frame), len(frame))
	b.metric("shard.host_us", "us", median(host), len(host))
	b.metric("shard.coord_us", "us", median(coord), len(coord))
	b.metric("shard.contacted", "count", mean(contacted), len(contacted))
	b.metric("shard.pruned", "count", mean(prunedShards), len(prunedShards))
	b.metric("shard.contacted_http", "count", ratio(family(l.counters, "fannr_shard_contacted_total"), loadReqs), int(loadReqs))
	b.metric("shard.pruned_http", "count", ratio(family(l.counters, "fannr_shard_pruned_total"), loadReqs), int(loadReqs))
	b.metric("shard.useful_ratio", "ratio", ratio(float64(useful), float64(calls)), calls)
}
