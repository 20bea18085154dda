package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/qcache"
	"fannr/internal/server"
	"fannr/internal/workload"
)

// Dataset and scale every workload runs on: NW at 1/16 (67,506 nodes).
const (
	datasetName  = "NW"
	datasetScale = 1.0 / 16
)

// workloadSpec is one traffic mix plus the deployment that serves it.
type workloadSpec struct {
	name string
	// shard sends the stream to fannr-shard instead of fannr-server.
	shard bool
	// repeat draws the stream from a fixed set of bases under Zipf
	// popularity instead of giving every request a fresh Q.
	repeat bool
	// rate is the frozen open-loop arrival rate in requests per second.
	rate float64
	// manual workloads are run by hand only. They are left out of
	// BENCHMARK.json because their end-to-end figures are too unsteady
	// to gate a change on.
	manual bool
}

// workloads lists every workload the benchmark runs. Rates are frozen
// at about a fifth of each workload's closed-loop capacity on a 2-vCPU
// host (about 1.5k, 6k and 0.95k requests per second), so later changes
// are measured at the same load. The load is kept that light because
// queueing amplifies the host's own slowdowns: at a third of capacity,
// a 35% slower host doubled shard-fresh's p50.
var workloads = []workloadSpec{
	{name: "poi-fresh", rate: 300},
	// poi-repeat's figures swing from one server process to the next:
	// neighbor lists share the LRU with results, so which hot results
	// survive is chaotic (p99 from 5 to 17 ms between rounds of one run).
	{name: "poi-repeat", repeat: true, rate: 1200, manual: true},
	{name: "shard-fresh", shard: true, rate: 200},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// poiLayers are the Table IV layers P is drawn from (16–315 points at
// NW 1/16). Each request uses one of them, in equal shares.
var poiLayers = []string{"FF", "PA", "SC", "HOS"}

// Request shapes: |Q| and φ are drawn in equal shares from these sets;
// coverage is fixed at A = 10%.
var (
	qSizes   = []int{32, 64, 128}
	phis     = []float64{0.25, 0.5, 1}
	coverage = 0.10
)

// qClusters is the cluster count of clustered query sets.
const qClusters = 4

// queryClass is one algorithm/engine/aggregate/k combination of the mix.
type queryClass struct {
	algo, engine, agg string
	k                 int
}

// classMix holds the mix in its exact proportions: 6 in 10 requests are
// ier over IER-PHL, 2 in 10 gd over PHL and 2 in 10 top-5 sum queries.
var classMix = []queryClass{
	{"ier", "IER-PHL", "max", 1}, {"ier", "IER-PHL", "max", 1},
	{"ier", "IER-PHL", "max", 1}, {"ier", "IER-PHL", "max", 1},
	{"ier", "IER-PHL", "max", 1}, {"ier", "IER-PHL", "max", 1},
	{"gd", "PHL", "max", 1}, {"gd", "PHL", "max", 1},
	{"ier", "IER-PHL", "sum", 5}, {"ier", "IER-PHL", "sum", 5},
}

// Each seed draws poiInstances placements of every layer and qRegions
// coverage regions (a region is centred on a random node). Requests
// cycle through all of them, so the cost of a stream does not hinge on
// one placement or one neighbourhood and seeds cost alike.
const (
	poiInstances = 4
	qRegions     = 32
)

// Repeat-stream shape: repeatBases distinct (P, Q, class) bases under
// Zipf(repeatZipfS) popularity, each request at a φ of the ladder dealt
// in equal shares.
const (
	repeatBases = 200
	repeatZipfS = 1.2
)

// cacheEntries is the -cache-entries default the servers run with.
const cacheEntries = 4096

// request is one /fann call of a stream.
type request struct {
	req  server.FANNRequest
	body []byte
}

// resultKey is the server's exact-cache key for a request on the engine
// it names (fingerprints are process-local, like the server's).
func (r *request) resultKey() qcache.ResultKey {
	agg := core.Max
	if r.req.Agg == "sum" {
		agg = core.Sum
	}
	return qcache.ResultKey{
		Engine: r.req.Engine, Algo: r.req.Algo, Agg: agg, Phi: r.req.Phi, K: r.req.K,
		P: qcache.FingerprintNodes(r.req.P), Q: qcache.FingerprintNodes(r.req.Q),
	}
}

// streamGen draws the requests of one workload from one seed. Every
// random choice flows from the seed, so the same seed yields a
// byte-identical stream.
type streamGen struct {
	spec    workloadSpec
	rng     *rand.Rand
	layers  [][]graph.NodeID
	regions []*workload.Generator
	// decks deal each request attribute in exact proportions: a deck is
	// a shuffled copy of the attribute's values, refilled when empty.
	decks map[string][]int
	seen  map[qcache.ResultKey]bool
	// repeat-stream state: the bases, their encoded (base, φ) instances
	// and the popularity distribution over bases
	bases []server.FANNRequest
	insts map[int]request
	zipf  *rand.Zipf
}

func newStreamGen(g *graph.Graph, spec workloadSpec, seed int64) (*streamGen, error) {
	sg := &streamGen{
		spec:  spec,
		rng:   rand.New(rand.NewSource(seed)),
		decks: map[string][]int{},
		seen:  map[qcache.ResultKey]bool{},
	}
	for inst := 0; inst < poiInstances; inst++ {
		poi := workload.NewGenerator(g, sg.rng.Int63())
		for _, name := range poiLayers {
			layer, err := workload.FindPOILayer(name)
			if err != nil {
				return nil, err
			}
			sg.layers = append(sg.layers, poi.POI(layer))
		}
	}
	for i := 0; i < qRegions; i++ {
		sg.regions = append(sg.regions, workload.NewGenerator(g, sg.rng.Int63()))
	}
	if spec.repeat {
		// Popularity rank b goes to a base of shape repeatShapes[b]: the
		// same shape for every seed, so each seed's popularity-weighted
		// mix is the same and seeds differ only in the points drawn.
		for b := 0; b < repeatBases; b++ {
			sg.bases = append(sg.bases, sg.draw(repeatShapes[b%nShapes]))
		}
		sg.insts = map[int]request{}
		sg.zipf = rand.NewZipf(sg.rng, repeatZipfS, 1, repeatBases-1)
	}
	return sg, nil
}

// deal returns the next value index of a deck of n values.
func (sg *streamGen) deal(deck string, n int) int {
	d := sg.decks[deck]
	if len(d) == 0 {
		d = sg.rng.Perm(n)
	}
	sg.decks[deck] = d[1:]
	return d[0]
}

// nShapes is the number of request shapes: every combination of class,
// layer, |Q| and φ.
var nShapes = len(classMix) * len(poiLayers) * len(qSizes) * len(phis)

// repeatShapes orders the shapes of the repeat stream's bases by
// popularity rank. It is fixed, not drawn from the seed.
var repeatShapes = rand.New(rand.NewSource(1)).Perm(nShapes)

// fresh draws one request of the next shape from a deck of every shape,
// so the mix is exact within each run of nShapes requests.
func (sg *streamGen) fresh() server.FANNRequest {
	return sg.draw(sg.deal("shape", nShapes))
}

// draw makes one request of the given shape (class, layer, |Q|, φ): it
// picks the layer's placement, a coverage region and uniform or
// clustered Q.
func (sg *streamGen) draw(shape int) server.FANNRequest {
	c := classMix[shape%len(classMix)]
	shape /= len(classMix)
	layer := shape % len(poiLayers)
	shape /= len(poiLayers)
	m := qSizes[shape%len(qSizes)]
	phi := phis[shape/len(qSizes)]
	P := sg.layers[sg.deal("placement", poiInstances)*len(poiLayers)+layer]
	region := sg.regions[sg.deal("region", len(sg.regions))]
	var Q []graph.NodeID
	if sg.deal("clustered", 2) == 0 {
		Q = region.UniformQ(coverage, m)
	} else {
		Q = region.ClusteredQ(coverage, m, qClusters)
	}
	engine := c.engine
	if sg.spec.shard {
		// Shard hosts offer PHL only; the algorithm stays the same.
		engine = "PHL"
	}
	return server.FANNRequest{P: P, Q: Q, Phi: phi, Agg: c.agg, Algo: c.algo, Engine: engine, K: c.k}
}

func (sg *streamGen) encode(r server.FANNRequest) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // a FANNRequest of ids and scalars always marshals
	}
	return request{req: r, body: body}
}

// next returns the stream's next request. Fresh streams never repeat a
// result key: a draw that collides with an earlier one is redrawn.
func (sg *streamGen) next() request {
	if sg.spec.repeat {
		b, ladder := int(sg.zipf.Uint64()), sg.deal("ladder", len(phis))
		id := b*len(phis) + ladder
		r, ok := sg.insts[id]
		if !ok {
			base := sg.bases[b]
			base.Phi = phis[ladder]
			r = sg.encode(base)
			sg.insts[id] = r
		}
		return r
	}
	for {
		r := sg.encode(sg.fresh())
		k := r.resultKey()
		if !sg.seen[k] {
			sg.seen[k] = true
			return r
		}
	}
}

// take returns the next n requests.
func (sg *streamGen) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = sg.next()
	}
	return out
}
