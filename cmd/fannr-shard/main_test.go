package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fannr/internal/graph"
	"fannr/internal/shard"
)

// A request that names no engine runs on the first -engines entry, which
// every host builds — here PHL, the deployment that has no INE.
func TestOmittedEngineUsesFirstHostEngine(t *testing.T) {
	g, err := graph.Generate(graph.GenConfig{Nodes: 300, Seed: 5, Name: "shard-cli"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHandler(config{
		mode: "all", shards: 2, engines: "PHL", maxFanout: 4,
		breakerThreshold: 3, breakerCooldown: 5 * time.Second, retryAfter: time.Second,
	}, g)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/fann",
		strings.NewReader(`{"p":[1,5,9,40,80],"q":[10,20,30],"phi":0.5}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rr.Code, rr.Body.String())
	}
	var resp shard.FANNResponse
	if err := json.NewDecoder(rr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Engine != "PHL" || len(resp.Answers) == 0 {
		t.Fatalf("engine %q with %d answers, want PHL answers", resp.Engine, len(resp.Answers))
	}
}
