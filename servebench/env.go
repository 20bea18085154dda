package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/shard"
)

// env holds what the in-process side of a run works on: the graph the
// servers build, and the indexes the replay and the checks query.
type env struct {
	g   *graph.Graph
	phl *phl.Index
	// plan is the coordinator's partition plan (built on demand).
	plan *shard.Plan
	// cacheDir keeps indexes built by this very binary, so that later
	// runs in the same build directory load instead of rebuilding them.
	cacheDir string
	tag      string
}

func newEnv(g *graph.Graph, cacheDir string) (*env, error) {
	tag, err := selfHash()
	if err != nil {
		return nil, err
	}
	return &env{g: g, cacheDir: cacheDir, tag: tag}, nil
}

// selfHash digests this executable. The index cache is keyed by it: a
// binary built from other sources never reads an index it did not build.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// cached loads an index file from the cache, or builds it with build,
// saves it atomically with save and loads it back.
func (e *env) cached(kind string, load func(path string) error, build func() error, save func(io.Writer) error) error {
	path := filepath.Join(e.cacheDir, fmt.Sprintf("%s-%s.idx", kind, e.tag))
	if _, err := os.Stat(path); err == nil {
		return load(path)
	}
	if err := build(); err != nil {
		return err
	}
	if err := os.MkdirAll(e.cacheDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(e.cacheDir, kind+"-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if err := save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("saving %s index: %w", kind, err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// loadPHL makes e.phl available: the hub labels every PHL engine of the
// servers uses, built by the same code.
func (e *env) loadPHL() error {
	if e.phl != nil {
		return nil
	}
	return e.cached("phl",
		func(path string) (err error) {
			e.phl, err = phl.Load(path, phl.LoadOptions{Mmap: true})
			return err
		},
		func() (err error) {
			e.phl, err = phl.Build(e.g, phl.Options{})
			return err
		},
		func(w io.Writer) error { return e.phl.Save(w) })
}

// loadPlan makes e.plan available: fannr-shard's 4-way partition plan.
func (e *env) loadPlan() error {
	if e.plan != nil {
		return nil
	}
	var tr *gtree.Tree
	err := e.cached("gtree",
		func(path string) (err error) {
			tr, err = gtree.Load(path, e.g, gtree.LoadOptions{})
			return err
		},
		func() (err error) {
			tr, err = gtree.Build(e.g, gtree.Options{})
			return err
		},
		func(w io.Writer) error { return tr.Save(w) })
	if err != nil {
		return err
	}
	e.plan, err = shard.NewPlan(e.g, tr, shard.PlanOptions{Shards: 4})
	return err
}
