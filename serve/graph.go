// Package serve is the multi-tenant graph query service: it composes the
// library's §IV hierarchical contexts, immutable CSR snapshots, and the obsv
// metrics registry into a long-lived HTTP/JSON server. Graphs are loaded
// once at startup and shared across every request; each request runs under
// its own Context derived from per-tenant config (WithDeadline +
// WithMemoryLimit), so a slow or memory-hungry query degrades or parks
// without disturbing its neighbors.
package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	grb "github.com/grblas/grb"
	"github.com/grblas/grb/gen"
	"github.com/grblas/grb/lagraph"
	"github.com/grblas/grb/mtx"
)

// Graph is one shared, immutable, queryable graph: a boolean pattern for
// the structural algorithms and a float64 weighting for the numeric ones,
// both materialized to CSR snapshots at load time. Queries never mutate
// either matrix — each request wraps them in O(1) snapshot views bound to
// its own context — so any number of tenants read the same graph lock-free.
type Graph struct {
	Name  string
	N     int
	Edges int

	pattern  *grb.Matrix[bool]
	weights  *grb.Matrix[float64]
	nameJSON []byte // Name as a JSON string, escaped once for every answer
}

// buildGraph materializes both representations and warms the shared caches
// (one pull-directed BFS populates the pattern's cached transpose) in the
// top-level context, so the cost of shared artifacts is never charged to
// the first tenant's per-request budget.
func buildGraph(name string, n int, i, j []grb.Index, x []float64) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph %q: empty dimension", name)
	}
	pattern, err := grb.NewMatrix[bool](n, n)
	if err != nil {
		return nil, err
	}
	weights, err := grb.NewMatrix[float64](n, n)
	if err != nil {
		return nil, err
	}
	if len(i) > 0 {
		ones := make([]bool, len(i))
		for k := range ones {
			ones[k] = true
		}
		if err := pattern.Build(i, j, ones, grb.LOr); err != nil {
			return nil, err
		}
		if err := weights.Build(i, j, x, grb.Plus[float64]); err != nil {
			return nil, err
		}
	}
	if err := pattern.Wait(grb.Materialize); err != nil {
		return nil, err
	}
	if err := weights.Wait(grb.Materialize); err != nil {
		return nil, err
	}
	nv, err := pattern.Nvals()
	if err != nil {
		return nil, err
	}
	if nv > 0 {
		if _, err := lagraph.BFSLevelsDir(pattern, 0, grb.DirPull); err != nil {
			return nil, fmt.Errorf("graph %q: transpose warmup: %w", name, err)
		}
	}
	nameJSON, _ := json.Marshal(name) // a string always marshals
	return &Graph{Name: name, N: n, Edges: nv, pattern: pattern, weights: weights, nameJSON: nameJSON}, nil
}

// LoadMTX reads a Matrix Market file into a served graph. Rectangular
// files are padded to square so the adjacency algorithms apply; symmetric
// files arrive already expanded from the mtx reader. Pattern files get
// unit weights.
func LoadMTX(name, path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := mtx.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	n := c.Rows
	if c.Cols > n {
		n = c.Cols
	}
	return buildGraph(name, n, c.I, c.J, c.X)
}

// FromGen builds a served graph from a generated edge list with uniform
// [1, 2) weights — deterministic per name so selfchecks and benchmarks are
// reproducible.
func FromGen(name string, g gen.Graph) (*Graph, error) {
	return buildGraph(name, g.N, g.Src, g.Dst, gen.UniformWeights(g, 1, 2, 7))
}

// ParseGenSpec builds a served graph from a "name=kind:arg" generator spec,
// the loader behind grbserve's -gen flag (and the CI smoke tier, which
// must not depend on fixture files). Kinds:
//
//	rmat:S   Graph500 R-MAT at scale S (2^S vertices, edge factor 8), symmetrized
//	path:N   directed path on N vertices
//	grid:N   N×N 2D grid, symmetrized
func ParseGenSpec(spec string) (*Graph, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("gen spec %q: want name=kind:arg", spec)
	}
	kind, argStr, ok := strings.Cut(rest, ":")
	if !ok {
		return nil, fmt.Errorf("gen spec %q: want name=kind:arg", spec)
	}
	arg, err := strconv.Atoi(argStr)
	if err != nil || arg < 1 {
		return nil, fmt.Errorf("gen spec %q: bad argument %q", spec, argStr)
	}
	switch kind {
	case "rmat":
		if arg > 20 {
			return nil, fmt.Errorf("gen spec %q: rmat scale capped at 20", spec)
		}
		return FromGen(name, gen.Graph500RMAT(arg, 8, 42).Symmetrize())
	case "path":
		return FromGen(name, gen.Path(arg))
	case "grid":
		return FromGen(name, gen.Grid2D(arg, arg).Symmetrize())
	default:
		return nil, fmt.Errorf("gen spec %q: unknown kind %q", spec, kind)
	}
}
