package gen

import "testing"

func TestErdosRenyiProperties(t *testing.T) {
	g := ErdosRenyi(50, 200, 7)
	if g.N != 50 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != 200 {
		t.Fatalf("edges = %d, want 200", g.NumEdges())
	}
	seen := map[[2]int]bool{}
	for k := range g.Src {
		if g.Src[k] == g.Dst[k] {
			t.Fatal("self loop")
		}
		if g.Src[k] < 0 || g.Src[k] >= 50 || g.Dst[k] < 0 || g.Dst[k] >= 50 {
			t.Fatal("out of range")
		}
		key := [2]int{g.Src[k], g.Dst[k]}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
	}
	// determinism
	g2 := ErdosRenyi(50, 200, 7)
	for k := range g.Src {
		if g.Src[k] != g2.Src[k] || g.Dst[k] != g2.Dst[k] {
			t.Fatal("not deterministic")
		}
	}
	// different seeds give different graphs
	g3 := ErdosRenyi(50, 200, 8)
	same := true
	for k := range g.Src {
		if g.Src[k] != g3.Src[k] || g.Dst[k] != g3.Dst[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds have no effect")
	}
	// saturation: more edges than possible is clamped
	tiny := ErdosRenyi(3, 100, 1)
	if tiny.NumEdges() != 6 {
		t.Fatalf("clamped edges = %d, want 6", tiny.NumEdges())
	}
}

func TestHypersparseProperties(t *testing.T) {
	const n, m = 100000, 400 // n ≫ m: almost every row empty
	g := Hypersparse(n, m, 11)
	if g.N != n {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() != m {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), m)
	}
	seen := map[[2]int]bool{}
	rows := map[int]bool{}
	for k := range g.Src {
		if g.Src[k] == g.Dst[k] {
			t.Fatal("self loop")
		}
		if g.Src[k] < 0 || g.Src[k] >= n || g.Dst[k] < 0 || g.Dst[k] >= n {
			t.Fatal("out of range")
		}
		key := [2]int{g.Src[k], g.Dst[k]}
		if seen[key] {
			t.Fatal("duplicate edge")
		}
		seen[key] = true
		rows[g.Src[k]] = true
	}
	if len(rows) > m {
		t.Fatalf("%d populated rows from %d edges", len(rows), m)
	}
	g2 := Hypersparse(n, m, 11)
	for k := range g.Src {
		if g.Src[k] != g2.Src[k] || g.Dst[k] != g2.Dst[k] {
			t.Fatal("not deterministic")
		}
	}
	// saturation clamps like ErdosRenyi
	tiny := Hypersparse(3, 100, 1)
	if tiny.NumEdges() != 6 {
		t.Fatalf("clamped edges = %d, want 6", tiny.NumEdges())
	}
	if Hypersparse(1, 10, 1).NumEdges() != 0 {
		t.Fatal("n<2 should be empty")
	}
}

func TestRMATProperties(t *testing.T) {
	g := Graph500RMAT(8, 8, 3)
	if g.N != 256 {
		t.Fatalf("N = %d", g.N)
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8*256 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	seen := map[[2]int]bool{}
	for k := range g.Src {
		if g.Src[k] == g.Dst[k] {
			t.Fatal("self loop survived")
		}
		key := [2]int{g.Src[k], g.Dst[k]}
		if seen[key] {
			t.Fatal("duplicate survived")
		}
		seen[key] = true
	}
	g2 := Graph500RMAT(8, 8, 3)
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("not deterministic")
	}
	// power-law-ish: max out-degree far above average
	deg := map[int]int{}
	for _, s := range g.Src {
		deg[s]++
	}
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := float64(g.NumEdges()) / 256
	if float64(maxDeg) < 3*avg {
		t.Fatalf("degree distribution suspiciously flat: max %d avg %.1f", maxDeg, avg)
	}
}

func TestSymmetrize(t *testing.T) {
	g := Graph{N: 3, Src: []int{0, 1}, Dst: []int{1, 2}}
	s := g.Symmetrize()
	if s.NumEdges() != 4 {
		t.Fatalf("edges = %d", s.NumEdges())
	}
	has := map[[2]int]bool{}
	for k := range s.Src {
		has[[2]int{s.Src[k], s.Dst[k]}] = true
	}
	for _, e := range [][2]int{{0, 1}, {1, 0}, {1, 2}, {2, 1}} {
		if !has[e] {
			t.Fatalf("missing edge %v", e)
		}
	}
	// symmetrizing twice is idempotent
	s2 := s.Symmetrize()
	if s2.NumEdges() != s.NumEdges() {
		t.Fatal("not idempotent")
	}
}

func TestRegularTopologies(t *testing.T) {
	grid := Grid2D(3, 4)
	if grid.N != 12 {
		t.Fatalf("grid N = %d", grid.N)
	}
	// 2*(3*3 + 2*4) = 34 directed edges
	if grid.NumEdges() != 34 {
		t.Fatalf("grid edges = %d", grid.NumEdges())
	}
	ring := Ring(5)
	if ring.NumEdges() != 5 || ring.Dst[4] != 0 {
		t.Fatalf("ring wrong: %v", ring.Dst)
	}
	path := Path(5)
	if path.NumEdges() != 4 {
		t.Fatalf("path edges = %d", path.NumEdges())
	}
	kb := CompleteBipartite(2, 3)
	if kb.N != 5 || kb.NumEdges() != 12 {
		t.Fatalf("K23: N=%d edges=%d", kb.N, kb.NumEdges())
	}
	star := Star(4)
	if star.NumEdges() != 6 {
		t.Fatalf("star edges = %d", star.NumEdges())
	}
}

func TestWeights(t *testing.T) {
	g := Path(10)
	w := UniformWeights(g, 2, 5, 42)
	if len(w) != g.NumEdges() {
		t.Fatal("length")
	}
	for _, x := range w {
		if x < 2 || x >= 5 {
			t.Fatalf("weight %v out of range", x)
		}
	}
	w2 := UniformWeights(g, 2, 5, 42)
	for k := range w {
		if w[k] != w2[k] {
			t.Fatal("not deterministic")
		}
	}
	u := UnitWeights[int](g)
	for _, x := range u {
		if x != 1 {
			t.Fatal("unit weight")
		}
	}
	b := BoolWeights(g)
	for _, x := range b {
		if !x {
			t.Fatal("bool weight")
		}
	}
}

func TestDedupAndNoSelfLoops(t *testing.T) {
	g := Graph{N: 3, Src: []int{0, 0, 1, 1, 2}, Dst: []int{1, 1, 1, 2, 2}}
	d := g.Dedup()
	if d.NumEdges() != 4 {
		t.Fatalf("dedup edges = %d", d.NumEdges())
	}
	// d = {(0,1),(1,1),(1,2),(2,2)}: removing the two self-loops leaves 2.
	n := d.NoSelfLoops()
	if n.NumEdges() != 2 {
		t.Fatalf("no-self-loop edges = %d", n.NumEdges())
	}
}
