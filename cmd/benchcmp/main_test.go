package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBench(t *testing.T, dir, name string, results []series) string {
	t.Helper()
	blob, err := json.Marshal(benchFile{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// secs builds a series map from wall times alone.
func secs(m map[string]float64) map[string]series {
	out := make(map[string]series, len(m))
	for k, v := range m {
		out[k] = series{Seconds: v}
	}
	return out
}

func TestLoadKeysSeries(t *testing.T) {
	dir := t.TempDir()
	path := writeBench(t, dir, "b.json", []series{
		{Graph: "rmat", Dir: "push", Seconds: 1.5},
		{Graph: "rmat", Dir: "pull", Seconds: 2.0},
	})
	m, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["rmat/push"].Seconds != 1.5 || m["rmat/pull"].Seconds != 2.0 {
		t.Fatalf("load = %v", m)
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(path, []byte(`{"results":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path); err == nil {
		t.Fatal("load accepted a file with no results")
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := secs(map[string]float64{"g/push": 1.0, "g/pull": 2.0})
	cur := secs(map[string]float64{"g/push": 1.10, "g/pull": 1.5})
	if reg, _ := compare(base, cur, 15); len(reg) != 0 {
		t.Fatalf("10%% slowdown flagged at 15%% tolerance: %v", reg)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := secs(map[string]float64{"g/push": 1.0, "g/pull": 2.0})
	cur := secs(map[string]float64{"g/push": 1.20, "g/pull": 2.0})
	reg, worst := compare(base, cur, 15)
	if worst < 19 || worst > 21 {
		t.Fatalf("worst delta = %v, want ~20", worst)
	}
	if len(reg) != 1 || reg[0] != "g/push" {
		t.Fatalf("20%% slowdown at 15%% tolerance: got %v, want [g/push]", reg)
	}
}

func TestCompareTolKnob(t *testing.T) {
	base := secs(map[string]float64{"g/auto": 1.0})
	cur := secs(map[string]float64{"g/auto": 1.20})
	if reg, _ := compare(base, cur, 25); len(reg) != 0 {
		t.Fatalf("20%% slowdown flagged at 25%% tolerance: %v", reg)
	}
}

func TestCompareSkipsNonOverlapping(t *testing.T) {
	base := secs(map[string]float64{"g/push": 1.0, "old/push": 1.0})
	cur := secs(map[string]float64{"g/push": 1.0, "new/push": 99.0})
	if reg, _ := compare(base, cur, 15); len(reg) != 0 {
		t.Fatalf("non-overlapping series affected the verdict: %v", reg)
	}
}

// TestCompareReportsRetiredSeriesMissing pins the BENCH_5 case: the baseline
// still carries the retired blocked-engine experiment's series, a current
// file has none of them, and the comparison reports each as missing without
// counting it against the verdict.
func TestCompareReportsRetiredSeriesMissing(t *testing.T) {
	base := secs(map[string]float64{
		"rmat/push":              1.0,
		"blocked-spgemm/flat":    0.016,
		"blocked-spgemm/blocked": 0.025,
		"blocked-spgemm/auto":    0.024,
		"blocked-pagerank/flat":  0.007,
	})
	cur := secs(map[string]float64{"rmat/push": 1.05})

	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	reg, _ := compare(base, cur, 15)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg) != 0 {
		t.Fatalf("retired series counted as regressions: %v", reg)
	}
	for k := range base {
		if k == "rmat/push" {
			continue
		}
		found := false
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, k+" ") && strings.Contains(line, "missing from current — skipped") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not reported as missing from current:\n%s", k, out)
		}
	}
}

func TestCheckMonoPassesAboveFloor(t *testing.T) {
	cur := secs(map[string]float64{
		"pagerank/mono": 1.0, "pagerank/closure": 2.5,
		"bfs-sat/mono": 0.1, "bfs-sat/closure": 1.0,
	})
	if failed, _ := checkMono(cur, 2.0); len(failed) != 0 {
		t.Fatalf("2.5x and 10x speedups failed the 2x floor: %v", failed)
	}
}

func TestCheckMonoFlagsSlowPair(t *testing.T) {
	cur := secs(map[string]float64{
		"pagerank/mono": 1.0, "pagerank/closure": 1.5,
		"bfs-sat/mono": 0.1, "bfs-sat/closure": 1.0,
	})
	failed, worst := checkMono(cur, 2.0)
	if worst != 1.5 {
		t.Fatalf("worst speedup = %v, want 1.5", worst)
	}
	if len(failed) != 1 || failed[0] != "pagerank" {
		t.Fatalf("1.5x speedup at 2x floor: got %v, want [pagerank]", failed)
	}
}

func TestCheckMonoIgnoresUnpairedSeries(t *testing.T) {
	// Traversal series and a mono series with no closure partner must not
	// trip the gate — it judges only the kernel-tier A/B pairs.
	cur := secs(map[string]float64{
		"rmat/push": 9.0, "rmat/pull": 1.0,
		"orphan/mono": 5.0,
	})
	if failed, _ := checkMono(cur, 2.0); len(failed) != 0 {
		t.Fatalf("unpaired series tripped the mono gate: %v", failed)
	}
}

func TestCheckServePairedGate(t *testing.T) {
	base := map[string]series{
		"serve-bfs/closed": {P50Ms: 1.0, P99Ms: 4.0},
		"serve-bfs/open":   {P50Ms: 0.8, P99Ms: 2.0},
		"rmat/push":        {Seconds: 1.0}, // no latency — not a serve pair
	}
	cur := map[string]series{
		"serve-bfs/closed": {P50Ms: 1.2, P99Ms: 4.4},
		"serve-bfs/open":   {P50Ms: 0.9, P99Ms: 2.1},
		"rmat/push":        {Seconds: 5.0},
	}
	failed, pairs, worst := checkServe(base, cur, 1.5)
	if len(failed) != 0 || pairs != 2 {
		t.Fatalf("20%% latency drift at 1.5x ceiling: failed=%v pairs=%d", failed, pairs)
	}
	if worst < 1.19 || worst > 1.21 {
		t.Fatalf("worst ratio = %v, want ~1.2", worst)
	}
}

func TestCheckServeFlagsP99Blowup(t *testing.T) {
	// p50 steady but p99 doubled: tail regressions alone must trip the gate.
	base := map[string]series{"serve-pr/open": {P50Ms: 1.0, P99Ms: 3.0}}
	cur := map[string]series{"serve-pr/open": {P50Ms: 1.0, P99Ms: 6.0}}
	failed, pairs, _ := checkServe(base, cur, 1.5)
	if len(failed) != 1 || pairs != 1 || failed[0] != "serve-pr/open" {
		t.Fatalf("2x p99 at 1.5x ceiling: failed=%v pairs=%d", failed, pairs)
	}
}

func TestCheckServeSkipsUnpaired(t *testing.T) {
	// A serve series missing from the current file (experiment renamed or
	// dropped) must not fail the gate, matching the wall-gate convention.
	base := map[string]series{"serve-ego/open": {P50Ms: 1.0, P99Ms: 2.0}}
	cur := map[string]series{"serve-bfs/open": {P50Ms: 99, P99Ms: 99}}
	failed, pairs, _ := checkServe(base, cur, 1.5)
	if len(failed) != 0 || pairs != 0 {
		t.Fatalf("unpaired serve series judged: failed=%v pairs=%d", failed, pairs)
	}
}
