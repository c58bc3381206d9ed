package obsv

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestLabelRegistry(t *testing.T) {
	ResetLabels()
	t.Cleanup(ResetLabels)
	NoteLabeled("acme", "bfs", 100, false)
	NoteLabeled("acme", "bfs", 50, true)
	NoteLabeled("acme", "pagerank", 200, false)
	NoteLabeled("umbrella", "bfs", 10, false)
	NoteLabeled("plain", "", 5, false) // op-less observation still counts

	snap := LabelsSnapshot()
	acme := snap["acme"]
	if acme.Requests != 3 || acme.Errors != 1 || acme.TotalNs != 350 {
		t.Fatalf("acme = %+v", acme)
	}
	if bfs := acme.ByOp["bfs"]; bfs.Requests != 2 || bfs.Errors != 1 || bfs.TotalNs != 150 {
		t.Fatalf("acme/bfs = %+v", bfs)
	}
	if pr := acme.ByOp["pagerank"]; pr.Requests != 1 || pr.Errors != 0 {
		t.Fatalf("acme/pagerank = %+v", pr)
	}
	if u := snap["umbrella"]; u.Requests != 1 || len(u.ByOp) != 1 {
		t.Fatalf("umbrella = %+v", u)
	}
	if p := snap["plain"]; p.Requests != 1 || len(p.ByOp) != 0 {
		t.Fatalf("plain = %+v", p)
	}
	if got := labelRegistry.names(); len(got) != 3 || got[0] != "acme" || got[1] != "plain" || got[2] != "umbrella" {
		t.Fatalf("label names = %v", got)
	}
	ResetLabels()
	if snap := LabelsSnapshot(); len(snap) != 0 {
		t.Fatalf("after reset: %v", snap)
	}
}

func TestLabelRegistryConcurrent(t *testing.T) {
	ResetLabels()
	t.Cleanup(ResetLabels)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := []string{"a", "b"}[g%2]
			for i := 0; i < 1000; i++ {
				NoteLabeled(label, "bfs", 1, i%10 == 0)
			}
		}(g)
	}
	wg.Wait()
	snap := LabelsSnapshot()
	if tot := snap["a"].Requests + snap["b"].Requests; tot != 8000 {
		t.Fatalf("total requests = %d", tot)
	}
	if ns := snap["a"].TotalNs + snap["b"].TotalNs; ns != 8000 {
		t.Fatalf("total ns = %d", ns)
	}
}

func TestHandlerIncludesTenants(t *testing.T) {
	ResetLabels()
	t.Cleanup(ResetLabels)
	NoteLabeled("acme", "bfs", 42, false)
	rec := httptest.NewRecorder()
	Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/grb", nil))
	var doc struct {
		Tenants map[string]LabelMetrics `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics doc does not parse: %v", err)
	}
	if doc.Tenants["acme"].Requests != 1 || doc.Tenants["acme"].TotalNs != 42 {
		t.Fatalf("tenants section = %+v", doc.Tenants)
	}
}
