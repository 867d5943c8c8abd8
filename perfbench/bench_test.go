package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
	"graphxmt/internal/par"
)

func TestMedianAndTail(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}

	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, _, ok := tail(xs); ok {
		t.Error("10 samples leave no percentile with 10 samples beyond it")
	}
	xs = append(xs, 10) // 11 samples: only the smallest has 10 beyond it
	if v, pct, ok := tail(xs); !ok || v != 0 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 = %v at %v%% (ok %v), want 0 at 9.09%%", v, pct, ok)
	}
	xs = xs[:0]
	for i := 100; i > 0; i-- { // unsorted input
		xs = append(xs, float64(i))
	}
	if v, pct, ok := tail(xs); !ok || v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at %v%%, want 90 at 90%%", v, pct)
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) holds A [10,40) and B [30,60), which overlap, and C
	// [90,120), which overruns the root; A holds G [15,20).
	spans := []span{
		{ID: 1, Inv: 1, Name: "invocation", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Inv: 1, Name: "bspalg.BFS", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Inv: 1, Name: "graphio.Open", StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, Inv: 1, Name: "batch.NewPlan", StartNs: 90, EndNs: 120},
		{ID: 5, Parent: 2, Inv: 1, Name: "core.compute", StartNs: 15, EndNs: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if int64(self[id]) != w {
			t.Errorf("self(span %d) = %d, want %d", id, self[id], w)
		}
	}

	// Nested, non-overlapping spans: the self times of one invocation sum to
	// its root's duration, whatever the depth.
	spans = []span{
		{ID: 1, Inv: 1, Name: "invocation", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Inv: 1, Name: "graphio.Open", StartNs: 5, EndNs: 100},
		{ID: 3, Parent: 1, Inv: 1, Name: "bspalg.BFS", StartNs: 100, EndNs: 990},
		{ID: 4, Parent: 3, Inv: 1, Name: "core.compute", StartNs: 110, EndNs: 400},
		{ID: 5, Parent: 3, Inv: 1, Name: "core.deliver", StartNs: 400, EndNs: 980},
		{ID: 6, Inv: 2, Name: "invocation", StartNs: 1000, EndNs: 1500},
	}
	layers := selfByLayer(spans, 1)
	var total int64
	for _, d := range layers {
		total += int64(d)
	}
	if total != 1000 {
		t.Errorf("self times of invocation 1 sum to %d, want its root's 1000", total)
	}
	if layers["harness"] != 15 || layers["graphio"] != 95 || layers["bspalg"] != 20 || layers["core"] != 870 {
		t.Errorf("self by layer = %v", layers)
	}
}

func TestRatioBases(t *testing.T) {
	if ratio(5, 0) != 0 || ratio(5, -1) != 0 {
		t.Error("a ratio over a base that did not run must read 0")
	}
	e := newEngineStats()
	e.phaseMs["compute"], e.phaseMs["deliver"], e.phaseMs["checkpoint"] = 10, 30, 60
	e.logical, e.physical = 200, 50
	// Table I counts engine time without checkpoint spans.
	if got := e.engineMs(); got != 40 {
		t.Errorf("engineMs = %v, want 40 (checkpoint excluded)", got)
	}
	l := map[string]float64{}
	e.layers(l)
	if l["core.deliver_share"] != 0.3 {
		t.Errorf("deliver share = %v, want 30/100 of all phases", l["core.deliver_share"])
	}
	if l["core.physical_per_logical"] != 0.25 {
		t.Errorf("physical per logical = %v, want 50/200", l["core.physical_per_logical"])
	}

	sr := &setupResult{setupS: []float64{1, 2, 3}}
	rr := &runResult{RunS: []float64{2, 2, 4}, TracedRunS: []float64{2.2, 2.2}, Queries: 16, LatencyMs: []float64{5}}
	if got := endToEndValues(sr, rr)["queries_per_s"]; got != 2 {
		t.Errorf("queries/s = %v, want 16 queries over 8 s", got)
	}
	// Trace overhead is over the untraced median run.
	if got := perLayerValues(sr, rr)["obs.trace_overhead_pct"]; math.Abs(got-10) > 1e-9 {
		t.Errorf("trace overhead = %v%%, want 10%% of the untraced median", got)
	}
}

// tiny returns a workload at scale 10, small enough for a unit test.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.scale = 10
	return &c
}

// present lists the per-layer metrics each workload must report non-zero.
var present = map[string][]string{
	"": {"gen.rmat_s", "graph.build_s", "graphio.write_s", "graphio.open_ms", "graphio.file_mib",
		"graph.resident_mib", "core.compute_ms", "core.deliver_ms", "core.supersteps", "core.msgs_logical",
		"core.msgs_physical", "mem.alloc_mib", "machine.sim_s", "obs.self_sum_s", "self.core_ms"},
	"bfs-serial": {"bspalg.bfs_ms", "bspalg.bfs_ms.samples", "bspalg.mteps", "graphct.bfs_ms", "table1.bfs_ratio"},
	"msbfs-compressed": {"graph.compress_s", "batch.plan_us", "batch.lanes", "batch.edges_per_query",
		"bspalg.multibfs_ms", "bspalg.mteps"},
	"tc-unicast": {"bspalg.tc_ms", "graphct.tc_ms", "table1.tc_ratio"},
	"analytics-ckpt": {"core.checkpoint_ms", "ckpt.files", "ckpt.bytes_mib", "ckpt.load_ms", "ckpt.resume_ms",
		"bspalg.cc_ms", "bspalg.pagerank_ms", "graphct.cc_ms", "table1.cc_ratio"},
}

func TestSmokeEveryWorkload(t *testing.T) {
	defer par.SetWorkers(0)
	for _, w := range workloads {
		w := tiny(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			sr, err := setup(w, 7, dir, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				rr, err := measure(w, sr.path, dir, 7, 0.001, traced)
				if err != nil {
					t.Fatal(err)
				}
				if rr.Attempted == 0 || rr.Failed != 0 {
					t.Fatalf("traced=%v: %d of %d answers failed: %v", traced, rr.Failed, rr.Attempted, rr.Failures)
				}
				if want := min(w.workers, runtime.NumCPU()); rr.Workers != want {
					t.Errorf("ran at %d workers, want %d", rr.Workers, want)
				}
				for name, v := range endToEndValues(sr, rr) {
					if !(v > 0) {
						t.Errorf("traced=%v: end-to-end %s = %v, want > 0", traced, name, v)
					}
				}
				if !traced {
					continue
				}
				pl := perLayerValues(sr, rr)
				for _, name := range append(present[""], present[w.name]...) {
					if !(pl[name] > 0) {
						t.Errorf("per-layer %s = %v, want > 0", name, pl[name])
					}
				}
			}
		})
	}
}

func TestOracleCountsMismatches(t *testing.T) {
	w := tiny(t, "tc-unicast")
	dir := t.TempDir()
	sr, err := setup(w, 3, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, closer, err := graphio.Open(sr.path)
	if err != nil {
		t.Fatal(err)
	}
	right := uint64(graph.ReferenceTriangles(g))
	closer.Close()
	s := &session{w: w, path: sr.path}
	res := &runResult{}
	if err := s.verify([]answer{{"tc", right}, {"tc", right + 1}, {"bfs:0", 1}}, res, false); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 3 || res.Failed != 2 {
		t.Errorf("attempted %d failed %d, want 3 and 2 (a wrong count and an unknown key)", res.Attempted, res.Failed)
	}
}

func TestSeedShapes(t *testing.T) {
	w := tiny(t, "bfs-serial")
	dir := t.TempDir()
	run := func(seed uint64) *setupResult {
		sr, err := setup(w, seed, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	a, again, b := run(1), run(1), run(2)
	if a.crc != again.crc {
		t.Errorf("seed 1 built two different files: %08x, %08x", a.crc, again.crc)
	}
	if a.crc == b.crc {
		t.Error("seeds 1 and 2 built the same file")
	}
	if a.vertices != b.vertices || math.Abs(float64(a.edges-b.edges)) > 0.1*float64(a.edges) {
		t.Errorf("seed shapes differ: %d/%d vertices, %d/%d edges", a.vertices, b.vertices, a.edges, b.edges)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's metric and
// workload lists the same.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, program has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: %s (%s), program has %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
