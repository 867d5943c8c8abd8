// Command perfbench is the repository benchmark: it drives graphxmt from
// outside, through the public calls of gen, graphio, batch, bspalg,
// graphct and ckpt, on four workloads, and prints every end-to-end metric
// (or, with --trace 1, every per-layer metric) as one JSON line.
//
//	perfbench --workload bfs-serial --seed 1 --seconds 6 --trace 0
//
// --workload all runs the four workloads in turn and ends with one line
// that names each metric <workload>.<metric>.
//
// A run has two processes. The parent builds the workload's graph file
// (set-up, timed several times), then starts itself again in measure
// mode, so the child's peak RSS covers only opening and querying the
// graph. The child times invocations for --seconds, then checks every
// answer against an independent reference. See README.md for the metrics
// and the layer each one belongs to.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"graphxmt/internal/core"
	"graphxmt/internal/par"
)

// workDir holds the graph files, checkpoints and result files of a run,
// relative to the directory the benchmark runs in.
const workDir = ".bench_build/perfbench"

// runBudget bounds a whole run, set-up included: past it the measured
// phase is killed and the run fails, inside the benchmark's 180 s limit.
const runBudget = 175 * time.Second

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"queries_per_s", "1/s"},
	{"latency_ms.p50", "ms"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order. A
// layer that does not run on a workload reports 0.
var perLayer = []metricDef{
	{"gen.rmat_s", "s"}, {"graph.build_s", "s"}, {"graph.compress_s", "s"}, {"graphio.write_s", "s"},
	{"graphio.open_ms", "ms"}, {"graphio.file_mib", "MiB"}, {"graph.resident_mib", "MiB"},
	{"core.compute_ms", "ms"}, {"core.deliver_ms", "ms"}, {"core.terminate_ms", "ms"}, {"core.init_ms", "ms"},
	{"core.deliver_share", "fraction"},
	{"core.supersteps", "count"}, {"core.msgs_logical", "count"}, {"core.msgs_physical", "count"},
	{"core.physical_per_logical", "ratio"}, {"core.pull_steps", "count"}, {"core.push_steps", "count"},
	{"core.scratch_mib", "MiB"},
	{"core.checkpoint_ms", "ms"}, {"ckpt.files", "count"}, {"ckpt.bytes_mib", "MiB"},
	{"ckpt.load_ms", "ms"}, {"ckpt.resume_ms", "ms"},
	{"batch.plan_us", "us"}, {"batch.lanes", "count"}, {"batch.edges_per_query", "count"},
	{"par.busy_frac", "fraction"}, {"par.chunk_imbalance", "ratio"},
	{"mem.alloc_mib", "MiB"}, {"mem.gc_count", "count"}, {"mem.gc_pause_ms", "ms"},
	{"bspalg.bfs_ms", "ms"}, {"bspalg.bfs_ms.tail", "ms"}, {"bspalg.bfs_ms.tail_pct", "%"},
	{"bspalg.bfs_ms.samples", "count"},
	{"bspalg.multibfs_ms", "ms"}, {"bspalg.tc_ms", "ms"}, {"bspalg.cc_ms", "ms"},
	{"bspalg.pagerank_ms", "ms"}, {"bspalg.mteps", "MTEPS"},
	{"obs.trace_overhead_pct", "%"}, {"obs.self_sum_s", "s"},
	{"self.harness_ms", "ms"}, {"self.graphio_ms", "ms"}, {"self.batch_ms", "ms"},
	{"self.bspalg_ms", "ms"}, {"self.core_ms", "ms"},
	{"machine.sim_s", "s"},
	{"graphct.bfs_ms", "ms"}, {"graphct.cc_ms", "ms"}, {"graphct.tc_ms", "ms"},
	{"table1.bfs_ratio", "ratio"}, {"table1.cc_ratio", "ratio"}, {"table1.tc_ratio", "ratio"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	// measure and graph select the child process's mode.
	measure bool
	graph   string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames()+", or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the RMAT graph and the search keys")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured phase runs")
	flag.IntVar(&o.trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.BoolVar(&o.measure, "measure", false, "internal: run the measured phase on -graph")
	flag.StringVar(&o.graph, "graph", "", "internal: graph file of the measured phase")
	flag.Parse()
	ws := []*workload{findWorkload(o.workload)}
	if o.workload == "all" && !o.measure {
		ws = workloads
	}
	if ws[0] == nil || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload (%s, or all), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := run(ws, o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs each workload in turn and prints the result line. For more than
// one workload the line sums the operations and names each metric
// <workload>.<metric>.
func run(ws []*workload, o options, stdout io.Writer) error {
	if o.measure {
		return measureMain(ws[0], o)
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range ws {
		if len(ws) > 1 {
			fmt.Fprintf(stdout, "== %s\n", w.name)
		}
		res, err := parentMain(w, o, time.Now().Add(runBudget), stdout)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(ws) == 1 {
			total = *res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			total.Metrics[w.name+"."+name] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measureMain is the child process: it writes its runResult as JSON.
func measureMain(w *workload, o options) error {
	res, err := measure(w, o.graph, workDir, o.seed, o.seconds, o.trace == 1)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// parentMain sets up, runs the measured phase in a child process, and
// reports.
func parentMain(w *workload, o options, deadline time.Time, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	sr, err := setup(w, o.seed, workDir, tr)
	if err != nil {
		return nil, err
	}
	defer os.Remove(sr.path)
	debug.FreeOSMemory()

	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	rr, err := runChild(ctx, w, o, sr.path)
	if err != nil {
		return nil, err
	}
	return report(stdout, w, o, sr, rr, tr)
}

// runChild starts this program in measure mode and waits for it.
func runChild(ctx context.Context, w *workload, o options, path string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-measure", "-graph", path,
		"-workload", w.name, "-seed", fmt.Sprint(o.seed),
		"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(o.trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("measured phase: %w", err)
	}
	var rr runResult
	if err := json.Unmarshal(out, &rr); err != nil {
		return nil, fmt.Errorf("measured phase output: %w", err)
	}
	return &rr, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndValues computes the end-to-end metrics of an untraced run.
func endToEndValues(sr *setupResult, rr *runResult) map[string]float64 {
	return map[string]float64{
		"setup_s":        median(sr.setupS),
		"run_s":          median(rr.RunS),
		"queries_per_s":  ratio(float64(rr.Queries), sum(rr.RunS)),
		"latency_ms.p50": median(rr.LatencyMs),
		"peak_rss_mib":   rr.PeakRSSMiB,
	}
}

// perLayerValues computes the per-layer metrics of a traced run: set-up
// spans and per-invocation values by median, per-call samples by median
// (and tail), and the once-per-run GraphCT comparison.
func perLayerValues(sr *setupResult, rr *runResult) map[string]float64 {
	out := map[string]float64{
		"graphio.file_mib":   sr.fileMiB,
		"graph.resident_mib": sr.resident,
	}
	for name, xs := range sr.layers {
		out[name] = median(xs)
	}
	byKey := map[string][]float64{}
	for _, l := range rr.Layers {
		for k, v := range l {
			byKey[k] = append(byKey[k], v)
		}
	}
	for k, xs := range byKey {
		out[k] = median(xs)
	}
	for k, xs := range rr.Samples {
		out[k] = median(xs)
	}
	bfs := rr.Samples["bspalg.bfs_ms"]
	out["bspalg.bfs_ms.samples"] = float64(len(bfs))
	if v, pct, ok := tail(bfs); ok {
		out["bspalg.bfs_ms.tail"], out["bspalg.bfs_ms.tail_pct"] = v, pct
	}
	for k, v := range rr.Once {
		out[k] = v
	}
	if base := median(rr.RunS); base > 0 && len(rr.TracedRunS) > 0 {
		out["obs.trace_overhead_pct"] = 100 * (median(rr.TracedRunS) - base) / base
	}
	return out
}

// manifest records what ran, so a result can be reproduced and compared.
type manifest struct {
	Workload       string  `json:"workload"`
	Seed           uint64  `json:"seed"`
	Trace          int     `json:"trace"`
	Seconds        float64 `json:"seconds"`
	GoVersion      string  `json:"go_version"`
	Revision       string  `json:"vcs_revision"`
	Modified       string  `json:"vcs_modified"`
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	SetupWorkers   int     `json:"setup_workers"`
	Workers        int     `json:"workers"`
	Rep            string  `json:"rep"`
	Direction      string  `json:"direction"`
	Scale          int     `json:"scale"`
	EdgeFactor     int     `json:"edge_factor"`
	Vertices       int64   `json:"vertices"`
	Edges          int64   `json:"edges"`
	GraphFile      string  `json:"graph_file"`
	FileMiB        float64 `json:"graph_file_mib"`
	FileCRC32      string  `json:"graph_file_crc32"`
	LLC            string  `json:"llc"`
	SetupReps      int     `json:"setup_reps"`
	Sources        int     `json:"sources"`
	RunSamples     int     `json:"run_samples"`
	LatencySamples int     `json:"latency_samples"`
	TracedSamples  int     `json:"traced_samples"`
}

func newManifest(w *workload, o options, sr *setupResult, rr *runResult) manifest {
	m := manifest{
		Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		GoVersion: runtime.Version(), Revision: "unknown", Modified: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SetupWorkers: par.Workers(), Workers: rr.Workers,
		Rep: string(w.rep), Direction: core.DirAuto.String(),
		Scale: w.scale, EdgeFactor: edgeFactor, Vertices: sr.vertices, Edges: sr.edges,
		GraphFile: filepath.Base(sr.path), FileMiB: sr.fileMiB, FileCRC32: fmt.Sprintf("%08x", sr.crc),
		LLC: llcSize(), SetupReps: len(sr.setupS), Sources: w.sources,
		RunSamples: len(rr.RunS), LatencySamples: len(rr.LatencyMs), TracedSamples: len(rr.TracedRunS),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

// llcSize is the last-level cache size lscpu reports, or "unknown".
func llcSize() string {
	out, err := exec.Command("lscpu").Output()
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "L3 cache:"); ok {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the metrics by name with their units and the manifest,
// writes the full record (spans included) to workDir, and returns the result.
func report(stdout io.Writer, w *workload, o options, sr *setupResult, rr *runResult, tr *tracer) (*result, error) {
	defs, values := endToEnd, endToEndValues(sr, rr)
	if o.trace == 1 {
		defs, values = perLayer, perLayerValues(sr, rr)
	}
	res := result{
		Correct:   rr.Failed == 0 && rr.Attempted > 0,
		Attempted: rr.Attempted,
		Failed:    rr.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, f := range rr.Failures {
		fmt.Fprintln(stdout, "mismatch:", f)
	}
	fmt.Fprintf(stdout, "samples: %d invocations, %d latency samples, %d traced invocations, %d setups\n",
		len(rr.RunS), len(rr.LatencyMs), len(rr.TracedRunS), len(sr.setupS))
	man := newManifest(w, o, sr, rr)
	manLine, err := json.Marshal(map[string]manifest{"manifest": man})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(manLine))

	var spans []span
	if tr != nil {
		spans = tr.spans
	}
	record := map[string]any{
		"manifest": man, "result": res, "all_values": values,
		"setup_s": sr.setupS, "run_s": rr.RunS, "traced_run_s": rr.TracedRunS, "latency_ms": rr.LatencyMs,
		"setup_spans": spans, "run_spans": rr.Spans, "failures": rr.Failures,
	}
	data, err := json.MarshalIndent(record, "", " ")
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, o.trace)
	return &res, os.WriteFile(filepath.Join(workDir, name), data, 0o644)
}
