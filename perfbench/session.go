package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"graphxmt/internal/graph500"
	"graphxmt/internal/graphio"
	"graphxmt/internal/machine"
	"graphxmt/internal/obs"
	"graphxmt/internal/par"
)

const (
	mib = 1 << 20
	// minInvocations is the fewest timed invocations a run makes of each
	// kind (untraced, and traced in a traced run), however long they take.
	minInvocations = 3
	// simProcs is the simulated XMT size machine.sim_s is reported at.
	simProcs = 128
)

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// session is the measured phase of one run: a process that opens the
// workload's graph file again and again for --seconds, then checks every
// answer against the references.
type session struct {
	w       *workload
	path    string
	seed    uint64
	sources []int64
	ckptDir string
	metrics *obs.Metrics
	// tr and samples are set in a traced run only.
	tr      *tracer
	samples map[string][]float64
}

// runResult is what the measured phase reports to the parent process.
type runResult struct {
	RunS       []float64 `json:"run_s"`        // untraced invocations, open to results
	TracedRunS []float64 `json:"traced_run_s"` // traced invocations
	LatencyMs  []float64 `json:"latency_ms"`   // untraced, per query (per batch for msbfs)
	Queries    int       `json:"queries"`      // answered by the untraced invocations
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Failures   []string  `json:"failures,omitempty"`
	PeakRSSMiB float64   `json:"peak_rss_mib"`
	Workers    int       `json:"workers"`
	// Layers holds one map per traced invocation; Samples the per-call
	// values of every traced invocation; Once the per-run values.
	Layers  []map[string]float64 `json:"layers,omitempty"`
	Samples map[string][]float64 `json:"samples,omitempty"`
	Once    map[string]float64   `json:"once,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
}

// measure runs the workload on the graph file at path for the given number
// of seconds. A traced run alternates untraced and traced invocations, so
// the two are measured under the same conditions.
func measure(w *workload, path, workDir string, seed uint64, seconds float64, traced bool) (*runResult, error) {
	par.SetWorkers(min(w.workers, runtime.NumCPU()))
	s := &session{
		w: w, path: path, seed: seed,
		ckptDir: filepath.Join(workDir, fmt.Sprintf("ckpt-%d", os.Getpid())),
		metrics: obs.NewMetrics(nil),
	}
	defer os.RemoveAll(s.ckptDir)
	if traced {
		s.tr = newTracer()
		s.samples = map[string][]float64{}
	}
	g, closer, err := graphio.Open(path)
	if err != nil {
		return nil, err
	}
	s.sources = graph500.SampleKeys(g, w.sources, seed)
	closer.Close()

	res := &runResult{Workers: par.Workers()}
	var answers []answer
	// One warm-up invocation fills the heap and caches; its answers are
	// checked but its time is not reported.
	if _, _, err := s.invoke(false, &answers); err != nil {
		return nil, err
	}
	start := time.Now()
	for n := 0; ; n++ {
		tracedInv := traced && n%2 == 1
		iv, dur, err := s.invoke(tracedInv, &answers)
		if err != nil {
			return nil, err
		}
		if tracedInv {
			res.TracedRunS = append(res.TracedRunS, dur.Seconds())
			res.Layers = append(res.Layers, iv.layer)
		} else {
			res.RunS = append(res.RunS, dur.Seconds())
			res.LatencyMs = append(res.LatencyMs, iv.latMs...)
			res.Queries += iv.queries
		}
		enough := len(res.RunS) >= minInvocations && (!traced || len(res.TracedRunS) >= minInvocations)
		if enough && time.Since(start).Seconds() >= seconds {
			break
		}
	}
	res.PeakRSSMiB = vmHWMMiB()

	if err := s.verify(answers, res, traced); err != nil {
		return nil, err
	}
	if traced {
		res.Samples = s.samples
		res.Spans = s.tr.spans
	}
	return res, nil
}

// invoke runs one invocation and returns it with its wall time (graph open
// to results in memory); its answers are appended to answers.
func (s *session) invoke(traced bool, answers *[]answer) (*invocation, time.Duration, error) {
	iv := &invocation{}
	// Every invocation starts from a collected heap returned to the OS, as
	// a fresh process would, so no invocation pays for its predecessor's
	// garbage.
	debug.FreeOSMemory()
	if s.w.checkpoints {
		if err := clearDir(s.ckptDir); err != nil {
			return nil, 0, err
		}
	}
	var ms0 runtime.MemStats
	if traced {
		iv.tr = s.tr
		iv.sink = newEngineSink(s.tr)
		iv.layer = map[string]float64{}
		iv.samples = s.samples
		runtime.ReadMemStats(&ms0)
	}
	root := iv.tr.begin("invocation", 0)
	iv.root = root.id
	om := iv.tr.begin("graphio.Open", iv.root)
	g, closer, err := graphio.Open(s.path)
	openDur := iv.tr.end(om)
	if err != nil {
		return nil, 0, err
	}
	defer closer.Close()
	iv.g = g
	err = s.w.body(s, iv)
	dur := iv.tr.end(root)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", s.w.name, err)
	}
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.traceLayers(iv, openDur, &ms0, &ms1)
	}
	// Collect the invocation's garbage first, so the oracle's own
	// allocations (MS-BFS unpacks 64 distance arrays) never set the peak RSS.
	runtime.GC()
	*answers = append(*answers, iv.check()...)
	return iv, dur, nil
}

// traceLayers fills a traced invocation's per-layer values.
func (s *session) traceLayers(iv *invocation, openDur time.Duration, ms0, ms1 *runtime.MemStats) {
	l := iv.layer
	l["graphio.open_ms"] = msOf(openDur)
	l["mem.alloc_mib"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib
	l["mem.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
	l["mem.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	iv.sink.inv.layers(l)
	model := machine.NewAnalytic(machine.DefaultConfig())
	var sim float64
	for _, r := range iv.recs {
		sim += machine.Seconds(model, r.Phases(), simProcs)
	}
	l["machine.sim_s"] = sim
	var self time.Duration
	for layer, d := range selfByLayer(s.tr.spans, s.tr.inv) {
		l["self."+layer+"_ms"] = msOf(d)
		self += d
	}
	l["obs.self_sum_s"] = self.Seconds()
}

// verify computes the references once, compares every answer by digest,
// and (traced) times the GraphCT Table I kernels on the same file.
func (s *session) verify(answers []answer, res *runResult, traced bool) error {
	g, closer, err := graphio.Open(s.path)
	if err != nil {
		return err
	}
	defer closer.Close()
	ref, err := s.w.reference(s, g)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for _, a := range answers {
		res.Attempted++
		want, ok := ref[a.key]
		if !ok || want != a.digest {
			res.Failed++
			if len(res.Failures) < 8 {
				res.Failures = append(res.Failures, fmt.Sprintf("%s: digest %016x, reference %016x", a.key, a.digest, want))
			}
		}
	}
	if traced && s.w.table1 != nil {
		res.Once = map[string]float64{}
		s.w.table1(s, g, res.Once)
	}
	return nil
}

// vmHWMMiB reads the process's peak resident set size from procfs; 0 where
// procfs is missing.
func vmHWMMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
