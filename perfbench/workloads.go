package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graphxmt/internal/batch"
	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphct"
	"graphxmt/internal/obs"
	"graphxmt/internal/trace"
)

// workload is one input set the benchmark runs. Every workload is an RMAT
// graph with Graph500 parameters (a=0.57, b=0.19, c=0.19, noise 0.1) at
// edge factor 8; the seed is the benchmark's --seed.
type workload struct {
	name    string
	why     string
	scale   int
	rep     graph.Rep
	workers int
	// sources is how many Graph500 search keys the workload queries (0 for
	// whole-graph kernels).
	sources int
	// checkpoints marks a workload whose invocations write checkpoints;
	// each starts with an empty checkpoint directory.
	checkpoints bool
	// body runs the kernels of one invocation on an opened graph.
	body func(s *session, iv *invocation) error
	// reference computes the oracle's answer digests, once per seed.
	reference func(s *session, g *graph.Graph) (map[string]uint64, error)
	// table1 times the GraphCT reference kernel for the host Table I ratio
	// (traced runs only); nil where the workload has no Table I row.
	table1 func(s *session, g *graph.Graph, out map[string]float64)
}

const (
	edgeFactor    = 8
	prRounds      = 20
	prKillStep    = 10 // the PageRank boundary at which analytics-ckpt is killed
	table1Repeats = 3
)

var workloads = []*workload{
	{
		name:      "bfs-serial",
		why:       "single-source BSP BFS at one worker on flat CSR1: the paper's BFS row and the plain single-threaded baseline",
		scale:     18,
		rep:       graph.RepFlat,
		workers:   1,
		sources:   16,
		body:      bfsBody,
		reference: bfsReferences,
		table1:    bfsTable1,
	},
	{
		name:    "msbfs-compressed",
		why:     "64-lane MultiBFS batches on an mmap'd compressed CSR2 file: batch lanes, the Or combiner and varint decode",
		scale:   20,
		rep:     graph.RepCompressed,
		workers: 2,
		sources: batch.MaxLanes,
		body:    msbfsBody,
		reference: func(s *session, g *graph.Graph) (map[string]uint64, error) {
			return bfsReferences(s, graph.Decompress(g))
		},
	},
	{
		name:    "tc-unicast",
		why:     "BSP triangle counting on flat CSR1: the paper's TC row; unicast Send traffic, compute-heavy, reloads the graph",
		scale:   16,
		rep:     graph.RepFlat,
		workers: 2,
		body:    tcBody,
		reference: func(_ *session, g *graph.Graph) (map[string]uint64, error) {
			return map[string]uint64{"tc": uint64(graph.ReferenceTriangles(g))}, nil
		},
		table1: tcTable1,
	},
	{
		name:        "analytics-ckpt",
		why:         "supervised CC then PageRank with checkpoints, retry, a metrics sink, and a kill plus resume: the only ckpt path",
		scale:       18,
		rep:         graph.RepFlat,
		workers:     2,
		checkpoints: true,
		body:        analyticsBody,
		reference: func(_ *session, g *graph.Graph) (map[string]uint64, error) {
			cc, err := bspalg.ConnectedComponents(g, nil)
			if err != nil {
				return nil, err
			}
			pr, err := bspalg.PageRank(g, prRounds, nil)
			if err != nil {
				return nil, err
			}
			return map[string]uint64{"cc": digestInt64s(cc.Labels), "pagerank": digestFloat64s(pr.Rank)}, nil
		},
		table1: ccTable1,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// invocation is one timed pass: open the graph, run the kernels, hold the
// results in memory. The tracing fields are nil in an untraced invocation.
type invocation struct {
	g    *graph.Graph
	tr   *tracer
	root int
	sink *engineSink
	// recs are the recorders whose profiles make up the invocation's
	// simulated XMT time (traced only).
	recs []*trace.Recorder

	latMs   []float64 // one per query (or per batch, for msbfs)
	queries int
	// check runs after the timed region, before the graph is closed; it
	// returns the answers to compare with the references.
	check func() []answer
	// layer and samples hold the traced invocation's per-layer values.
	layer   map[string]float64
	samples map[string][]float64
}

// answer is one kernel output, by digest, keyed like the references.
type answer struct {
	key    string
	digest uint64
}

// recorder returns a fresh profile recorder when traced (nil otherwise);
// counted recorders add to machine.sim_s.
func (iv *invocation) recorder(counted bool) *trace.Recorder {
	if iv.tr == nil {
		return nil
	}
	r := trace.NewRecorder()
	if counted {
		iv.recs = append(iv.recs, r)
	}
	return r
}

// opts attaches the benchmark's sink (teed with extra, when given) through
// a core.Option that sets Config.Obs.
func (iv *invocation) opts(extra obs.Sink, more ...core.Option) []core.Option {
	sinks := []obs.Sink{extra}
	if iv.sink != nil {
		sinks = append(sinks, iv.sink)
	}
	if s := obs.Tee(sinks...); s != nil {
		more = append(more, func(c *core.Config) { c.Obs = s })
	}
	return more
}

// call times one public call as a span under the invocation root, with the
// engine's phase spans nested beneath it, and returns its wall in ms.
func (iv *invocation) call(name string, fn func() error) (float64, error) {
	m := iv.tr.begin(name, iv.root)
	iv.sink.under(m.id)
	err := fn()
	return msOf(iv.tr.end(m)), err
}

// sample appends a traced per-call value.
func (iv *invocation) sample(name string, v float64) {
	if iv.samples != nil {
		iv.samples[name] = append(iv.samples[name], v)
	}
}

// componentEdges is the number of undirected edges among the vertices a
// search reached (-1 marks unreached): the Graph500 TEPS numerator.
func componentEdges(g *graph.Graph, dist []int64) int64 {
	var deg int64
	for v, d := range dist {
		if d >= 0 {
			deg += g.Degree(int64(v))
		}
	}
	return deg / 2
}

func bfsBody(s *session, iv *invocation) error {
	dists := make([][]int64, len(s.sources))
	for i, src := range s.sources {
		rec := iv.recorder(true)
		var res *bspalg.BFSResult
		ms, err := iv.call("bspalg.BFS", func() (err error) {
			res, err = bspalg.BFS(iv.g, src, rec, iv.opts(nil)...)
			return err
		})
		if err != nil {
			return err
		}
		iv.latMs = append(iv.latMs, ms)
		iv.queries++
		dists[i] = res.Dist
		iv.sample("bspalg.bfs_ms", ms)
		if iv.sink != nil {
			iv.sample("engine.bfs_ms", iv.sink.run.engineMs())
		}
	}
	iv.check = func() []answer {
		out := make([]answer, len(dists))
		var edges int64
		for i, d := range dists {
			out[i] = answer{bfsKey(s.sources[i]), digestInt64s(d)}
			if iv.layer != nil {
				edges += componentEdges(iv.g, d)
			}
		}
		if iv.layer != nil {
			iv.layer["bspalg.mteps"] = ratio(float64(edges), sum(iv.latMs)*1e3)
		}
		return out
	}
	return nil
}

func msbfsBody(s *session, iv *invocation) error {
	pm := iv.tr.begin("batch.NewPlan", iv.root)
	plan, err := batch.NewPlan(s.sources, iv.g.NumVertices())
	planDur := iv.tr.end(pm)
	if err != nil {
		return err
	}
	rec := iv.recorder(true)
	var res *bspalg.MultiResult
	ms, err := iv.call("bspalg.MultiBFS", func() (err error) {
		res, err = bspalg.MultiBFS(iv.g, plan, rec, iv.opts(nil)...)
		return err
	})
	if err != nil {
		return err
	}
	iv.latMs = append(iv.latMs, ms)
	iv.queries += len(s.sources)
	iv.sample("bspalg.multibfs_ms", ms)
	if iv.layer != nil {
		iv.layer["batch.plan_us"] = float64(planDur.Nanoseconds()) / 1e3
		iv.layer["batch.lanes"] = float64(plan.Occupancy())
		iv.layer["batch.edges_per_query"] = ratio(float64(iv.sink.inv.logical), float64(plan.Occupancy()))
	}
	iv.check = func() []answer {
		out := make([]answer, len(s.sources))
		var edges int64
		for i, src := range s.sources {
			d := res.Dist(plan.Lane[i])
			out[i] = answer{bfsKey(src), digestInt64s(d)}
			if iv.layer != nil {
				edges += componentEdges(iv.g, d)
			}
		}
		if iv.layer != nil {
			iv.layer["bspalg.mteps"] = ratio(float64(edges), ms*1e3)
		}
		return out
	}
	return nil
}

func tcBody(_ *session, iv *invocation) error {
	rec := iv.recorder(true)
	var res *bspalg.TCResult
	ms, err := iv.call("bspalg.Triangles", func() (err error) {
		res, err = bspalg.Triangles(iv.g, rec, iv.opts(nil)...)
		return err
	})
	if err != nil {
		return err
	}
	iv.latMs = append(iv.latMs, ms)
	iv.queries++
	iv.sample("bspalg.tc_ms", ms)
	if iv.sink != nil {
		iv.sample("engine.tc_ms", iv.sink.run.engineMs())
	}
	iv.check = func() []answer { return []answer{{"tc", uint64(res.Count)}} }
	return nil
}

// ckptCounter counts the checkpoint files and bytes written through the
// policy's WrapWrite hook.
type ckptCounter struct {
	files int64
	bytes int64
}

type countingWriter struct {
	w io.Writer
	c *ckptCounter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.bytes += int64(n)
	return n, err
}

func (c *ckptCounter) hooks(kill func(int64) bool) *ckpt.Hooks {
	return &ckpt.Hooks{
		Kill: kill,
		WrapWrite: func(_ int64, w io.Writer) io.Writer {
			c.files++
			return countingWriter{w, c}
		},
	}
}

func analyticsBody(s *session, iv *invocation) error {
	var cnt ckptCounter
	policy := func(dir, label string, kill func(int64) bool) core.Option {
		return core.WithCheckpoint(&ckpt.Policy{
			Dir: filepath.Join(s.ckptDir, dir), EveryN: 1, Keep: 2, Label: label, Hooks: cnt.hooks(kill),
		})
	}
	ccRec := iv.recorder(true)
	var cc *bspalg.CCResult
	ccMs, err := iv.call("bspalg.ConnectedComponents", func() (err error) {
		cc, err = bspalg.ConnectedComponents(iv.g, ccRec,
			iv.opts(s.metrics, policy("cc", "cc", nil), core.WithRetries(1))...)
		return err
	})
	if err != nil {
		return err
	}
	if iv.sink != nil {
		iv.sample("engine.cc_ms", iv.sink.run.engineMs())
	}

	label := fmt.Sprintf("pagerank rounds=%d", prRounds)
	killedMs, err := iv.call("bspalg.PageRank", func() error {
		_, err := bspalg.PageRank(iv.g, prRounds, iv.recorder(false),
			iv.opts(s.metrics, policy("pr", label, func(step int64) bool { return step == prKillStep }), core.WithRetries(1))...)
		return err
	})
	var ie *core.InterruptedError
	if !errors.As(err, &ie) {
		return fmt.Errorf("pagerank: want an interruption at boundary %d, got %v", prKillStep, err)
	}

	var pr *bspalg.PageRankResult
	m := iv.tr.begin("bspalg.PageRank", iv.root)
	iv.sink.under(m.id)
	pr, err = bspalg.PageRank(iv.g, prRounds, iv.recorder(true),
		iv.opts(s.metrics, policy("pr", label, nil), core.WithRetries(1), core.WithResumeLatest())...)
	resumeDur := iv.tr.end(m)
	if err != nil {
		return err
	}
	iv.latMs = append(iv.latMs, ccMs+killedMs+msOf(resumeDur))
	iv.queries++
	iv.sample("bspalg.cc_ms", ccMs)
	iv.sample("bspalg.pagerank_ms", killedMs+msOf(resumeDur))
	if iv.layer != nil {
		iv.layer["ckpt.files"] = float64(cnt.files)
		iv.layer["ckpt.bytes_mib"] = float64(cnt.bytes) / mib
		iv.layer["ckpt.load_ms"] = msOf(iv.sink.runStart.Sub(m.start))
		iv.layer["ckpt.resume_ms"] = msOf(resumeDur)
	}
	iv.check = func() []answer {
		return []answer{{"cc", digestInt64s(cc.Labels)}, {"pagerank", digestFloat64s(pr.Rank)}}
	}
	return nil
}

func bfsKey(src int64) string { return fmt.Sprintf("bfs:%d", src) }

// bfsReferences runs graph.ReferenceBFS from every source of the session,
// on every CPU: the references are outside every metric.
func bfsReferences(s *session, g *graph.Graph) (map[string]uint64, error) {
	digests := make([]uint64, len(s.sources))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				digests[i] = digestInt64s(graph.ReferenceBFS(g, s.sources[i]))
			}
		}()
	}
	for i := range s.sources {
		next <- i
	}
	close(next)
	wg.Wait()
	ref := make(map[string]uint64, len(s.sources))
	for i, src := range s.sources {
		ref[bfsKey(src)] = digests[i]
	}
	return ref, nil
}

// wallMs times fn, in ms.
func wallMs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return msOf(time.Since(t0))
}

// timeRepeats returns the median wall of fn over table1Repeats calls, in ms.
func timeRepeats(fn func()) float64 {
	var ms []float64
	for i := 0; i < table1Repeats; i++ {
		ms = append(ms, wallMs(fn))
	}
	return median(ms)
}

func bfsTable1(s *session, g *graph.Graph, out map[string]float64) {
	var ms []float64
	for _, src := range s.sources {
		ms = append(ms, wallMs(func() { graphct.BFS(g, src, nil) }))
	}
	out["graphct.bfs_ms"] = median(ms)
	out["table1.bfs_ratio"] = ratio(median(s.samples["engine.bfs_ms"]), out["graphct.bfs_ms"])
}

func tcTable1(s *session, g *graph.Graph, out map[string]float64) {
	out["graphct.tc_ms"] = timeRepeats(func() { graphct.Triangles(g, nil) })
	out["table1.tc_ratio"] = ratio(median(s.samples["engine.tc_ms"]), out["graphct.tc_ms"])
}

func ccTable1(s *session, g *graph.Graph, out map[string]float64) {
	out["graphct.cc_ms"] = timeRepeats(func() { graphct.ConnectedComponents(g, nil) })
	out["table1.cc_ratio"] = ratio(median(s.samples["engine.cc_ms"]), out["graphct.cc_ms"])
}

// clearDir empties dir (creating it), so every analytics invocation starts
// with no checkpoints on disk.
func clearDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
