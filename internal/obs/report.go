package obs

import (
	"fmt"
	"io"
	"time"

	"graphxmt/internal/metrics"
)

// Report is the in-memory aggregating sink: it folds the event stream into
// per-run, per-superstep tables and renders a human-readable run report —
// the host-side analogue of the paper's per-phase figures, but in wall
// clock instead of simulated cycles.
type Report struct {
	// MaxRows bounds the per-superstep table; longer runs elide the
	// middle. 0 selects 48.
	MaxRows int

	runs []*reportRun
	cur  *reportRun
}

type reportRun struct {
	info RunInfo
	wall time.Duration

	phaseOrder  []string
	phaseTotals map[string]time.Duration
	busyTotals  []time.Duration

	// Chunk-granularity imbalance stats per phase, folded from the spans'
	// Chunks / MaxChunk / WorkerBusy fields.
	phaseChunks map[string]int64
	phaseBusy   map[string]time.Duration
	phaseMaxCh  map[string]time.Duration

	steps   []*stepRow
	stepIdx map[int]int
	// hasDir marks that at least one superstep carried a direction
	// decision; the dir/front/unvis columns render only then, so runs
	// without the direction layer keep the legacy table shape.
	hasDir bool
	// hasRetry marks that at least one superstep was retried or stalled;
	// the retry/stall columns render only then — clean runs (supervised
	// or not) keep the legacy table shape.
	hasRetry bool
	// hasLanes marks a batched multi-source run (RunInfo.Lanes > 0); the
	// lanes column and the batch amortization footer render only then.
	hasLanes bool

	memFirst, memLast MemSample
	memPeak           uint64
	memSamples        int
}

type stepRow struct {
	step                              int
	active, sent, physical, delivered int64
	scratch                           int64
	direction                         string
	frontier, unvisited               int64
	retries                           int64
	stalled                           bool
	lanes                             int64
	hasStats                          bool
	phases                            map[string]time.Duration

	// Per-step chunk stats across the step's timed spans, for the imbal
	// column (max single chunk over mean chunk busy time).
	chunks   int64
	busy     time.Duration
	maxChunk time.Duration
}

// NewReport returns an empty report sink.
func NewReport() *Report { return &Report{} }

// RunStart implements Sink.
func (r *Report) RunStart(info RunInfo) {
	r.cur = &reportRun{
		info:        info,
		phaseTotals: map[string]time.Duration{},
		phaseChunks: map[string]int64{},
		phaseBusy:   map[string]time.Duration{},
		phaseMaxCh:  map[string]time.Duration{},
		stepIdx:     map[int]int{},
		hasLanes:    info.Lanes > 0,
	}
	r.runs = append(r.runs, r.cur)
}

func (r *reportRun) row(step int) *stepRow {
	if i, ok := r.stepIdx[step]; ok {
		return r.steps[i]
	}
	row := &stepRow{step: step, phases: map[string]time.Duration{}}
	r.stepIdx[step] = len(r.steps)
	r.steps = append(r.steps, row)
	return row
}

// Span implements Sink.
func (r *Report) Span(s Span) {
	run := r.cur
	if run == nil {
		return
	}
	if _, seen := run.phaseTotals[s.Name]; !seen {
		run.phaseOrder = append(run.phaseOrder, s.Name)
	}
	run.phaseTotals[s.Name] += s.Dur
	for len(run.busyTotals) < len(s.WorkerBusy) {
		run.busyTotals = append(run.busyTotals, 0)
	}
	var busy time.Duration
	for w, b := range s.WorkerBusy {
		run.busyTotals[w] += b
		busy += b
	}
	if s.Chunks > 0 {
		run.phaseChunks[s.Name] += s.Chunks
		run.phaseBusy[s.Name] += busy
		if s.MaxChunk > run.phaseMaxCh[s.Name] {
			run.phaseMaxCh[s.Name] = s.MaxChunk
		}
	}
	if s.Step >= 0 {
		row := run.row(s.Step)
		row.phases[s.Name] += s.Dur
		if s.Chunks > 0 {
			row.chunks += s.Chunks
			row.busy += busy
			if s.MaxChunk > row.maxChunk {
				row.maxChunk = s.MaxChunk
			}
		}
	}
}

// Step implements Sink.
func (r *Report) Step(st StepStats) {
	run := r.cur
	if run == nil {
		return
	}
	row := run.row(st.Step)
	row.active, row.sent, row.physical, row.delivered = st.Active, st.Sent, st.SentPhysical, st.Delivered
	row.scratch = st.ScratchBytes
	row.direction, row.frontier, row.unvisited = st.Direction, st.FrontierEdges, st.UnvisitedEdges
	if st.Direction != "" {
		run.hasDir = true
	}
	row.retries, row.stalled = st.Retries, st.Stalled
	if st.Retries > 0 || st.Stalled {
		run.hasRetry = true
	}
	row.lanes = st.Lanes
	row.hasStats = true
}

// Mem implements Sink.
func (r *Report) Mem(m MemSample) {
	run := r.cur
	if run == nil {
		return
	}
	if run.memSamples == 0 {
		run.memFirst = m
	}
	run.memLast = m
	if m.HeapAlloc > run.memPeak {
		run.memPeak = m.HeapAlloc
	}
	run.memSamples++
}

// RunEnd implements Sink.
func (r *Report) RunEnd(wall time.Duration) {
	if r.cur != nil {
		r.cur.wall = wall
		r.cur = nil
	}
}

// Render writes the report for every observed run.
func (r *Report) Render(w io.Writer) error {
	maxRows := r.MaxRows
	if maxRows <= 0 {
		maxRows = 48
	}
	for i, run := range r.runs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := run.render(w, maxRows); err != nil {
			return err
		}
	}
	if len(r.runs) == 0 {
		_, err := fmt.Fprintln(w, "obs: no runs observed")
		return err
	}
	return nil
}

func (r *reportRun) render(w io.Writer, maxRows int) error {
	fmt.Fprintf(w, "== run %q: %d workers", r.info.Label, r.info.Workers)
	if r.info.Vertices > 0 {
		fmt.Fprintf(w, ", %d vertices, %d edges", r.info.Vertices, r.info.Edges)
	}
	if r.info.Lanes > 0 {
		fmt.Fprintf(w, ", %d lanes", r.info.Lanes)
	}
	fmt.Fprintf(w, ", wall %s ==\n", fmtDur(r.wall))

	// Per-superstep table: counters first, then one column per phase in
	// first-seen order.
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %9s", "step", "active", "sent", "phys", "delivered", "scratch")
	if r.hasDir {
		fmt.Fprintf(w, " %4s %10s %10s", "dir", "front", "unvis")
	}
	if r.hasRetry {
		fmt.Fprintf(w, " %5s %5s", "retry", "stall")
	}
	if r.hasLanes {
		fmt.Fprintf(w, " %5s", "lanes")
	}
	fmt.Fprintf(w, " %6s", "imbal")
	for _, name := range r.phaseOrder {
		fmt.Fprintf(w, " %10s", tail(name, 10))
	}
	fmt.Fprintln(w)
	rows := r.steps
	elided := 0
	if len(rows) > maxRows {
		head := maxRows * 3 / 4
		tail := maxRows - head
		elided = len(rows) - head - tail
		printRows(w, rows[:head], r.phaseOrder, r.hasDir, r.hasRetry, r.hasLanes)
		fmt.Fprintf(w, "%6s  ... %d supersteps elided ...\n", "", elided)
		rows = rows[len(rows)-tail:]
	}
	printRows(w, rows, r.phaseOrder, r.hasDir, r.hasRetry, r.hasLanes)

	// Phase totals with share of wall time.
	fmt.Fprintf(w, "phases:")
	for _, name := range r.phaseOrder {
		d := r.phaseTotals[name]
		share := 0.0
		if r.wall > 0 {
			share = 100 * float64(d) / float64(r.wall)
		}
		fmt.Fprintf(w, "  %s %s (%.0f%%)", name, fmtDur(d), share)
	}
	fmt.Fprintln(w)

	// Load imbalance per phase: the run's longest single chunk over the
	// mean chunk busy time. 1.0x means perfectly even chunks; the
	// degree-weighted sweep schedule keeps "compute" near 1 even on
	// degree-skewed graphs, so a large factor there points at one costly
	// vertex rather than at the partitioning.
	if imb := r.imbalanceLine(); imb != "" {
		fmt.Fprintf(w, "chunk imbalance (max/mean):%s\n", imb)
	}

	// Superstep latency percentiles, estimated through the same log2
	// histograms the live /metrics endpoint exposes: superstep wall (the
	// engine phases; the checkpoint span is I/O, not superstep work) and
	// the deliver phase alone, the superstep-boundary cost the paper's
	// message-volume figures are about.
	if line := r.latencyLine(); line != "" {
		fmt.Fprintf(w, "latency: %s\n", line)
	}

	// Worker utilization: busy folded from par's chunk timing, divided by
	// run wall time. Low numbers on a multi-worker run mean the phases ran
	// sequential paths or the workers starved.
	if len(r.busyTotals) > 0 {
		fmt.Fprintf(w, "worker busy/wall:")
		for wkr, b := range r.busyTotals {
			util := 0.0
			if r.wall > 0 {
				util = 100 * float64(b) / float64(r.wall)
			}
			fmt.Fprintf(w, "  w%d %s (%.0f%%)", wkr, fmtDur(b), util)
		}
		fmt.Fprintln(w)
	}

	// Batch amortization: one lane-packed broadcast serves every lane
	// crossing the edge that superstep, so the per-query edge cost is the
	// run's logical sends divided by lane occupancy — the figure the MS-BFS
	// layer exists to shrink.
	if r.info.Lanes > 0 {
		var sent int64
		for _, row := range r.steps {
			sent += row.sent
		}
		fmt.Fprintf(w, "batch: %d lanes, %d lane-packed sends, %.0f amortized edge traversals/query\n",
			r.info.Lanes, sent, float64(sent)/float64(r.info.Lanes))
	}

	if r.memSamples > 0 {
		gcs := r.memLast.NumGC - r.memFirst.NumGC
		pause := r.memLast.PauseTotal - r.memFirst.PauseTotal
		fmt.Fprintf(w, "mem: heap %s -> %s (peak %s), %d GCs, %s pause",
			fmtBytes(r.memFirst.HeapAlloc), fmtBytes(r.memLast.HeapAlloc),
			fmtBytes(r.memPeak), gcs, fmtDur(pause))
		// Peak RSS covers what heap figures miss — mmap'd graph sections
		// under the zero-copy CSR2 load path. Zero when procfs is absent.
		if r.memLast.VmHWM > 0 {
			fmt.Fprintf(w, ", rss peak %s", fmtBytes(r.memLast.VmHWM))
		}
		fmt.Fprintln(w)
	}
	return nil
}

func printRows(w io.Writer, rows []*stepRow, phaseOrder []string, hasDir, hasRetry, hasLanes bool) {
	for _, row := range rows {
		if row.hasStats {
			fmt.Fprintf(w, "%6d %10d %10d %10d %10d %9s", row.step, row.active, row.sent, row.physical, row.delivered, fmtBytes(uint64(row.scratch)))
		} else {
			fmt.Fprintf(w, "%6d %10s %10s %10s %10s %9s", row.step, "-", "-", "-", "-", "-")
		}
		if hasDir {
			if row.direction != "" {
				fmt.Fprintf(w, " %4s %10d %10d", row.direction, row.frontier, row.unvisited)
			} else {
				fmt.Fprintf(w, " %4s %10s %10s", "-", "-", "-")
			}
		}
		if hasRetry {
			stall := "-"
			if row.stalled {
				stall = "yes"
			}
			fmt.Fprintf(w, " %5d %5s", row.retries, stall)
		}
		if hasLanes {
			if row.hasStats {
				fmt.Fprintf(w, " %5d", row.lanes)
			} else {
				fmt.Fprintf(w, " %5s", "-")
			}
		}
		fmt.Fprintf(w, " %6s", fmtImbalance(row.chunks, row.busy, row.maxChunk))
		for _, name := range phaseOrder {
			if d, ok := row.phases[name]; ok {
				fmt.Fprintf(w, " %10s", fmtDur(d))
			} else {
				fmt.Fprintf(w, " %10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// latencyLine renders run-level p50/p90/p99 for superstep wall and the
// deliver phase, or "" when no superstep carried phase timing. The
// estimates go through metrics.Histogram (log2 buckets, interpolated), so
// the report footer and a /metrics scrape of the same run quote the same
// numbers.
func (r *reportRun) latencyLine() string {
	stepWall := metrics.NewHistogram(metrics.DurationBounds)
	deliver := metrics.NewHistogram(metrics.DurationBounds)
	for _, row := range r.steps {
		if row.step < 0 {
			continue
		}
		var wall time.Duration
		for name, d := range row.phases {
			if name == "checkpoint" {
				continue
			}
			wall += d
		}
		if wall > 0 {
			stepWall.Observe(wall.Microseconds())
		}
		if d, ok := row.phases["deliver"]; ok {
			deliver.Observe(d.Microseconds())
		}
	}
	out := ""
	for _, h := range []struct {
		name string
		hist *metrics.Histogram
	}{{"superstep", stepWall}, {"deliver", deliver}} {
		if h.hist.Count() == 0 {
			continue
		}
		out += fmt.Sprintf("  %s p50/p90/p99 %s/%s/%s", h.name,
			fmtDur(time.Duration(h.hist.Quantile(0.5))*time.Microsecond),
			fmtDur(time.Duration(h.hist.Quantile(0.9))*time.Microsecond),
			fmtDur(time.Duration(h.hist.Quantile(0.99))*time.Microsecond))
	}
	return out
}

// imbalanceLine renders the per-phase max/mean chunk factors in phase
// order, or "" when no chunk timing was collected.
func (r *reportRun) imbalanceLine() string {
	out := ""
	for _, name := range r.phaseOrder {
		n := r.phaseChunks[name]
		if n == 0 {
			continue
		}
		out += fmt.Sprintf("  %s %s (%d chunks, max %s)",
			name, fmtImbalance(n, r.phaseBusy[name], r.phaseMaxCh[name]), n, fmtDur(r.phaseMaxCh[name]))
	}
	return out
}

// fmtImbalance renders max-chunk over mean-chunk as "N.Nx", or "-" when no
// chunks were timed or the mean rounds to zero.
func fmtImbalance(chunks int64, busy, maxChunk time.Duration) string {
	if chunks == 0 || busy <= 0 {
		return "-"
	}
	mean := float64(busy) / float64(chunks)
	if mean <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(maxChunk)/mean)
}

// tail truncates s to its last n runes (phase names share long prefixes).
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// fmtDur renders a duration with ~3 significant digits.
func fmtDur(d time.Duration) string {
	switch {
	case d < 10*time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Nanoseconds())/1e3)
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
