package main

import (
	"sort"
	"strings"
	"time"

	"graphxmt/internal/obs"
)

// span is one traced interval: a public call the benchmark made, or an
// engine phase the attached sink reported. Spans of one invocation share
// Inv; Parent is the id of the enclosing span (0 for an invocation root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Inv    int    `json:"inv"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: begin/end still time the call (the untraced run needs
// its latencies) but record nothing.
type tracer struct {
	epoch time.Time
	spans []span
	inv   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// mark is an open span: its start time, and its id when traced (0 when not).
type mark struct {
	id    int
	start time.Time
}

// begin opens a span under parent. A parent of 0 starts a new invocation.
func (t *tracer) begin(name string, parent int) mark {
	now := time.Now()
	if t == nil {
		return mark{start: now}
	}
	if parent == 0 {
		t.inv++
	}
	return mark{id: t.add(name, parent, now, now), start: now}
}

// end closes m and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if t != nil && m.id > 0 {
		t.spans[m.id-1].EndNs = now.Sub(t.epoch).Nanoseconds()
	}
	return now.Sub(m.start)
}

// add records a finished span [start, end) under parent and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Inv: t.inv, Name: name,
		StartNs: start.Sub(t.epoch).Nanoseconds(),
		EndNs:   end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (children are clipped to the
// parent, and overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// selfByLayer sums the self times of invocation inv's spans by layer: the
// span name's prefix before the first '.' ("graphio", "bspalg", "core",
// ...), with the invocation root itself counted as "harness".
func selfByLayer(spans []span, inv int) map[string]time.Duration {
	var mine []span
	for _, s := range spans {
		if s.Inv == inv {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	out := map[string]time.Duration{}
	for _, s := range mine {
		layer := "harness"
		if s.Parent != 0 {
			layer, _, _ = strings.Cut(s.Name, ".")
		}
		out[layer] += self[s.ID]
	}
	return out
}

// engineStats accumulates what the engine's obs events say about the runs
// of one invocation.
type engineStats struct {
	phaseMs          map[string]float64 // wall per engine phase name
	supersteps       int64
	logical          int64
	physical         int64
	pullSteps        int64
	pushSteps        int64
	scratchMax       int64
	busy, capacity   time.Duration // worker busy time, and span wall x workers
	imbalance, imbWt float64       // busy-weighted max/mean chunk time
}

func newEngineStats() engineStats { return engineStats{phaseMs: map[string]float64{}} }

// engineMs is the engine's wall time excluding checkpoint spans — the BSP
// side of the host Table I ratios.
func (e *engineStats) engineMs() float64 {
	var t float64
	for name, ms := range e.phaseMs {
		if name != "checkpoint" {
			t += ms
		}
	}
	return t
}

// engineSink is the benchmark's obs.Sink: it turns engine phase spans into
// child spans of the bspalg call that is running, and accumulates the
// engine's counters. It is attached through a core.Option that sets
// Config.Obs, never through the trace.Recorder.
type engineSink struct {
	tr       *tracer
	parent   int
	runStart time.Time
	run      engineStats // the current (or last finished) engine run
	inv      engineStats // every run of the current invocation
}

func newEngineSink(tr *tracer) *engineSink {
	return &engineSink{tr: tr, run: newEngineStats(), inv: newEngineStats()}
}

// under makes the next engine runs' spans children of parent. Safe on nil.
func (k *engineSink) under(parent int) {
	if k != nil {
		k.parent = parent
	}
}

func (k *engineSink) RunStart(obs.RunInfo) {
	k.runStart = time.Now()
	k.run = newEngineStats()
}

func (k *engineSink) Span(s obs.Span) {
	start := k.runStart.Add(s.Start)
	k.tr.add("core."+s.Name, k.parent, start, start.Add(s.Dur))
	k.run.phaseMs[s.Name] += float64(s.Dur) / float64(time.Millisecond)
	var busy time.Duration
	for _, b := range s.WorkerBusy {
		busy += b
	}
	if len(s.WorkerBusy) > 0 {
		k.run.busy += busy
		k.run.capacity += s.Dur * time.Duration(len(s.WorkerBusy))
	}
	if s.Chunks > 0 && busy > 0 {
		mean := float64(busy) / float64(s.Chunks)
		k.run.imbalance += float64(s.MaxChunk) / mean * float64(busy)
		k.run.imbWt += float64(busy)
	}
}

func (k *engineSink) Step(st obs.StepStats) {
	r := &k.run
	r.supersteps++
	r.logical += st.Sent
	r.physical += st.SentPhysical
	switch st.Direction {
	case "pull":
		r.pullSteps++
	case "push":
		r.pushSteps++
	}
	r.scratchMax = max(r.scratchMax, st.ScratchBytes)
}

func (k *engineSink) Mem(obs.MemSample) {}

// RunEnd folds the finished run into the invocation's totals.
func (k *engineSink) RunEnd(time.Duration) {
	r, t := &k.run, &k.inv
	for name, ms := range r.phaseMs {
		t.phaseMs[name] += ms
	}
	t.supersteps += r.supersteps
	t.logical += r.logical
	t.physical += r.physical
	t.pullSteps += r.pullSteps
	t.pushSteps += r.pushSteps
	t.scratchMax = max(t.scratchMax, r.scratchMax)
	t.busy += r.busy
	t.capacity += r.capacity
	t.imbalance += r.imbalance
	t.imbWt += r.imbWt
}

// layers renders the invocation's engine totals as per-layer metrics.
func (e *engineStats) layers(out map[string]float64) {
	var phases float64
	for _, ms := range e.phaseMs {
		phases += ms
	}
	for _, p := range []string{"compute", "deliver", "terminate", "init", "checkpoint"} {
		out["core."+p+"_ms"] = e.phaseMs[p]
	}
	out["core.deliver_share"] = ratio(e.phaseMs["deliver"], phases)
	out["core.supersteps"] = float64(e.supersteps)
	out["core.msgs_logical"] = float64(e.logical)
	out["core.msgs_physical"] = float64(e.physical)
	out["core.physical_per_logical"] = ratio(float64(e.physical), float64(e.logical))
	out["core.pull_steps"] = float64(e.pullSteps)
	out["core.push_steps"] = float64(e.pushSteps)
	out["core.scratch_mib"] = float64(e.scratchMax) / mib
	out["par.busy_frac"] = ratio(float64(e.busy), float64(e.capacity))
	out["par.chunk_imbalance"] = ratio(e.imbalance, e.imbWt)
}
