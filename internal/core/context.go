package core

import "graphxmt/internal/graph"

// bcastRec is one recorded broadcast: SendToNeighbors stores a single
// (source, value) record instead of materializing one Message per edge.
// seq is the number of unicast messages in the same send buffer at record
// time — the record's position in the interleaved send stream — so
// expandTraffic can reconstruct the exact per-edge send order when a
// superstep mixes Send and SendToNeighbors. Within one buffer seq is
// non-decreasing by construction (vertices run in ascending order and the
// buffer only grows).
type bcastRec struct {
	src, val, seq int64
}

// engineState is the per-run state shared by all VertexContext calls.
type engineState struct {
	graph     *graph.Graph
	costs     CostSchedule
	states    []int64
	superstep int
	sendBuf   []Message
	// bcastBuf collects SendToNeighbors records in call order (ascending
	// source vertex within a chunk). sent counts logical messages — one per
	// edge for a broadcast — so counters, charges, and budgets see exactly
	// the traffic the per-edge expansion would have produced.
	bcastBuf []bcastRec
	sent     int64
	// unicast counts Send calls only (never SendToNeighbors, under either
	// broadcast treatment), so sent-unicast is the frontier's
	// broadcast-incident-edge count the direction heuristic reads — a
	// logical quantity identical across treatments and worker counts.
	unicast int64
	// expand reverts SendToNeighbors to eager per-edge expansion
	// (Config.ExpandBroadcasts) for A/B comparison.
	expand     bool
	aggregates map[string]*aggregator
	// prevAggregates snapshots the aggregators as of the end of the
	// previous superstep (Pregel semantics: a value aggregated in
	// superstep s is visible to every vertex in superstep s+1).
	prevAggregates map[string]int64

	// extra* accumulate Charge calls within one superstep.
	extraIssue, extraLoads, extraStores int64
}

type aggregator struct {
	value  int64
	reduce func(a, b int64) int64
	seeded bool
}

// VertexContext is the view a vertex program gets of one vertex during one
// superstep: its identity, state, incoming messages, and the operations the
// BSP model permits (local computation, sending, voting to halt).
type VertexContext struct {
	engine *engineState
	id     int64
	msgs   []int64
	halt   bool
	// Decode buffers on compressed graphs, reused across vertices: nbrBuf
	// backs Neighbors; expandNbrs backs expanded SendToNeighbors, which
	// must not clobber a Neighbors slice Compute may still hold.
	nbrBuf     []int64
	expandNbrs []int64
}

// ID returns the vertex's identifier.
func (v *VertexContext) ID() int64 { return v.id }

// Superstep returns the current superstep number, starting at 0.
func (v *VertexContext) Superstep() int { return v.engine.superstep }

// State returns the vertex's current state.
func (v *VertexContext) State() int64 { return v.engine.states[v.id] }

// SetState replaces the vertex's state.
func (v *VertexContext) SetState(s int64) { v.engine.states[v.id] = s }

// Messages returns the messages received this superstep (sent during the
// previous superstep). The slice is read-only and valid only within
// Compute.
func (v *VertexContext) Messages() []int64 { return v.msgs }

// Degree returns the vertex's out-degree.
func (v *VertexContext) Degree() int64 { return v.engine.graph.Degree(v.id) }

// Neighbors returns the vertex's adjacency list ("the vertex implicitly
// knows its neighbors"). Read-only, and valid only within Compute: on
// compressed graphs the slice is a per-context decode buffer reused for
// the next vertex.
func (v *VertexContext) Neighbors() []int64 {
	v.nbrBuf = v.engine.graph.DecodeNeighbors(v.id, v.nbrBuf)
	return v.nbrBuf
}

// NeighborWeights returns the edge weights parallel to Neighbors. It
// panics on unweighted graphs, like graph.Graph.NeighborWeights.
func (v *VertexContext) NeighborWeights() []int64 {
	return v.engine.graph.NeighborWeights(v.id)
}

// HasNeighbor reports whether w is adjacent to this vertex (binary search
// on sorted graphs). The membership loads it implies must be charged via
// Charge by programs that care about fidelity.
func (v *VertexContext) HasNeighbor(w int64) bool {
	return v.engine.graph.HasEdge(v.id, w)
}

// Charge records algorithm-specific work beyond the engine's fixed
// per-vertex and per-message costs — e.g. the adjacency scans of the
// triangle counting program. The charges are added to the current
// superstep's phase.
func (v *VertexContext) Charge(issue, loads, stores int64) {
	v.engine.extraIssue += issue
	v.engine.extraLoads += loads
	v.engine.extraStores += stores
}

// NumVertices returns the graph's vertex count.
func (v *VertexContext) NumVertices() int64 { return v.engine.graph.NumVertices() }

// Send sends value to vertex dest, to be received next superstep. A vertex
// may send to any vertex it can identify, not only neighbors.
func (v *VertexContext) Send(dest, value int64) {
	v.engine.sendBuf = append(v.engine.sendBuf, Message{Dest: dest, Value: value})
	v.engine.sent++
	v.engine.unicast++
}

// SendToNeighbors sends value to every neighbor. Logically this is one
// message per edge (and it is counted and charged as such), but the engine
// records a single broadcast record and expands it at delivery — directly
// into the inbox CSR — so the physical traffic of a flood superstep is
// O(frontier), not O(edges incident on the frontier). The received message
// sequences are identical to per-edge expansion (see deliver in
// parallel.go for where combiner associativity is leaned on).
func (v *VertexContext) SendToNeighbors(value int64) {
	e := v.engine
	if e.expand {
		// Expanded per-edge messages still count as broadcast traffic, not
		// unicast — appended directly so the unicast counter (and therefore
		// the direction decision) is identical under both treatments.
		v.expandNbrs = e.graph.DecodeNeighbors(v.id, v.expandNbrs)
		for _, w := range v.expandNbrs {
			e.sendBuf = append(e.sendBuf, Message{Dest: w, Value: value})
		}
		e.sent += e.graph.Degree(v.id)
		return
	}
	deg := e.graph.Degree(v.id)
	if deg == 0 {
		return
	}
	e.bcastBuf = append(e.bcastBuf, bcastRec{src: v.id, val: value, seq: int64(len(e.sendBuf))})
	e.sent += deg
}

// VoteToHalt marks the vertex inactive; it will not run again until a
// message arrives for it.
func (v *VertexContext) VoteToHalt() { v.halt = true }

// Aggregate folds value into the named global aggregator with the given
// reduction (registered on first use; subsequent calls must pass the same
// semantic reduction). Aggregator values are visible in Result.Aggregates
// after the run. Sum, Min and Max are provided as package helpers.
func (v *VertexContext) Aggregate(name string, value int64, reduce func(a, b int64) int64) {
	if v.engine.aggregates == nil {
		v.engine.aggregates = map[string]*aggregator{}
	}
	agg, ok := v.engine.aggregates[name]
	if !ok {
		agg = &aggregator{reduce: reduce}
		v.engine.aggregates[name] = agg
	}
	if !agg.seeded {
		agg.value = value
		agg.seeded = true
		return
	}
	agg.value = agg.reduce(agg.value, value)
}

// PreviousAggregate returns the value the named aggregator held at the end
// of the previous superstep (Pregel's aggregator visibility rule), and
// whether it existed. During superstep 0 nothing is visible.
func (v *VertexContext) PreviousAggregate(name string) (int64, bool) {
	val, ok := v.engine.prevAggregates[name]
	return val, ok
}

// Sum is an aggregator reduction.
func Sum(a, b int64) int64 { return a + b }

// Min is an aggregator reduction (and the natural combiner for label
// propagation algorithms).
func Min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Max is an aggregator reduction.
func Max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
