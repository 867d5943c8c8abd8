package core

import (
	"math"
	"runtime/debug"
	"sort"

	"graphxmt/internal/graph"
	"graphxmt/internal/par"
)

// Host-parallel execution of the BSP engine.
//
// The engine's invariant (shared with every kernel in this repository) is
// that the host worker count affects only wall-clock time: results and
// recorded work profiles are bit-identical whether par runs on 1 or N
// cores. The machinery here achieves that with deterministic chunking:
//
//   - The compute sweep is partitioned into chunks whose boundaries are a
//     pure function of the graph and the active set — never of the worker
//     count. They split the CSR degree prefix sum (graph.Offsets, or the
//     candidate-degree prefix sum under sparse activation) into near-equal
//     edge-work chunks, so a hub vertex of a skewed graph cannot make one
//     chunk run targetChunks× longer than its peers. Each chunk runs
//     vertices with a private VertexContext — private send buffer,
//     work-charge accumulators, aggregator partials, wake list and
//     halt-transition counter — and the partials are merged in chunk index
//     order after the sweep. Concatenating per-chunk send buffers in chunk
//     order reproduces exactly the send order of a sequential sweep.
//
//   - Delivery is a stable counting sort: the output grouping (messages
//     per destination, in send order) is unique, so the internal
//     partitioning of the sort is free to follow the worker count. Its
//     fan-in is derived from par.Workers() under a scratch-memory budget
//     (deliverChunks) rather than a fixed cap.
//
//   - Broadcasts (SendToNeighbors) are carried as (source, value) records
//     rather than per-edge messages, and a pure-broadcast superstep is
//     delivered straight from the records: a record-driven stable scatter
//     when no combiner is set (exactly the legacy grouping), or a
//     pull-side fold over destination neighbor lists when one is (see
//     deliverBcasts for the paths and the one associativity caveat).
//     Counters and charges still see one logical message per edge.
//
//   - The combining path groups messages per destination first (the same
//     stable sort) and then left-folds each destination's messages in send
//     order over destination ranges weighted by message count. Groups
//     smaller than hubFoldMin reproduce the sequential combine order for
//     ANY combiner — associativity is not required for determinism across
//     worker counts. A hub group of at least hubFoldMin messages is folded
//     over fixed-size segments whose partials combine in segment order — a
//     tree that is still a pure function of the group length, hence
//     worker-independent, but relies on the associativity Config.Combiner
//     documents to equal the flat left fold.
//
//   - Aggregators fold per chunk and the chunk partials fold in chunk
//     index order. Chunk boundaries are worker-independent, so the fold
//     tree — and therefore the result, even for non-associative
//     reductions — is too.

// sweepTargetChunks is the chunk count a sweep of count items is split
// into: about 256 chunks, but none targeting fewer than 64 items. It
// depends only on count — never on the worker count — so chunk boundaries,
// and every merge keyed on chunk index, are identical across host
// configurations.
func sweepTargetChunks(count int) int {
	const (
		minChunk     = 64
		targetChunks = 256
	)
	c := (count + minChunk - 1) / minChunk
	if c > targetChunks {
		c = targetChunks
	}
	if c < 1 {
		c = 1
	}
	return c
}

// sweepVertexWork is the constant per-vertex weight the sweep schedule
// adds to each vertex's degree: it accounts for the fixed per-vertex
// dispatch cost, so zero-degree stretches still split instead of
// collapsing into one chunk.
const sweepVertexWork = 4

// deliverParallelMin is the message count below which delivery runs over
// a single range even on a multi-worker host (see serialDeliver): fanning
// out costs more than it saves there. Every range count produces identical
// output, so the threshold is a pure host-speed knob.
const deliverParallelMin = 1 << 14

// hubFoldMin is the combining-path hub threshold: a destination group of
// at least this many messages is folded over hubFoldSeg-sized segments in
// parallel (see parCombineDeliver). Below it, the exact sequential
// left-fold order is preserved for any combiner.
const (
	hubFoldMin = 1 << 13
	hubFoldSeg = 1 << 11
)

// chunkState is the private state of one sweep chunk: everything a worker
// mutates while running its chunk's vertices, merged deterministically (in
// chunk index order) after the sweep barrier.
type chunkState struct {
	ctx VertexContext
	eng engineState
	// wake collects non-halted vertices (sparse activation only).
	wake []int64
	// active / received mirror the per-superstep counters of the
	// sequential engine, chunk-locally.
	active   int64
	received int64
	// haltDelta is the net change to the live (non-halted) vertex count
	// produced by this chunk's halt-flag transitions.
	haltDelta int64
	// visited is the run's shared visited bitmap (direction.go); nil when
	// the direction layer is inactive. Chunks write only vertices they own
	// (single-owner, no races) and visitedDelta accumulates the degree sum
	// of the vertices this chunk marked this superstep.
	visited      []bool
	visitedDelta int64
	// trap records a vertex-program panic recovered while running this
	// chunk (nil otherwise). The engine folds traps into a ProgramError
	// after the sweep, lowest chunk first.
	trap *programTrap
}

// programTrap is one recovered vertex-program panic.
type programTrap struct {
	vertex int64
	val    any
	stack  []byte
}

// guard converts a vertex-program panic into a chunk-local trap. Deferred
// once per chunk (not per vertex), so its hot-path cost is one defer per
// few hundred vertices. The trapped vertex is whatever the chunk's context
// was positioned on — runVertex sets ctx.id before calling Compute.
func (cs *chunkState) guard() {
	if r := recover(); r != nil {
		cs.trap = &programTrap{vertex: cs.ctx.id, val: r, stack: debug.Stack()}
	}
}

// runRange executes the chunk's vertex range under the panic guard. par
// spawns workers without any recovery of its own, so the guard must live
// inside the per-chunk closure — a program panic that escaped here would
// kill the process.
func (cs *chunkState) runRange(p Program, lo, hi, step int, ib *inboxView, halted []bool, sparse bool, candidates []int64) {
	defer cs.guard()
	if sparse {
		for i := lo; i < hi; i++ {
			cs.runVertex(p, candidates[i], step, ib, halted, true)
		}
	} else {
		for v := lo; v < hi; v++ {
			cs.runVertex(p, int64(v), step, ib, halted, false)
		}
	}
}

// reset prepares the chunk for one superstep. Aggregator partials are not
// cleared here: mergeAggregates unseeds them as it consumes them.
func (cs *chunkState) reset(step int, prevAggs map[string]int64) {
	cs.eng.superstep = step
	cs.eng.sendBuf = cs.eng.sendBuf[:0]
	cs.eng.bcastBuf = cs.eng.bcastBuf[:0]
	cs.eng.sent = 0
	cs.eng.unicast = 0
	cs.eng.extraIssue, cs.eng.extraLoads, cs.eng.extraStores = 0, 0, 0
	cs.eng.prevAggregates = prevAggs
	cs.active, cs.received, cs.haltDelta = 0, 0, 0
	cs.visitedDelta = 0
	cs.wake = cs.wake[:0]
	cs.trap = nil
}

// inboxView is the sweep's read-side of the inbox. Dense mode reads the
// CSR offsets; sparse mode reads a stamped per-vertex lookaside (msgStamp
// / msgLo / msgHi), which lets sparse delivery touch only the receivers
// instead of rebuilding an O(n) CSR every superstep. st is the stamp the
// delivering superstep wrote (consumer step - 1); st < 0 means nothing has
// been delivered yet (superstep 0).
type inboxView struct {
	val    []int64
	off    []int64 // dense CSR offsets
	stamp  []int64 // sparse lookaside
	lo, hi []int64
	st     int64
	sparse bool
}

// slice returns vertex v's incoming messages.
func (ib *inboxView) slice(v int64) []int64 {
	if ib.sparse {
		if ib.st < 0 || ib.stamp[v] != ib.st {
			return nil
		}
		return ib.val[ib.lo[v]:ib.hi[v]]
	}
	return ib.val[ib.off[v]:ib.off[v+1]]
}

// runVertex executes one vertex against this chunk's private context. It
// is the parallel twin of the sequential engine's per-vertex dispatch.
func (cs *chunkState) runVertex(p Program, v int64, step int, ib *inboxView, halted []bool, sparse bool) {
	msgs := ib.slice(v)
	hasMsgs := len(msgs) > 0
	if step > 0 && !hasMsgs && halted[v] {
		return
	}
	cs.active++
	cs.received += int64(len(msgs))
	ctx := &cs.ctx
	ctx.id = v
	ctx.msgs = msgs
	ctx.halt = false
	sentBefore := cs.eng.sent
	p.Compute(ctx)
	if cs.visited != nil && !cs.visited[v] && (hasMsgs || cs.eng.sent > sentBefore) {
		// A vertex is visited once it has received or sent a message — the
		// logical event the direction heuristic's unvisited-edge count
		// tracks. Single-owner write: v belongs to exactly this chunk.
		cs.visited[v] = true
		cs.visitedDelta += cs.eng.graph.Degree(v)
	}
	if ctx.halt != halted[v] {
		halted[v] = ctx.halt
		if ctx.halt {
			cs.haltDelta--
		} else {
			cs.haltDelta++
		}
	}
	if sparse && !ctx.halt {
		cs.wake = append(cs.wake, v)
	}
}

// runScratch holds every buffer the engine reuses across supersteps: the
// per-chunk worker states and the delivery / worklist scratch that the
// sequential engine used to reallocate each superstep.
type runScratch struct {
	chunks   []*chunkState
	sendOff  []int // per-chunk send-buffer offsets for the merge copy
	bcastOff []int // per-chunk broadcast-record offsets for the merge copy
	wake     []int64

	// sawUnicast records whether any superstep of this run has produced
	// unicast messages yet; the per-chunk send-buffer presize (degree-sum
	// capacity) is applied only then, so pure-broadcast runs never allocate
	// per-edge buffers at all. Purely a capacity heuristic — it can never
	// affect results.
	sawUnicast bool

	// Broadcast delivery scratch (see deliverBcasts). expandBuf is the
	// spare message buffer expandTraffic swaps against the engine's send
	// buffer; bcastLook is the value-stamped broadcaster lookaside of the
	// pull paths; pullBnds caches the degree-weighted destination ranges
	// of the multi-range pull (graph-constant) and oneRange backs the
	// single-range one; bcastWork / bcastBnds partition broadcast records
	// by degree for the scatter.
	expandBuf []Message
	bcastLook []bcastSlot
	pullBnds  []int
	oneRange  [2]int
	bcastWork []int64
	bcastBnds []int

	// nbrPool recycles neighbor decode buffers (see takeNbrs).
	nbrPool chan []int64

	// Sequential combining scratch (the hoisted has/acc of the old
	// per-superstep allocations). has is all-false between deliveries:
	// seqCombineDeliver re-clears the flags it set during its compaction
	// sweep, so no O(n) zeroing is ever needed.
	has []bool
	acc []int64

	// Parallel delivery scratch.
	counts   []int32 // C*n destination counters, dest-major
	groupOff []int64 // n+1 group boundaries (combining path)
	groupVal []int64 // grouped message values (combining path)
	rangeCnt []int64 // per-range counters for compaction sweeps
	rangeMax []int64 // per-range max group size (hub detection)
	foldBnds []int   // message-weighted fold range boundaries
	hubDest  []int64 // destinations with >= hubFoldMin messages, ascending
	hubVal   []int64 // prefolded hub values, parallel to hubDest
	hubPart  []int64 // per-segment partials of one hub prefold

	// Sweep chunk boundaries (see sweepBoundaries). denseBounds caches the
	// dense degree-weighted boundaries, which depend only on the graph.
	bounds      []int
	denseBounds []int
	candWork    []int64 // candidate-degree prefix sum, len count+1
	// sweepWork is the active sweep's work prefix (nil for a one-chunk
	// sparse sweep): sweepWork(hi) - sweepWork(lo) - sweepVertexWork*(hi-lo)
	// is the degree sum of chunk [lo, hi) — the presize hint for its send
	// buffer.
	sweepWork   func(i int) int64
	densePrefix func(i int) int64 // memoized closure over the graph offsets
	candPrefix  func(i int) int64 // memoized closure over candWork

	// Sparse-activation scratch.
	sortScratch []int64 // radix-sort ping buffer

	// Sparse inbox lookaside: msgStamp[v] == step marks that v received
	// messages in the superstep stamped step, stored at val[msgLo[v]:
	// msgHi[v]]. Sparse delivery fills only receivers' entries, making the
	// superstep boundary O(sent) instead of O(n).
	msgStamp []int64
	msgLo    []int64
	msgHi    []int64
	recvList []int64
}

// bcastSlot pairs a broadcaster's stamp and value in one 16-byte slot.
// The pull sweeps probe the lookaside once per adjacency entry — random
// accesses over a vertex-length array — so keeping stamp and value on the
// same cache line costs one miss per probe instead of two.
type bcastSlot struct {
	stamp int64
	val   int64
}

// takeNbrs hands a delivery walk a neighbor decode buffer for
// graph.DecodeNeighbors, and giveNbrs takes it back when the walk ends. On
// compressed graphs a run thus keeps about one buffer per concurrently
// running range, grown to the largest degree it decoded, instead of
// allocating fresh ones per range and per pass. On flat graphs the
// buffers are CSR slices that DecodeNeighbors never writes. A nil pool
// (scratch built outside Run) hands out nil and drops returns.
func (s *runScratch) takeNbrs() []int64 {
	select {
	case b := <-s.nbrPool:
		return b
	default:
		return nil
	}
}

func (s *runScratch) giveNbrs(b []int64) {
	select {
	case s.nbrPool <- b:
	default:
	}
}

// ensureBcastLook sizes the broadcaster lookaside (stamps start at -1,
// which matches no superstep).
func (s *runScratch) ensureBcastLook(n int64) []bcastSlot {
	if int64(len(s.bcastLook)) < n {
		s.bcastLook = make([]bcastSlot, n)
		look := s.bcastLook
		par.ForChunked(int(n), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				look[i].stamp = -1
			}
		})
	}
	return s.bcastLook
}

// ensureSparseInbox sizes the lookaside arrays (stamps start at -1, which
// matches no superstep).
func (s *runScratch) ensureSparseInbox(n int64) {
	if int64(len(s.msgStamp)) >= n {
		return
	}
	s.msgStamp = make([]int64, n)
	par.FillInt64(s.msgStamp, -1)
	s.msgLo = make([]int64, n)
	s.msgHi = make([]int64, n)
}

// ensureChunks guarantees at least numChunks chunk states exist, each
// wired to the run's shared graph/costs/states and (when the direction
// layer is active) the shared visited bitmap.
func (s *runScratch) ensureChunks(numChunks int, master *engineState, visited []bool) {
	for len(s.chunks) < numChunks {
		cs := &chunkState{}
		cs.eng.graph = master.graph
		cs.eng.costs = master.costs
		cs.eng.states = master.states
		cs.eng.expand = master.expand
		cs.ctx.engine = &cs.eng
		s.chunks = append(s.chunks, cs)
	}
	for _, cs := range s.chunks[:numChunks] {
		cs.visited = visited
	}
}

// sweepBoundaries computes the compute sweep's chunk boundaries for one
// superstep: a strictly increasing []int starting at 0 and ending at count,
// a pure function of (graph offsets, active set) — never of the worker
// count. It splits the work prefix sum (degree + sweepVertexWork per item)
// into sweepTargetChunks near-equal chunks: the dense prefix is the CSR
// offsets themselves (computed once per run and cached, since the dense
// sweep is always over all n vertices); the sparse prefix is built per
// superstep over the candidate degrees. It also sets s.sweepWork so
// callers can presize per-chunk send buffers.
func (s *runScratch) sweepBoundaries(off []int64, candidates []int64, sparse bool, count int) []int {
	if count <= 0 {
		s.sweepWork = nil
		s.bounds = append(s.bounds[:0], 0)
		return s.bounds
	}
	if sparse && sweepTargetChunks(count) == 1 {
		// One chunk no matter how the weights fall — skip the per-superstep
		// candidate prefix sum, which relay-style programs (tiny active set,
		// many supersteps) would otherwise pay on every superstep.
		s.sweepWork = nil
		s.bounds = append(s.bounds[:0], 0, count)
		return s.bounds
	}
	if !sparse {
		if s.densePrefix == nil {
			s.densePrefix = func(i int) int64 {
				return off[i] + sweepVertexWork*int64(i)
			}
		}
		s.sweepWork = s.densePrefix
		if len(s.denseBounds) == 0 {
			s.denseBounds = par.WeightedBoundaries(s.denseBounds, count,
				sweepTargetChunks(count), s.densePrefix)
		}
		return s.denseBounds
	}
	// Sparse: candWork[i] = summed work of candidates [0, i), with the total
	// at candWork[count] (exclusive prefix over per-candidate weights plus a
	// trailing zero).
	s.candWork = ensureInt64(s.candWork, count+1)
	cw := s.candWork
	par.ForChunked(count, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := candidates[i]
			cw[i] = (off[v+1] - off[v]) + sweepVertexWork
		}
	})
	cw[count] = 0
	par.ParallelExclusivePrefixSum(cw)
	if s.candPrefix == nil {
		s.candPrefix = func(i int) int64 { return s.candWork[i] }
	}
	s.sweepWork = s.candPrefix
	s.bounds = par.WeightedBoundaries(s.bounds, count,
		sweepTargetChunks(count), s.candPrefix)
	return s.bounds
}

// chunkSendHint returns the presize hint for chunk [lo, hi)'s send buffer:
// its degree sum, or 0 (no hint) when the sweep built no work prefix. An
// exact bound for flood-style programs that send one message per edge; a
// floor for chattier ones.
func (s *runScratch) chunkSendHint(lo, hi int) int {
	if s.sweepWork == nil {
		return 0
	}
	return int(s.sweepWork(hi) - s.sweepWork(lo) - sweepVertexWork*int64(hi-lo))
}

// presize grows the chunk's send buffer capacity to hint entries before
// the chunk runs, so a chunk that sends ~degree-sum messages does one
// allocation instead of log₂(hint) append-doublings. Reset has already
// emptied the buffer, so discarding the old array is safe.
func (cs *chunkState) presize(hint int) {
	if hint > cap(cs.eng.sendBuf) {
		cs.eng.sendBuf = make([]Message, 0, hint)
	}
}

// mergeCounters sums the per-chunk superstep counters (serial over a few
// hundred chunks; the order is irrelevant for integer sums). sent is the
// logical message count — broadcasts count one message per edge, exactly
// what per-edge expansion would have appended.
func (s *runScratch) mergeCounters(numChunks int) (active, received, sent, unicast, extraIssue, extraLoads, extraStores, haltDelta int64) {
	for _, cs := range s.chunks[:numChunks] {
		active += cs.active
		received += cs.received
		sent += cs.eng.sent
		unicast += cs.eng.unicast
		extraIssue += cs.eng.extraIssue
		extraLoads += cs.eng.extraLoads
		extraStores += cs.eng.extraStores
		haltDelta += cs.haltDelta
	}
	return
}

// mergeVisited sums the chunks' newly-visited degree deltas for one
// superstep (an integer sum — worker- and order-independent).
func (s *runScratch) mergeVisited(numChunks int) int64 {
	var d int64
	for _, cs := range s.chunks[:numChunks] {
		d += cs.visitedDelta
	}
	return d
}

// firstTrap returns the ProgramError for the lowest-indexed chunk that
// trapped a vertex-program panic this superstep, or nil. Chunk boundaries
// are worker-independent and each chunk runs its vertices in ascending
// order, so the reported vertex is the lowest panicking vertex — identical
// at any host worker count.
func (s *runScratch) firstTrap(numChunks, step int) *ProgramError {
	for _, cs := range s.chunks[:numChunks] {
		if cs.trap != nil {
			return &ProgramError{
				Vertex:    cs.trap.vertex,
				Superstep: step,
				Phase:     "compute",
				Recovered: cs.trap.val,
				Stack:     cs.trap.stack,
			}
		}
	}
	return nil
}

// concatSends concatenates the per-chunk send buffers into dst in chunk
// index order — exactly the send order a sequential sweep would have
// produced — copying chunks in parallel.
func (s *runScratch) concatSends(dst []Message, numChunks int) []Message {
	if cap(s.sendOff) < numChunks+1 {
		s.sendOff = make([]int, numChunks+1)
	}
	s.sendOff = s.sendOff[:numChunks+1]
	total := 0
	for c := 0; c < numChunks; c++ {
		s.sendOff[c] = total
		total += len(s.chunks[c].eng.sendBuf)
	}
	s.sendOff[numChunks] = total
	if cap(dst) < total {
		dst = make([]Message, total)
	}
	dst = dst[:total]
	par.ForCoarse(numChunks, func(c int) {
		copy(dst[s.sendOff[c]:s.sendOff[c+1]], s.chunks[c].eng.sendBuf)
	})
	return dst
}

// concatBcasts concatenates the per-chunk broadcast records into dst in
// chunk index order — ascending source vertex, the order a sequential
// sweep records them in — globalizing each record's seq by the chunk's
// unicast offset (s.sendOff, so concatSends must run first). The serial
// fast path threads one shared record buffer instead and needs no merge.
func (s *runScratch) concatBcasts(dst []bcastRec, numChunks int) []bcastRec {
	if cap(s.bcastOff) < numChunks+1 {
		s.bcastOff = make([]int, numChunks+1)
	}
	s.bcastOff = s.bcastOff[:numChunks+1]
	total := 0
	for c := 0; c < numChunks; c++ {
		s.bcastOff[c] = total
		total += len(s.chunks[c].eng.bcastBuf)
	}
	s.bcastOff[numChunks] = total
	if cap(dst) < total {
		dst = make([]bcastRec, total)
	}
	dst = dst[:total]
	par.ForCoarse(numChunks, func(c int) {
		base := int64(s.sendOff[c])
		out := dst[s.bcastOff[c]:s.bcastOff[c+1]]
		for i, r := range s.chunks[c].eng.bcastBuf {
			r.seq += base
			out[i] = r
		}
	})
	return dst
}

// mergeWake concatenates the per-chunk wake lists (sparse mode). Order is
// irrelevant downstream — the worklist build stamps or sorts — but chunk
// order keeps it deterministic anyway.
func (s *runScratch) mergeWake(numChunks int) []int64 {
	s.wake = s.wake[:0]
	for _, cs := range s.chunks[:numChunks] {
		s.wake = append(s.wake, cs.wake...)
	}
	return s.wake
}

// mergeAggregates folds each chunk's aggregator partials into the run's
// persistent aggregators in chunk index order, then unseeds the partials
// for the next superstep. Chunk boundaries are worker-independent, so the
// fold order — hence the value, for any reduction — is too.
func (s *runScratch) mergeAggregates(master *engineState, numChunks int) {
	for _, cs := range s.chunks[:numChunks] {
		if cs.eng.aggregates == nil {
			continue
		}
		for name, a := range cs.eng.aggregates {
			if !a.seeded {
				continue
			}
			if master.aggregates == nil {
				master.aggregates = map[string]*aggregator{}
			}
			m, ok := master.aggregates[name]
			if !ok {
				m = &aggregator{reduce: a.reduce}
				master.aggregates[name] = m
			}
			if m.reduce == nil {
				// An aggregator restored from a checkpoint carries its value
				// but not its (unserializable) reduction; adopt the one the
				// resumed program registered.
				m.reduce = a.reduce
			}
			if !m.seeded {
				m.value, m.seeded = a.value, true
			} else {
				m.value = m.reduce(m.value, a.value)
			}
			a.seeded = false
		}
	}
}

func ensureInt64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// bcastExpandMax is the logical-message count below which a pure-broadcast
// superstep is expanded to per-edge messages instead of delivered from
// records: small supersteps are where the O(sent) sparse lookaside paths
// shine, and expansion there costs what the sequential engine always paid.
// A pure host-speed knob — both treatments deliver the same sequences.
const bcastExpandMax = 1 << 14

// maybeExpand normalizes one superstep's outgoing traffic before delivery.
// Broadcast records are kept (O(frontier) physical traffic) only when the
// superstep is pure broadcast and big enough to amortize the record paths'
// O(n) passes; a mixed Send/SendToNeighbors superstep or a small one is
// expanded to per-edge messages — reproducing the exact interleaved send
// order via each record's seq — and delivered through the legacy paths.
// logical is the logical sent count (one message per broadcast edge), so
// the expansion buffer is sized exactly.
func (s *runScratch) maybeExpand(sendBuf []Message, bcasts []bcastRec, g *graph.Graph, logical int64) ([]Message, []bcastRec) {
	if len(bcasts) == 0 {
		return sendBuf, bcasts
	}
	if len(sendBuf) == 0 && logical >= bcastExpandMax {
		return sendBuf, bcasts
	}
	return s.expandTraffic(sendBuf, bcasts, g, logical), bcasts[:0]
}

// expandTraffic merges the unicast buffer and the broadcast records into
// one per-edge message buffer in the exact order a per-edge SendToNeighbors
// would have produced: record seqs are non-decreasing positions in the
// unicast stream, so a single merge pass reconstructs the interleave. The
// old send buffer is retired into s.expandBuf for reuse next superstep.
func (s *runScratch) expandTraffic(sendBuf []Message, bcasts []bcastRec, g *graph.Graph, logical int64) []Message {
	out := s.expandBuf
	if int64(cap(out)) < logical {
		out = make([]Message, logical)
	}
	out = out[:logical]
	pos, ui := 0, 0
	nbrs := s.takeNbrs()
	for _, r := range bcasts {
		for ui < int(r.seq) {
			out[pos] = sendBuf[ui]
			pos++
			ui++
		}
		val := r.val
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			out[pos] = Message{Dest: w, Value: val}
			pos++
		}
	}
	s.giveNbrs(nbrs)
	for ui < len(sendBuf) {
		out[pos] = sendBuf[ui]
		pos++
		ui++
	}
	s.expandBuf = sendBuf
	return out
}

// serialDeliver reports whether a superstep carrying logical messages is
// delivered over a single range: always on one host worker, and below
// deliverParallelMin messages on any host. Every delivery kernel's output
// is independent of its range count, so this is a pure host-speed choice.
func serialDeliver(logical int64) bool {
	return par.Workers() == 1 || logical < deliverParallelMin
}

// deliver routes one superstep's traffic into per-vertex inboxes — dense
// mode builds the CSR arrays (inboxOff, inboxVal); sparse mode fills the
// stamped lookaside with stamp st — combining same-destination messages
// when combine is non-nil, and returns the number of delivered
// (post-combining) messages. Traffic arrives as sendBuf (per-edge unicast
// messages) plus bcasts (broadcast records, non-empty only after
// maybeExpand kept them); when records are present sendBuf is empty and
// the record paths expand them straight into the inbox. Every path
// produces the same per-vertex message sequences (the internal layout of
// inboxVal may differ), so the path choice is a pure host-speed decision;
// see deliverBcasts for the one associativity caveat.
func (s *runScratch) deliver(sendBuf []Message, bcasts []bcastRec, logical int64, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, sparse bool, st int64, dir DirectionMode) int64 {
	if !sparse {
		return s.deliverDense(sendBuf, bcasts, logical, g, n, combine, inboxOff, inboxVal, st, dir)
	}
	s.ensureSparseInbox(n)
	// The O(logical) lookaside paths win when the traffic is small relative
	// to the vertex set; once it rivals n, the CSR build's O(n) passes are
	// amortized and its branch-free counting sort is cheaper per message,
	// so route through it and mirror the offsets into the lookaside
	// afterwards.
	if serialDeliver(logical) && logical < n {
		switch {
		case len(bcasts) > 0 && combine == nil:
			return s.bcastScatterSparse(bcasts, logical, g, inboxVal, st)
		case len(bcasts) > 0:
			return s.bcastCombineSparse(bcasts, g, combine, inboxVal, st)
		case combine == nil:
			return s.seqDeliverSparse(sendBuf, n, inboxVal, st)
		default:
			return s.seqCombineDeliverSparse(sendBuf, n, combine, inboxVal, st)
		}
	}
	delivered := s.deliverDense(sendBuf, bcasts, logical, g, n, combine, inboxOff, inboxVal, st, dir)
	off := *inboxOff
	stampArr, lo, hi := s.msgStamp, s.msgLo, s.msgHi
	par.ForChunked(int(n), func(a, b int) {
		for v := a; v < b; v++ {
			if off[v+1] > off[v] {
				stampArr[v] = st
				lo[v] = off[v]
				hi[v] = off[v+1]
			}
		}
	})
	return delivered
}

// deliverDense builds the dense inbox CSR from the superstep's traffic.
func (s *runScratch) deliverDense(sendBuf []Message, bcasts []bcastRec, logical int64, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, st int64, dir DirectionMode) int64 {
	if len(bcasts) > 0 {
		return s.deliverBcasts(bcasts, logical, g, n, combine, inboxOff, inboxVal, st, dir)
	}
	if combine == nil {
		val := ensureInt64(*inboxVal, len(sendBuf))
		s.stableGroupByDest(sendBuf, n, deliverChunks(n, logical), *inboxOff, val)
		*inboxVal = val
		return int64(len(sendBuf))
	}
	if serialDeliver(logical) {
		return s.seqCombineDeliver(sendBuf, n, combine, inboxOff, inboxVal)
	}
	return s.parCombineDeliver(sendBuf, n, combine, inboxOff, inboxVal)
}

// deliverBcasts delivers a pure-broadcast superstep straight from its
// records into the dense inbox CSR — the core of the broadcast-aware
// message path. The paths and their determinism obligations:
//
//   - No combiner: scatter. Walk the records in order (ascending source),
//     scattering each record's value to its adjacency through counting-sort
//     cursors. Record order + adjacency order IS the per-edge send order,
//     so the output equals the legacy stable grouping EXACTLY — for any
//     graph, directed or not, with no assumptions on anything.
//
//   - Combiner, frontier covering at least half the adjacency, undirected
//     graph: pull-side fold. Records are stamped into a per-source
//     value lookaside, then every destination walks its own neighbor list
//     and folds the stamped neighbors' values in neighbor order — zero
//     intermediate messages. Neighbor order is a property of the graph, so
//     the fold is bit-identical at any worker count. It equals the legacy
//     send-order fold exactly when adjacency lists are sorted ascending
//     (graph.SortedAdjacency — senders run, hence send, in ascending
//     order); on unsorted graphs, and when one source broadcasts more than
//     once in a superstep (the lookaside pre-folds its values in record
//     order), equality with the per-edge path leans on the commutativity +
//     associativity Config.Combiner documents — the same contract the hub
//     prefolds rely on.
//
//   - Combiner otherwise (directed graph, or a frontier too sparse for an
//     O(edges) pull): sequential push-fold from the records, which is the
//     legacy left fold in the legacy order exactly, minus the intermediate
//     buffer.
//
// dir is the superstep's recorded direction decision (direction.go):
// DirPull selects the pull sweeps, DirPush the push scatters/folds, and
// DirAuto — the legacy engine, no direction layer — keeps the frontier-size
// combiner-pull heuristic. The decision never depends on the worker count;
// each kernel picks its range count (serialDeliver) within the decided
// direction.
func (s *runScratch) deliverBcasts(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, st int64, dir DirectionMode) int64 {
	if combine == nil {
		// Pull without a combiner: stamp the records into the lookaside and
		// let every destination read its stamped neighbors in adjacency
		// order — equal to the push scatter's (destination, record order)
		// grouping exactly when adjacency is sorted and sources are unique
		// (the pullOK gate checks sortedness; uniqueness is a property of
		// the record stream — one broadcast per vertex per superstep — and
		// the lookaside fill falls back to the scatter if it is violated).
		if dir == DirPull && s.fillBcastLookasideScatter(bcasts, n, st) {
			return s.parBcastPullScatter(g, n, inboxOff, inboxVal, st, logical)
		}
		return s.parBcastScatter(bcasts, logical, g, n, inboxOff, inboxVal)
	}
	pull := dir == DirPull
	if dir == DirAuto {
		pull = !g.Directed() && logical*2 >= g.NumEdges()
	}
	if pull {
		s.fillBcastLookaside(bcasts, combine, n, st)
		return s.parBcastPull(g, n, combine, inboxOff, inboxVal, st, logical)
	}
	return s.seqBcastCombine(bcasts, g, n, combine, inboxOff, inboxVal)
}

// parBcastScatter is the record-driven counting sort: records are split
// into degree-weighted ranges (the broadcast analogue of
// stableGroupByDest's message chunks), each range counts per-(destination,
// range) into an int32 matrix, and an exclusive prefix sum in (dest,
// range) order yields cursors that realize the unique stable grouping —
// (destination, record order, adjacency order), which is exactly the
// per-edge send order. The fan-in tracks the worker count freely for the
// same reason stableGroupByDest's does; with one range the matrix is a
// plain per-destination count.
func (s *runScratch) parBcastScatter(bcasts []bcastRec, logical int64, g *graph.Graph, n int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	nrec := len(bcasts)
	C := deliverChunks(n, logical)
	if C == 1 {
		s.bcastBnds = append(s.bcastBnds[:0], 0, nrec)
	} else {
		s.bcastWork = ensureInt64(s.bcastWork, nrec+1)
		bw := s.bcastWork
		par.ForChunked(nrec, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				bw[i] = g.Degree(bcasts[i].src) + 1
			}
		})
		bw[nrec] = 0
		par.ParallelExclusivePrefixSum(bw)
		s.bcastBnds = par.WeightedBoundaries(s.bcastBnds, nrec, C, func(i int) int64 { return bw[i] })
	}
	bnds := s.bcastBnds
	R := len(bnds) - 1
	rw := int64(R)
	need := n * rw
	if int64(cap(s.counts)) < need {
		s.counts = make([]int32, need)
	}
	s.counts = s.counts[:need]
	counts := s.counts
	par.FillInt32(counts, 0)

	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		rc := int64(r)
		nbrs := s.takeNbrs()
		for _, rec := range bcasts[lo:hi] {
			nbrs = g.DecodeNeighbors(rec.src, nbrs)
			for _, w := range nbrs {
				counts[w*rw+rc]++
			}
		}
		s.giveNbrs(nbrs)
	})
	par.ParallelExclusivePrefixSum32(counts)

	off := *inboxOff
	par.ForChunked(int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			off[v] = int64(counts[int64(v)*rw])
		}
	})
	off[n] = logical

	val := ensureInt64(*inboxVal, int(logical))
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		rc := int64(r)
		nbrs := s.takeNbrs()
		for _, rec := range bcasts[lo:hi] {
			v := rec.val
			nbrs = g.DecodeNeighbors(rec.src, nbrs)
			for _, w := range nbrs {
				i := w*rw + rc
				p := counts[i]
				counts[i] = p + 1
				val[p] = v
			}
		}
		s.giveNbrs(nbrs)
	})
	*inboxVal = val
	return logical
}

// fillBcastLookasideScatter stamps each record's value into the
// per-source lookaside for the combinerless pull scatter. Unlike the
// combining fill there is no fold to hide behind: a source appearing in
// more than one record would lose a message, so a duplicate makes the
// fill report false and delivery falls back to the push scatter — a
// deterministic, input-driven fallback (the PullProgram contract says it
// cannot happen; the check makes a contract violation safe rather than
// silently wrong).
func (s *runScratch) fillBcastLookasideScatter(bcasts []bcastRec, n, st int64) bool {
	look := s.ensureBcastLook(n)
	for _, r := range bcasts {
		if look[r.src].stamp == st {
			return false
		}
		look[r.src] = bcastSlot{stamp: st, val: r.val}
	}
	return true
}

// pullRanges returns the destination ranges of the pull sweeps: one range
// when the superstep is delivered serially, else degree-weighted ranges
// cached once per run (they depend only on the graph). Each destination's
// inbox entries come from its own neighbor walk, so the partition cannot
// perturb the output.
func (s *runScratch) pullRanges(g *graph.Graph, n, logical int64) []int {
	if serialDeliver(logical) {
		s.oneRange = [2]int{0, int(n)}
		return s.oneRange[:]
	}
	if len(s.pullBnds) == 0 {
		goff := g.Offsets()
		s.pullBnds = par.WeightedBoundaries(s.pullBnds, int(n),
			sweepTargetChunks(int(n)), func(i int) int64 {
				return goff[i] + int64(i)
			})
	}
	return s.pullBnds
}

// pullCursors returns each pull range's first inbox slot, with the inbox
// length at index len(bnds)-1. A single range needs no count pass — it
// starts at 0 and bound caps its length; otherwise count(lo, hi) sizes
// every range and an exclusive prefix sum places them.
func (s *runScratch) pullCursors(bnds []int, bound int64, count func(lo, hi int) int64) []int64 {
	numR := len(bnds) - 1
	s.rangeCnt = ensureInt64(s.rangeCnt, numR+1)
	cur := s.rangeCnt
	if numR == 1 {
		cur[0], cur[1] = 0, bound
		return cur
	}
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) { cur[r] = count(lo, hi) })
	cur[numR] = 0
	par.ExclusivePrefixSum(cur)
	return cur
}

// parBcastPullScatter is the combinerless pull sweep: every destination
// walks its own neighbor list and copies each stamped neighbor's broadcast
// value into its inbox slot, in adjacency order. On an undirected graph
// with sorted adjacency and unique record sources the per-vertex inbox
// sequence — stamped neighbors ascending — is exactly the push scatter's
// (record order is ascending source), so the output equals parBcastScatter
// bit for bit while never materializing a message.
//
// The copy is branchless: it stores every probed value at the cursor and
// advances the cursor only for stamped neighbors, since stamped density in
// a pull-worthy superstep is far from 0 or 1 and the data-dependent branch
// would mispredict on a large fraction of the edge walk. A store at the
// range's end would land on the next range's first slot, so the walk stops
// once the cursor reaches it. A single range is sized by one slack slot
// past the logical count instead, which the stores can never pass.
func (s *runScratch) parBcastPullScatter(g *graph.Graph, n int64, inboxOff *[]int64, inboxVal *[]int64, st, logical int64) int64 {
	look := s.bcastLook
	bnds := s.pullRanges(g, n, logical)
	numR := len(bnds) - 1
	cur := s.pullCursors(bnds, logical+1, func(lo, hi int) int64 {
		var cnt int64
		nbrs := s.takeNbrs()
		for v := lo; v < hi; v++ {
			nbrs = g.DecodeNeighbors(int64(v), nbrs)
			for _, w := range nbrs {
				var hit int64
				if look[w].stamp == st {
					hit = 1
				}
				cnt += hit
			}
		}
		s.giveNbrs(nbrs)
		return cnt
	})
	off := *inboxOff
	val := ensureInt64(*inboxVal, int(cur[numR]))
	var delivered int64
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		pos, end := cur[r], cur[r+1]
		nbrs := s.takeNbrs()
		for v := lo; v < hi; v++ {
			off[v] = pos
			nbrs = g.DecodeNeighbors(int64(v), nbrs)
			for _, w := range nbrs {
				if pos == end {
					break
				}
				slot := look[w]
				val[pos] = slot.val
				var hit int64
				if slot.stamp == st {
					hit = 1
				}
				pos += hit
			}
		}
		s.giveNbrs(nbrs)
		if r == numR-1 {
			delivered = pos
		}
	})
	off[n] = delivered
	*inboxVal = val
	return delivered
}

// fillBcastLookaside stamps each record's value into the per-source
// lookaside the pull fold reads. Sequential and in record order, so a
// source that broadcast more than once this superstep pre-folds its values
// deterministically (in record order; equality with the per-edge path then
// leans on the documented combiner laws — see deliverBcasts).
func (s *runScratch) fillBcastLookaside(bcasts []bcastRec, combine func(a, b int64) int64, n, st int64) {
	look := s.ensureBcastLook(n)
	for _, r := range bcasts {
		if look[r.src].stamp == st {
			look[r.src].val = combine(look[r.src].val, r.val)
		} else {
			look[r.src] = bcastSlot{stamp: st, val: r.val}
		}
	}
}

// parBcastPull is the pull-side fold: every destination walks its own
// neighbor list against the broadcaster lookaside and folds the stamped
// values in neighbor order, writing its combined inbox entry directly — no
// intermediate messages exist at any point. Each destination's fold is
// confined to its own neighbor list, so the range partition cannot perturb
// results. With several ranges a count pass (early-exiting on the first
// stamped neighbor) places each range's receivers; a single range is
// bounded by n.
func (s *runScratch) parBcastPull(g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64, st, logical int64) int64 {
	look := s.bcastLook
	bnds := s.pullRanges(g, n, logical)
	numR := len(bnds) - 1
	cur := s.pullCursors(bnds, n, func(lo, hi int) int64 {
		var cnt int64
		nbrs := s.takeNbrs()
		for v := lo; v < hi; v++ {
			nbrs = g.DecodeNeighbors(int64(v), nbrs)
			for _, w := range nbrs {
				if look[w].stamp == st {
					cnt++
					break
				}
			}
		}
		s.giveNbrs(nbrs)
		return cnt
	})
	off := *inboxOff
	val := ensureInt64(*inboxVal, int(cur[numR]))
	var delivered int64
	par.ForBoundaryChunks(bnds, func(r, lo, hi int) {
		pos := cur[r]
		nbrs := s.takeNbrs()
		for v := lo; v < hi; v++ {
			off[v] = pos
			var acc int64
			found := false
			nbrs = g.DecodeNeighbors(int64(v), nbrs)
			for _, w := range nbrs {
				if slot := look[w]; slot.stamp == st {
					if found {
						acc = combine(acc, slot.val)
					} else {
						acc = slot.val
						found = true
					}
				}
			}
			if found {
				val[pos] = acc
				pos++
			}
		}
		s.giveNbrs(nbrs)
		if r == numR-1 {
			delivered = pos
		}
	})
	off[n] = delivered
	*inboxVal = val
	return delivered
}

// seqBcastCombine is the record-driven twin of seqCombineDeliver: push
// each record's value to its adjacency, folding per destination in the
// exact legacy send order — correct for ANY combiner and for directed
// graphs, where the pull fold cannot see in-edges.
func (s *runScratch) seqBcastCombine(bcasts []bcastRec, g *graph.Graph, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	if int64(len(s.has)) < n {
		s.has = make([]bool, n)
		s.acc = make([]int64, n)
	}
	has, acc := s.has, s.acc
	var delivered int64
	nbrs := s.takeNbrs()
	for _, r := range bcasts {
		v := r.val
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			if has[w] {
				acc[w] = combine(acc[w], v)
			} else {
				has[w] = true
				acc[w] = v
				delivered++
			}
		}
	}
	s.giveNbrs(nbrs)
	val := ensureInt64(*inboxVal, int(delivered))
	off := *inboxOff
	var pos int64
	for v := int64(0); v < n; v++ {
		off[v] = pos
		if has[v] {
			val[pos] = acc[v]
			pos++
			has[v] = false
		}
	}
	off[n] = pos
	*inboxVal = val
	return delivered
}

// bcastScatterSparse is the record-driven twin of seqDeliverSparse:
// O(logical) work touching only receivers, no O(n) pass at all.
func (s *runScratch) bcastScatterSparse(bcasts []bcastRec, logical int64, g *graph.Graph, inboxVal *[]int64, st int64) int64 {
	n := int64(len(s.msgStamp))
	if cap(s.recvList) < int(n) {
		s.recvList = make([]int64, 0, n)
	}
	receivers := s.recvList[:0]
	stamp, lo, hi := s.msgStamp, s.msgLo, s.msgHi
	nbrs := s.takeNbrs()
	for _, r := range bcasts {
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			if stamp[w] != st {
				stamp[w] = st
				hi[w] = 1
				receivers = append(receivers, w)
			} else {
				hi[w]++
			}
		}
	}
	var pos int64
	for _, v := range receivers {
		cnt := hi[v]
		lo[v] = pos
		hi[v] = pos // cursor; restored to end by the scatter below
		pos += cnt
	}
	val := ensureInt64(*inboxVal, int(logical))
	for _, r := range bcasts {
		v := r.val
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			val[hi[w]] = v
			hi[w]++
		}
	}
	s.giveNbrs(nbrs)
	*inboxVal = val
	return logical
}

// bcastCombineSparse is the record-driven twin of seqCombineDeliverSparse:
// fold per destination in exact send order, touching only receivers.
func (s *runScratch) bcastCombineSparse(bcasts []bcastRec, g *graph.Graph, combine func(a, b int64) int64, inboxVal *[]int64, st int64) int64 {
	n := int64(len(s.msgStamp))
	if cap(s.recvList) < int(n) {
		s.recvList = make([]int64, 0, n)
	}
	if int64(len(s.acc)) < n {
		s.acc = make([]int64, n)
	}
	receivers := s.recvList[:0]
	stamp, lo, hi, acc := s.msgStamp, s.msgLo, s.msgHi, s.acc
	nbrs := s.takeNbrs()
	for _, r := range bcasts {
		v := r.val
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			if stamp[w] != st {
				stamp[w] = st
				acc[w] = v
				receivers = append(receivers, w)
			} else {
				acc[w] = combine(acc[w], v)
			}
		}
	}
	s.giveNbrs(nbrs)
	delivered := int64(len(receivers))
	val := ensureInt64(*inboxVal, int(delivered))
	for i, v := range receivers {
		val[i] = acc[v]
		lo[v] = int64(i)
		hi[v] = int64(i) + 1
	}
	*inboxVal = val
	return delivered
}

// seqDeliverSparse is the sparse counterpart of stableGroupByDest: it
// touches only the receivers (O(sent) work, no O(n) offset rebuild),
// writing the stamped lookaside. msgHi serves triple duty: per-destination
// count, then scatter cursor, then final end offset.
func (s *runScratch) seqDeliverSparse(sendBuf []Message, n int64, inboxVal *[]int64, st int64) int64 {
	if cap(s.recvList) < int(n) {
		s.recvList = make([]int64, 0, n)
	}
	receivers := s.recvList[:0]
	stamp, lo, hi := s.msgStamp, s.msgLo, s.msgHi
	for _, m := range sendBuf {
		if stamp[m.Dest] != st {
			stamp[m.Dest] = st
			hi[m.Dest] = 1
			receivers = append(receivers, m.Dest)
		} else {
			hi[m.Dest]++
		}
	}
	var pos int64
	for _, v := range receivers {
		cnt := hi[v]
		lo[v] = pos
		hi[v] = pos // cursor; restored to end by the scatter below
		pos += cnt
	}
	val := ensureInt64(*inboxVal, len(sendBuf))
	for _, m := range sendBuf {
		val[hi[m.Dest]] = m.Value
		hi[m.Dest]++
	}
	*inboxVal = val
	return int64(len(sendBuf))
}

// seqCombineDeliverSparse combines per destination in send order, touching
// only the receivers. acc is guarded by the stamp, so it needs no
// clearing between supersteps.
func (s *runScratch) seqCombineDeliverSparse(sendBuf []Message, n int64, combine func(a, b int64) int64, inboxVal *[]int64, st int64) int64 {
	if cap(s.recvList) < int(n) {
		s.recvList = make([]int64, 0, n)
	}
	if int64(len(s.acc)) < n {
		s.acc = make([]int64, n)
	}
	receivers := s.recvList[:0]
	stamp, lo, hi, acc := s.msgStamp, s.msgLo, s.msgHi, s.acc
	for _, m := range sendBuf {
		if stamp[m.Dest] != st {
			stamp[m.Dest] = st
			acc[m.Dest] = m.Value
			receivers = append(receivers, m.Dest)
		} else {
			acc[m.Dest] = combine(acc[m.Dest], m.Value)
		}
	}
	delivered := int64(len(receivers))
	val := ensureInt64(*inboxVal, int(delivered))
	for i, v := range receivers {
		val[i] = acc[v]
		lo[v] = int64(i)
		hi[v] = int64(i) + 1
	}
	*inboxVal = val
	return delivered
}

// seqCombineDeliver is the sequential combining path: one slot per
// destination that received anything, folded in send order. The has flags
// are cleared during the compaction sweep, restoring the all-false
// invariant without a separate zeroing pass.
func (s *runScratch) seqCombineDeliver(sendBuf []Message, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	if int64(len(s.has)) < n {
		s.has = make([]bool, n)
		s.acc = make([]int64, n)
	}
	has, acc := s.has, s.acc
	var delivered int64
	for _, m := range sendBuf {
		if has[m.Dest] {
			acc[m.Dest] = combine(acc[m.Dest], m.Value)
		} else {
			has[m.Dest] = true
			acc[m.Dest] = m.Value
			delivered++
		}
	}
	val := ensureInt64(*inboxVal, int(delivered))
	off := *inboxOff
	var pos int64
	for v := int64(0); v < n; v++ {
		off[v] = pos
		if has[v] {
			val[pos] = acc[v]
			pos++
			has[v] = false
		}
	}
	off[n] = pos
	*inboxVal = val
	return delivered
}

// maxDeliverable is the most logical messages one superstep may carry,
// whatever Config.MaxMessagesPerSuperstep allows: the counting sorts
// address the inbox through int32 cursors.
const maxDeliverable = math.MaxInt32

// deliverChunkBudget is the counting-sort scratch budget: the fan-in C
// keeps C*n int32 destination counters, and C is chosen so that array
// stays within this many entries (64 MiB) however wide the host is.
const deliverChunkBudget = 1 << 24

// deliverChunks picks the counting-sort fan-in for a superstep carrying
// logical messages: one chunk when it is delivered serially
// (serialDeliver), else enough chunks to feed the workers (2 per worker so
// the tail balances), bounded only by the scratch-memory budget rather
// than a fixed cap — a 48-core host gets 96-way fan-in on any graph up to
// ~175k vertices and degrades proportionally beyond. The sort's output is
// the unique stable grouping whatever C is, so tracking the worker count
// here cannot perturb results.
func deliverChunks(n, logical int64) int {
	if serialDeliver(logical) {
		return 1
	}
	C := par.Workers() * 2
	if n > 0 {
		if byBudget := int(deliverChunkBudget / n); byBudget < C {
			C = byBudget
		}
	}
	return max(C, 1)
}

// stableGroupByDest scatters sendBuf's values into val grouped by
// destination, preserving send order within each destination (a stable
// two-pass counting sort over fan-in C message chunks), and fills off
// (length n+1) with the group boundaries. The output is the unique stable
// grouping, independent of the internal chunking, so the fan-in may track
// the worker count freely (deliverChunks). Requires len(sendBuf) <= 2^31-1
// (maxDeliverable).
func (s *runScratch) stableGroupByDest(sendBuf []Message, n int64, C int, off, val []int64) {
	sent := len(sendBuf)
	cw := int64(C)
	need := n * cw
	if int64(cap(s.counts)) < need {
		s.counts = make([]int32, need)
	}
	s.counts = s.counts[:need]
	counts := s.counts
	par.FillInt32(counts, 0)

	mchunk := (sent + C - 1) / C
	// Pass 1: per-(destination, chunk) counts. Chunk c owns column c of
	// every destination row, so the writes are disjoint.
	par.ForCoarse(C, func(c int) {
		lo, hi := c*mchunk, (c+1)*mchunk
		if hi > sent {
			hi = sent
		}
		if lo >= hi {
			return
		}
		cc := int64(c)
		for _, m := range sendBuf[lo:hi] {
			counts[m.Dest*cw+cc]++
		}
	})

	// Exclusive prefix sum in (dest, chunk) order turns counts into start
	// cursors that realize the stable order: destination-major, then send
	// (chunk, position) order within a destination.
	par.ParallelExclusivePrefixSum32(counts)

	par.ForChunked(int(n), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			off[v] = int64(counts[int64(v)*cw])
		}
	})
	off[n] = int64(sent)

	// Pass 2: scatter through the per-(dest, chunk) cursors.
	par.ForCoarse(C, func(c int) {
		lo, hi := c*mchunk, (c+1)*mchunk
		if hi > sent {
			hi = sent
		}
		if lo >= hi {
			return
		}
		cc := int64(c)
		for _, m := range sendBuf[lo:hi] {
			i := m.Dest*cw + cc
			p := counts[i]
			counts[i] = p + 1
			val[p] = m.Value
		}
	})
}

// parCombineDeliver groups messages per destination with the stable sort,
// then folds each destination's group and compacts the folded values into
// the inbox. Two skew defenses keep a hub inbox from serializing the
// phase:
//
//   - The compaction sweep runs over destination ranges weighted by
//     message count — gOff is itself a message prefix sum, so
//     WeightedBoundaries splits it into near-equal fold-work ranges
//     instead of equal vertex-count ranges.
//
//   - A group of at least hubFoldMin messages (a hub inbox) is prefolded
//     in parallel over hubFoldSeg-sized segments, whose partials combine
//     in segment index order. The segment tree is a pure function of the
//     group length, so it is worker-independent; it equals the flat left
//     fold by the associativity Config.Combiner documents. Groups below
//     the threshold keep the exact sequential left-fold order, preserving
//     determinism for ANY combiner on non-skewed traffic.
func (s *runScratch) parCombineDeliver(sendBuf []Message, n int64, combine func(a, b int64) int64, inboxOff *[]int64, inboxVal *[]int64) int64 {
	sent := len(sendBuf)
	s.groupOff = ensureInt64(s.groupOff, int(n)+1)
	s.groupVal = ensureInt64(s.groupVal, sent)
	s.stableGroupByDest(sendBuf, n, deliverChunks(n, int64(sent)), s.groupOff, s.groupVal)
	gOff, gVal := s.groupOff, s.groupVal

	// Fold ranges weighted by messages-per-destination (+1 per vertex so
	// message-free stretches still split).
	s.foldBnds = par.WeightedBoundaries(s.foldBnds, int(n),
		sweepTargetChunks(int(n)), func(i int) int64 {
			return gOff[i] + int64(i)
		})
	numR := len(s.foldBnds) - 1
	s.rangeCnt = ensureInt64(s.rangeCnt, numR)
	s.rangeMax = ensureInt64(s.rangeMax, numR)
	rangeCnt, rangeMax := s.rangeCnt, s.rangeMax
	par.ForBoundaryChunks(s.foldBnds, func(r, lo, hi int) {
		var cnt, maxG int64
		for v := lo; v < hi; v++ {
			if g := gOff[v+1] - gOff[v]; g > 0 {
				cnt++
				if g > maxG {
					maxG = g
				}
			}
		}
		rangeCnt[r] = cnt
		rangeMax[r] = maxG
	})

	// Prefold hub groups. Detection cost is confined to ranges whose max
	// group size crossed the threshold, so the common no-hub superstep pays
	// nothing beyond the max tracking above.
	s.hubDest = s.hubDest[:0]
	for r := 0; r < numR; r++ {
		if rangeMax[r] < hubFoldMin {
			continue
		}
		for v := int64(s.foldBnds[r]); v < int64(s.foldBnds[r+1]); v++ {
			if gOff[v+1]-gOff[v] >= hubFoldMin {
				s.hubDest = append(s.hubDest, v)
			}
		}
	}
	hubs := s.hubDest
	s.hubVal = ensureInt64(s.hubVal, len(hubs))
	for i, h := range hubs {
		seg := gVal[gOff[h]:gOff[h+1]]
		numSeg := (len(seg) + hubFoldSeg - 1) / hubFoldSeg
		s.hubPart = ensureInt64(s.hubPart, numSeg)
		part := s.hubPart
		par.ForFixedChunks(len(seg), hubFoldSeg, func(si, lo, hi int) {
			acc := seg[lo]
			for j := lo + 1; j < hi; j++ {
				acc = combine(acc, seg[j])
			}
			part[si] = acc
		})
		acc := part[0]
		for si := 1; si < numSeg; si++ {
			acc = combine(acc, part[si])
		}
		s.hubVal[i] = acc
	}

	delivered := par.ExclusivePrefixSum(rangeCnt)
	off := *inboxOff
	val := ensureInt64(*inboxVal, int(delivered))
	par.ForBoundaryChunks(s.foldBnds, func(r, lo, hi int) {
		pos := rangeCnt[r]
		for v := lo; v < hi; v++ {
			off[v] = pos
			glo, ghi := gOff[v], gOff[v+1]
			if ghi > glo {
				var acc int64
				if ghi-glo >= hubFoldMin {
					hidx := sort.Search(len(hubs), func(j int) bool {
						return hubs[j] >= int64(v)
					})
					acc = s.hubVal[hidx]
				} else {
					acc = gVal[glo]
					for i := glo + 1; i < ghi; i++ {
						acc = combine(acc, gVal[i])
					}
				}
				val[pos] = acc
				pos++
			}
		}
	})
	off[n] = delivered
	*inboxVal = val
	return delivered
}

// nextWorklist builds the next superstep's sparse-activation candidate
// list — message receivers plus vertices that stayed awake, deduplicated,
// in ascending vertex order — into the candidates backing array (cap n).
// Receivers are enumerated from sendBuf destinations plus the broadcast
// records' adjacencies (logical is the combined logical message count);
// both strategies produce a sorted deduplicated set, so enumeration order
// is irrelevant.
//
// Two equivalent strategies, chosen by deterministic quantities only:
// large worklists use a parallel stamp-ordered dense sweep (ascending by
// construction, O(n)); small ones stamp-deduplicate the receivers and wake
// list and radix-sort, O(k) — the sort.Slice the sequential engine used is
// gone entirely.
func (s *runScratch) nextWorklist(candidates []int64, step int, wake []int64, delivered int64, sendBuf []Message, bcasts []bcastRec, g *graph.Graph, logical int64, stamp []int64, n int64) []int64 {
	st := int64(step)
	msgStamp := s.msgStamp
	if (delivered+int64(len(wake)))*4 >= n || logical >= n {
		// Dense sweep: mark the wake set, then collect every vertex with a
		// freshly stamped inbox or a fresh wake stamp, in index order.
		// Wake entries are unique (a vertex runs at most once per
		// superstep), so the stamp writes are disjoint.
		par.ForChunked(len(wake), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				stamp[wake[i]] = st
			}
		})
		// Ranges of the sweep schedule's chunk length; the output does not
		// depend on the partitioning at all.
		tc := sweepTargetChunks(int(n))
		rcs := max((int(n)+tc-1)/tc, 1)
		numR := (int(n) + rcs - 1) / rcs
		s.rangeCnt = ensureInt64(s.rangeCnt, numR)
		rangeCnt := s.rangeCnt
		par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
			var cnt int64
			for v := lo; v < hi; v++ {
				if msgStamp[v] == st || stamp[v] == st {
					cnt++
				}
			}
			rangeCnt[r] = cnt
		})
		k := par.ExclusivePrefixSum(rangeCnt)
		out := candidates[:k]
		par.ForFixedChunks(int(n), rcs, func(r, lo, hi int) {
			pos := rangeCnt[r]
			for v := lo; v < hi; v++ {
				if msgStamp[v] == st || stamp[v] == st {
					out[pos] = int64(v)
					pos++
				}
			}
		})
		return out
	}

	out := candidates[:0]
	for _, m := range sendBuf {
		if stamp[m.Dest] != st {
			stamp[m.Dest] = st
			out = append(out, m.Dest)
		}
	}
	nbrs := s.takeNbrs()
	for _, r := range bcasts {
		nbrs = g.DecodeNeighbors(r.src, nbrs)
		for _, w := range nbrs {
			if stamp[w] != st {
				stamp[w] = st
				out = append(out, w)
			}
		}
	}
	s.giveNbrs(nbrs)
	for _, v := range wake {
		if stamp[v] != st {
			stamp[v] = st
			out = append(out, v)
		}
	}
	s.sortScratch = ensureInt64(s.sortScratch, len(out))
	par.RadixSortInt64(out, s.sortScratch, n-1)
	return out
}
