package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"graphxmt/internal/trace"
)

// File format (version 8): an 8-byte magic, a little-endian uint32 format
// version, a little-endian uint32 CRC32 (Castagnoli) over the payload,
// then the payload. The payload is a flat little-endian encoding of
// Snapshot, fields in Encode's order, with length-prefixed slices and
// strings; every length is validated against the remaining bytes during
// decode, so a truncated or bit-flipped file yields a typed CorruptError,
// never a panic or a silently wrong state. Any other version is a
// VersionError, which ResumeLatestValid skips like a damaged file.
const (
	magic   = "GXMTCKP1"
	version = 8

	// Ext is the checkpoint file extension.
	Ext = ".gxckpt"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a checkpoint file that failed structural validation
// (bad magic, checksum mismatch, truncation, or an impossible length).
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ckpt: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// VersionError reports a checkpoint written by any format version other
// than the current one.
type VersionError struct {
	Path    string
	Version uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint %s has unsupported format version %d (supported: %d)", e.Path, e.Version, version)
}

// MismatchError reports a fingerprint field that differs between a
// checkpoint and the run trying to resume from it.
type MismatchError struct {
	Field string
	Got   string // value stored in the checkpoint
	Want  string // value of the resuming run
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint %s mismatch: checkpoint has %q, run has %q", e.Field, e.Got, e.Want)
}

// WriteError reports a failed checkpoint write. The temp file is removed
// and any previous checkpoint is left intact.
type WriteError struct {
	Path string
	Err  error
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("ckpt: writing checkpoint %s: %v", e.Path, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) int64s(s []int64) {
	e.i64(int64(len(s)))
	for _, v := range s {
		e.i64(v)
	}
}

func (e *encoder) bools(s []bool) {
	e.i64(int64(len(s)))
	for _, v := range s {
		e.boolean(v)
	}
}

type decoder struct {
	data []byte
	pos  int
	path string
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptError{Path: d.path, Reason: fmt.Sprintf(format, args...)}
	}
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.data)-d.pos < n {
		d.fail("truncated at offset %d (need %d bytes, have %d)", d.pos, n, len(d.data)-d.pos)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.data[d.pos]
	d.pos++
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.pos:])
	d.pos += 4
	return v
}

func (d *decoder) i64() int64 {
	if !d.need(8) {
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

func (d *decoder) boolean() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("invalid boolean at offset %d", d.pos-1)
		return false
	}
}

func (d *decoder) str() string {
	n := int(d.u32())
	if !d.need(n) {
		return ""
	}
	s := string(d.data[d.pos : d.pos+n])
	d.pos += n
	return s
}

// length reads a slice length and validates it against the bytes that a
// slice of elemSize-byte elements would occupy.
func (d *decoder) length(elemSize int) int {
	n := d.i64()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > int64(len(d.data)-d.pos)/int64(elemSize) {
		d.fail("impossible slice length %d at offset %d", n, d.pos-8)
		return 0
	}
	return int(n)
}

func (d *decoder) int64s() []int64 {
	n := d.length(8)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = d.i64()
	}
	return s
}

func (d *decoder) bools() []bool {
	n := d.length(1)
	if d.err != nil || n == 0 {
		return nil
	}
	s := make([]bool, n)
	for i := range s {
		s[i] = d.boolean()
	}
	return s
}

// Encode serializes the snapshot payload (without magic/version/checksum —
// WriteFile adds the envelope).
func Encode(s *Snapshot) []byte {
	e := &encoder{buf: make([]byte, 0, 64+8*(len(s.States)+len(s.MsgDest)+len(s.MsgVal))+len(s.Halted))}
	e.u32(s.FP.GraphCRC)
	e.i64(s.FP.Vertices)
	e.i64(s.FP.Edges)
	e.str(s.FP.Program)
	e.str(s.FP.Label)
	e.boolean(s.FP.Combiner)
	e.boolean(s.FP.Sparse)
	e.str(s.FP.Direction)
	e.i64(s.FP.Retries)
	e.str(s.FP.Rep)
	e.str(s.FP.Lanes)
	e.i64(s.FP.MaxSupersteps)
	e.i64(s.FP.MaxMessages)
	e.u32(s.FP.CostsCRC)

	e.i64(s.Step)
	e.i64(s.Live)
	e.int64s(s.States)
	e.bools(s.Halted)
	e.int64s(s.MsgDest)
	e.int64s(s.MsgVal)
	e.int64s(s.BcastSrc)
	e.int64s(s.BcastVal)
	e.int64s(s.BcastSeq)
	e.int64s(s.ActivePerStep)
	e.int64s(s.MessagesPerStep)
	e.int64s(s.DeliveredPerStep)
	e.int64s(s.Directions)
	e.bools(s.Visited)
	e.int64s(s.RetriesPerStep)
	e.int64s(s.Aux)

	encAggs := func(aggs []Aggregate) {
		e.i64(int64(len(aggs)))
		for _, a := range aggs {
			e.str(a.Name)
			e.i64(a.Value)
			e.boolean(a.Seeded)
		}
	}
	encAggs(s.Aggregates)
	encAggs(s.PrevAggregates)

	e.i64(int64(len(s.Phases)))
	for _, p := range s.Phases {
		e.str(p.Name)
		e.i64(int64(p.Index))
		e.i64(p.Tasks)
		e.i64(p.Issue)
		e.i64(p.Loads)
		e.i64(p.Stores)
		e.i64(p.MaxTask)
		e.u8(uint8(trace.NumHotClasses))
		for _, h := range p.Hot {
			e.i64(h)
		}
		e.i64(p.Barriers)
	}
	return e.buf
}

// Decode parses a snapshot payload. path is used only in error messages.
func Decode(payload []byte, path string) (*Snapshot, error) {
	d := &decoder{data: payload, path: path}
	s := &Snapshot{}
	s.FP.GraphCRC = d.u32()
	s.FP.Vertices = d.i64()
	s.FP.Edges = d.i64()
	s.FP.Program = d.str()
	s.FP.Label = d.str()
	s.FP.Combiner = d.boolean()
	s.FP.Sparse = d.boolean()
	s.FP.Direction = d.str()
	s.FP.Retries = d.i64()
	s.FP.Rep = d.str()
	s.FP.Lanes = d.str()
	s.FP.MaxSupersteps = d.i64()
	s.FP.MaxMessages = d.i64()
	s.FP.CostsCRC = d.u32()

	s.Step = d.i64()
	s.Live = d.i64()
	s.States = d.int64s()
	s.Halted = d.bools()
	s.MsgDest = d.int64s()
	s.MsgVal = d.int64s()
	s.BcastSrc = d.int64s()
	s.BcastVal = d.int64s()
	s.BcastSeq = d.int64s()
	s.ActivePerStep = d.int64s()
	s.MessagesPerStep = d.int64s()
	s.DeliveredPerStep = d.int64s()
	s.Directions = d.int64s()
	s.Visited = d.bools()
	s.RetriesPerStep = d.int64s()
	// Program-defined length — no structural cross-check is possible
	// beyond the slice-length sanity d.length already applies; the engine
	// checks the length against the resuming program.
	s.Aux = d.int64s()

	decAggs := func() []Aggregate {
		n := d.length(13) // name len + value + seeded lower-bounds an entry
		if d.err != nil || n == 0 {
			return nil
		}
		aggs := make([]Aggregate, n)
		for i := range aggs {
			aggs[i] = Aggregate{Name: d.str(), Value: d.i64(), Seeded: d.boolean()}
		}
		return aggs
	}
	s.Aggregates = decAggs()
	s.PrevAggregates = decAggs()

	nPh := d.length(4)
	if d.err == nil && nPh > 0 {
		s.Phases = make([]trace.PhaseState, nPh)
		for i := range s.Phases {
			p := &s.Phases[i]
			p.Name = d.str()
			p.Index = int(d.i64())
			p.Tasks = d.i64()
			p.Issue = d.i64()
			p.Loads = d.i64()
			p.Stores = d.i64()
			p.MaxTask = d.i64()
			if nh := d.u8(); d.err == nil && nh != uint8(trace.NumHotClasses) {
				d.fail("phase %d has %d hot classes, want %d", i, nh, trace.NumHotClasses)
			}
			for c := range p.Hot {
				p.Hot[c] = d.i64()
			}
			p.Barriers = d.i64()
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.data) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("%d trailing bytes after payload", len(d.data)-d.pos)}
	}
	// Structural cross-checks: catch damage that survives within a field.
	if int64(len(s.States)) != s.FP.Vertices || int64(len(s.Halted)) != s.FP.Vertices {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("state arrays sized %d/%d, fingerprint says %d vertices", len(s.States), len(s.Halted), s.FP.Vertices)}
	}
	if len(s.MsgDest) != len(s.MsgVal) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("message queue slices differ in length (%d dests, %d values)", len(s.MsgDest), len(s.MsgVal))}
	}
	for i, v := range s.MsgDest {
		if v < 0 || v >= s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("message %d addressed to out-of-range vertex %d", i, v)}
		}
	}
	if len(s.BcastSrc) != len(s.BcastVal) || len(s.BcastSrc) != len(s.BcastSeq) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record slices differ in length (%d sources, %d values, %d seqs)", len(s.BcastSrc), len(s.BcastVal), len(s.BcastSeq))}
	}
	var prevSeq int64
	for i, v := range s.BcastSrc {
		if v < 0 || v >= s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record %d from out-of-range vertex %d", i, v)}
		}
		if q := s.BcastSeq[i]; q < prevSeq || q > int64(len(s.MsgDest)) {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("broadcast record %d has invalid seq %d (previous %d, %d unicasts)", i, q, prevSeq, len(s.MsgDest))}
		} else {
			prevSeq = q
		}
	}
	want := s.Step + 1
	if int64(len(s.ActivePerStep)) != want || int64(len(s.MessagesPerStep)) != want || int64(len(s.DeliveredPerStep)) != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("per-step counters sized %d/%d/%d, want %d (step %d)", len(s.ActivePerStep), len(s.MessagesPerStep), len(s.DeliveredPerStep), want, s.Step)}
	}
	// Retry counts are empty (supervisor inactive) or cover every
	// completed superstep with non-negative values.
	if len(s.RetriesPerStep) > 0 {
		if int64(len(s.RetriesPerStep)) != want {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("retry counters sized %d, want %d (step %d)", len(s.RetriesPerStep), want, s.Step)}
		}
		for i, v := range s.RetriesPerStep {
			if v < 0 {
				return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("retry counter %d is negative (%d)", i, v)}
			}
		}
	}
	// Direction-layer arrays are present together or not at all; when
	// present, the decision sequence covers every completed superstep with
	// push/pull values and the visited bitmap is per-vertex.
	if (len(s.Directions) == 0) != (len(s.Visited) == 0) {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction arrays mismatched (%d decisions, %d visited)", len(s.Directions), len(s.Visited))}
	}
	if len(s.Directions) > 0 {
		if int64(len(s.Directions)) != want {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction sequence sized %d, want %d (step %d)", len(s.Directions), want, s.Step)}
		}
		if int64(len(s.Visited)) != s.FP.Vertices {
			return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("visited bitmap sized %d, fingerprint says %d vertices", len(s.Visited), s.FP.Vertices)}
		}
		for i, v := range s.Directions {
			if v != 1 && v != 2 {
				return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("direction %d has invalid value %d (want 1=push or 2=pull)", i, v)}
			}
		}
	}
	var live int64
	for _, h := range s.Halted {
		if !h {
			live++
		}
	}
	if live != s.Live {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("halted set has %d live vertices, header says %d", live, s.Live)}
	}
	return s, nil
}

// FileName returns the canonical file name for the checkpoint at the given
// superstep boundary.
func FileName(step int64) string {
	return fmt.Sprintf("ckpt-%09d%s", step, Ext)
}

// EmergencyFileName returns the file name used for the emergency
// checkpoint written when a vertex program panics during superstep step.
func EmergencyFileName(step int64) string {
	return fmt.Sprintf("emergency-%09d%s", step, Ext)
}

// WriteFile atomically writes the snapshot to dir/FileName(s.Step): encode
// into a temp file in dir, sync, rename. wrap (the fault-injection hook)
// may interpose a failing writer; any failure removes the temp file,
// leaves existing checkpoints untouched, and returns a WriteError.
func WriteFile(dir string, s *Snapshot, name string, hooks *Hooks) (string, error) {
	final := filepath.Join(dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", &WriteError{Path: final, Err: err}
	}
	if hooks != nil && hooks.TornWrite != nil && hooks.TornWrite(s.Step) {
		return tornWrite(final, s)
	}
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", &WriteError{Path: final, Err: err}
	}
	tmp := f.Name()
	failed := func(err error) (string, error) {
		f.Close()
		os.Remove(tmp)
		return "", &WriteError{Path: final, Err: err}
	}
	payload := Encode(s)
	var w io.Writer = f
	if hooks != nil && hooks.WrapWrite != nil {
		w = hooks.WrapWrite(s.Step, f)
	}
	var hdr [16]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return failed(err)
	}
	if _, err := w.Write(payload); err != nil {
		return failed(err)
	}
	if err := f.Sync(); err != nil {
		return failed(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", &WriteError{Path: final, Err: err}
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", &WriteError{Path: final, Err: err}
	}
	return final, nil
}

// tornWrite simulates a crash mid-write on a filesystem without atomic
// rename (Hooks.TornWrite): a valid header followed by half the payload
// lands directly at the final name, and the write reports success so the
// run carries on oblivious. A later Load of the file fails its CRC check.
func tornWrite(final string, s *Snapshot) (string, error) {
	payload := Encode(s)
	var hdr [16]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(payload, castagnoli))
	torn := append(hdr[:], payload[:len(payload)/2]...)
	if err := os.WriteFile(final, torn, 0o644); err != nil {
		return "", &WriteError{Path: final, Err: err}
	}
	return final, nil
}

// Load reads, validates, and decodes the checkpoint at path.
func Load(path string) (*Snapshot, error) {
	payload, err := readPayload(path)
	if err != nil {
		return nil, err
	}
	return Decode(payload, path)
}

// readPayload reads the checkpoint at path and returns its payload once
// the header shape, magic, version, and payload CRC all check out.
func readPayload(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 16 {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("file is %d bytes, shorter than the %d-byte header", len(data), 16)}
	}
	if string(data[:8]) != magic {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("bad magic %q", data[:8])}
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return nil, &VersionError{Path: path, Version: v}
	}
	want := binary.LittleEndian.Uint32(data[12:16])
	payload := data[16:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum mismatch: header %08x, payload %08x", want, got)}
	}
	return payload, nil
}

// LatestPath returns the highest-step periodic checkpoint in dir, or ""
// when dir contains none (emergency checkpoints are not considered — they
// capture the boundary before a crashed superstep and the caller should
// name them explicitly to resume from one).
func LatestPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestStep := "", int64(-1)
	for _, e := range entries {
		var step int64
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%d"+Ext, &step); err != nil || n != 1 {
			continue
		}
		if step > bestStep {
			best, bestStep = filepath.Join(dir, e.Name()), step
		}
	}
	return best, nil
}

// Verify cheaply checks the structural integrity of the checkpoint at
// path: header shape, magic, current version, and payload CRC. It does not
// decode the payload or compare fingerprints — a nil return means the
// bytes on disk are the bytes that were written, which is the guarantee
// Prune and the fallback chain need.
func Verify(path string) error {
	_, err := readPayload(path)
	return err
}

// NoValidCheckpointError reports that ResumeLatestValid walked every
// periodic checkpoint in a directory without finding one that loads.
type NoValidCheckpointError struct {
	// Dir is the directory that was searched.
	Dir string
	// Skipped is the number of damaged checkpoints passed over.
	Skipped int
}

func (e *NoValidCheckpointError) Error() string {
	if e.Skipped == 0 {
		return fmt.Sprintf("ckpt: no periodic checkpoints in %s", e.Dir)
	}
	return fmt.Sprintf("ckpt: no valid periodic checkpoint in %s (%d damaged snapshots skipped)", e.Dir, e.Skipped)
}

// ResumeLatestValid walks dir's periodic checkpoints newest-first and
// returns the first one that loads and matches the fingerprint, along
// with its path. Structurally damaged snapshots — CorruptError (torn or
// bit-flipped files, truncation) and VersionError — are skipped, each
// reported through onSkip (may be nil), so a run whose newest checkpoint
// was lost mid-write falls back to the one before it. A fingerprint
// mismatch is a hard error: the snapshot is intact, it just belongs to a
// different run, and silently skipping it would resume wildly stale
// state. When no checkpoint survives the walk the error is a
// *NoValidCheckpointError.
func ResumeLatestValid(dir string, want Fingerprint, onSkip func(path string, err error)) (*Snapshot, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	var steps []int64
	for _, e := range entries {
		var step int64
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%d"+Ext, &step); err == nil && n == 1 {
			steps = append(steps, step)
		}
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	skipped := 0
	for _, step := range steps {
		path := filepath.Join(dir, FileName(step))
		s, err := Load(path)
		if err != nil {
			var ce *CorruptError
			var ve *VersionError
			if errors.As(err, &ce) || errors.As(err, &ve) {
				skipped++
				if onSkip != nil {
					onSkip(path, err)
				}
				continue
			}
			return nil, "", err
		}
		if err := s.FP.Check(want); err != nil {
			return nil, "", err
		}
		return s, path, nil
	}
	return nil, "", &NoValidCheckpointError{Dir: dir, Skipped: skipped}
}

// Prune removes all but the newest keep periodic checkpoints from dir.
// keep <= 0 keeps everything. Emergency checkpoints are never removed,
// and neither is the newest *valid* periodic checkpoint: when the most
// recent write was torn or bit-flipped, the retention window must not
// age out the snapshot the fallback chain will actually resume from.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var steps []int64
	for _, e := range entries {
		var step int64
		if n, err := fmt.Sscanf(e.Name(), "ckpt-%d"+Ext, &step); err == nil && n == 1 {
			steps = append(steps, step)
		}
	}
	if len(steps) <= keep {
		return nil
	}
	sort.Slice(steps, func(i, j int) bool { return steps[i] > steps[j] })
	// Find the newest structurally valid snapshot. Only checkpoints inside
	// the doomed tail need verification once a valid one is known to sit
	// inside the retention window.
	newestValid := int64(-1)
	for _, step := range steps {
		if Verify(filepath.Join(dir, FileName(step))) == nil {
			newestValid = step
			break
		}
	}
	for _, step := range steps[keep:] {
		if step == newestValid {
			continue
		}
		if err := os.Remove(filepath.Join(dir, FileName(step))); err != nil {
			return err
		}
	}
	return nil
}
