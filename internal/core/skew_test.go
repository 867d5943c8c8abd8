package core_test

// Degree-skew determinism: the worst imbalance a sweep can face is a star
// graph, whose hub has degree N-1 while every other vertex has degree 1.
// The degree-weighted sweep schedule isolates the hub into its own narrow
// chunk, and the engine's invariant must hold: Result and trace profile
// bit-identical at any worker count. The hub also funnels >= hubFoldMin
// messages into one inbox, exercising the combining path's segment
// prefold.

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"graphxmt/internal/bspalg"
	"graphxmt/internal/ckpt"
	"graphxmt/internal/core"
	"graphxmt/internal/faultinject"
	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
)

// skewN is the star size: large enough that the hub's inbox (N-1 combined
// messages) crosses both the parallel-delivery threshold and the hub
// prefold threshold, and that sweeps split into many chunks.
const skewN = 1 << 14

func skewCases(g *graph.Graph) []struct {
	name string
	mk   func() core.Config
} {
	return []struct {
		name string
		mk   func() core.Config
	}{
		{"bfs/dense", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 1}}
		}},
		{"bfs/sparse", func() core.Config {
			return core.Config{Program: bspalg.BFSProgram{Source: 1}, SparseActivation: true}
		}},
		{"cc/combiner", func() core.Config {
			// Hub inbox: every leaf sends to vertex 0 each superstep, so the
			// combining path sees one group of N-1 messages.
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
		}},
		{"cc/sparse-combiner", func() core.Config {
			return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min, SparseActivation: true}
		}},
		{"pagerank/combiner", func() core.Config {
			return core.Config{
				Program:  bspalg.PageRankProgram{DampingMilli: 850, Rounds: 10},
				Combiner: core.Sum,
			}
		}},
	}
}

// TestSkewDeterminismStar asserts bit-identical Result + profile at 1/3/8
// workers on the star graph.
func TestSkewDeterminismStar(t *testing.T) {
	g := gen.Star(skewN)
	for _, tc := range skewCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			baseRes, basePh := runDet(t, g, 1, tc.mk)
			for _, w := range []int{3, 8} {
				res, ph := runDet(t, g, w, tc.mk)
				if !reflect.DeepEqual(baseRes, res) {
					t.Fatalf("w=%d: Result differs from 1-worker run\n  supersteps %d vs %d\n  active %v vs %v",
						w, baseRes.Supersteps, res.Supersteps,
						baseRes.ActivePerStep, res.ActivePerStep)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}

// TestSkewDeterminismPowerLaw runs the same matrix on a Barabási–Albert
// power-law graph, so the guarantee does not hinge on the star's extreme
// structure.
func TestSkewDeterminismPowerLaw(t *testing.T) {
	g, err := gen.BarabasiAlbert(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range skewCases(g) {
		t.Run(tc.name, func(t *testing.T) {
			baseRes, basePh := runDet(t, g, 1, tc.mk)
			res, ph := runDet(t, g, 8, tc.mk)
			if !reflect.DeepEqual(baseRes, res) {
				t.Fatalf("Result differs at w=8")
			}
			comparePhases(t, basePh, ph)
		})
	}
}

// TestSkewRecoveryStar kills a CC run on the star at every superstep
// boundary and resumes it: resumed Result and profile must match the
// uninterrupted run bit-for-bit, at multiple worker counts (the
// resume-mid-run case on a skewed graph).
func TestSkewRecoveryStar(t *testing.T) {
	g := gen.Star(skewN)
	mk := func() core.Config {
		return core.Config{Program: bspalg.CCProgram{}, Combiner: core.Min}
	}
	for _, w := range []int{1, 8} {
		t.Run(fmt.Sprintf("w=%d", w), func(t *testing.T) {
			base, basePh, err := runRec(g, w, mk())
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= base.Supersteps-2; k++ {
				dir := t.TempDir()
				plan := &faultinject.Plan{KillAt: map[int64]bool{int64(k): true}}
				cfg := mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir, Hooks: plan.Hooks()}
				_, _, err := runRec(g, w, cfg)
				var ie *core.InterruptedError
				if !errors.As(err, &ie) {
					t.Fatalf("kill@%d: want InterruptedError, got %v", k, err)
				}

				cfg = mk()
				cfg.Checkpoint = &ckpt.Policy{Dir: dir}
				cfg.Resume = ie.CheckpointPath
				res, ph, err := runRec(g, w, cfg)
				if err != nil {
					t.Fatalf("resume from kill@%d: %v", k, err)
				}
				if !reflect.DeepEqual(base, res) {
					t.Fatalf("kill@%d: resumed Result differs from uninterrupted run", k)
				}
				comparePhases(t, basePh, ph)
			}
		})
	}
}
