package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"

	"graphxmt/internal/gen"
	"graphxmt/internal/graph"
	"graphxmt/internal/graphio"
)

// A run builds its graph file at least minSetupReps times, and more (up to
// maxSetupReps) until setupSeconds have been spent; setup_s is the median.
const (
	minSetupReps = 3
	maxSetupReps = 9
	setupSeconds = 4.0
)

// setupResult describes the graph file the measured phase opens.
type setupResult struct {
	path     string
	setupS   []float64            // one per repetition
	layers   map[string][]float64 // gen/graph/graphio set-up spans, s
	fileMiB  float64
	crc      uint32
	resident float64 // graph.resident_mib, computed from array sizes
	vertices int64
	edges    int64
}

func graphFileName(w *workload, seed uint64) string {
	ext := ".gxmt"
	if w.rep == graph.RepCompressed {
		ext = ".csr2"
	}
	return fmt.Sprintf("%s-seed%d%s", w.name, seed, ext)
}

// setup generates the workload's RMAT graph, builds it, compresses it
// where the workload wants, and writes the file, several times. Each
// repetition writes the same bytes to the same path.
func setup(w *workload, seed uint64, dir string, tr *tracer) (*setupResult, error) {
	res := &setupResult{
		path:   filepath.Join(dir, graphFileName(w, seed)),
		layers: map[string][]float64{},
	}
	var g *graph.Graph
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || sum(res.setupS) < setupSeconds); rep++ {
		g = nil
		debug.FreeOSMemory() // each repetition starts from the same heap
		root := tr.begin("setup", 0)
		step := func(name string, fn func() error) error {
			m := tr.begin(name, root.id)
			err := fn()
			res.layers[name] = append(res.layers[name], tr.end(m).Seconds())
			return err
		}
		var edges []graph.Edge
		var n int64
		err := step("gen.rmat_s", func() (err error) {
			edges, n, err = gen.RMATEdges(gen.RMATConfig{Scale: w.scale, EdgeFactor: edgeFactor, Seed: seed})
			return err
		})
		if err == nil {
			err = step("graph.build_s", func() (err error) {
				g, err = graph.Build(n, edges, graph.BuildOptions{SortAdjacency: true})
				return err
			})
		}
		edges = nil
		if err == nil && w.rep == graph.RepCompressed {
			err = step("graph.compress_s", func() (err error) {
				g, err = graph.Compress(g)
				return err
			})
		}
		if err == nil {
			err = step("graphio.write_s", func() error {
				if w.rep == graph.RepCompressed {
					return graphio.WriteCSR2File(res.path, g)
				}
				return graphio.WriteBinaryFile(res.path, g)
			})
		}
		if err != nil {
			return nil, fmt.Errorf("setup %s: %w", w.name, err)
		}
		res.setupS = append(res.setupS, tr.end(root).Seconds())
	}
	data, err := os.ReadFile(res.path)
	if err != nil {
		return nil, err
	}
	res.fileMiB = float64(len(data)) / mib
	res.crc = crc32.ChecksumIEEE(data)
	res.resident = residentMiB(g)
	res.vertices, res.edges = g.NumVertices(), g.NumEdges()
	return res, nil
}

// residentMiB is the graph's array footprint: offsets plus either the flat
// adjacency or the compressed byte offsets and varint stream. It is
// computed from array lengths, not measured.
func residentMiB(g *graph.Graph) float64 {
	b := 8 * int64(len(g.Offsets())+len(g.Adjacency())+len(g.Weights())+len(g.CompressedOffsets()))
	b += int64(len(g.CompressedBlob()))
	return float64(b) / mib
}
