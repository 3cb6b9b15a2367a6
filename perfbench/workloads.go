package main

import (
	"time"

	"gmeansmr"
)

// workload is one input set and configuration of the user's path:
// Clusterer.Run over a FromFile source, then a Server answering the
// resulting model over loopback HTTP. Every workload walks the whole path
// so every metric has a value; they differ in which half dominates.
type workload struct {
	name, why string
	format    string // "text" or "gmpb": the input file's record format
	data      mixtureSpec
	algorithm gmeansmr.Algorithm
	backend   gmeansmr.Backend
	kMin      int // multi-k candidate range
	kMax      int
	criterion gmeansmr.Criterion
}

const (
	// burstTime is how long the trained model is served after each timed
	// Run.
	burstTime = 1500 * time.Millisecond
	// ariFloor is the lowest acceptable adjusted Rand index of the
	// benchmark's own nearest-centre assignment against the true labels.
	ariFloor = 0.9
	// batchSize is the number of points in one /v1/assign/batch request
	// and reloadEvery the number of batch requests between model reloads.
	batchSize   = 1024
	reloadEvery = 64
)

// trainSeed is the seed of every workload's training mixture; --seed draws
// the serving queries. The number of G-means rounds, and with it the work
// of a Run, moves with the points themselves: on Table 1's shape the
// seeds gave 34 to 43 dataset reads, and reordering one fixed set of
// points gave 34 to 46. A seed-drawn mixture would make run_s measure the
// mixture as much as the program, so the mixture is fixed.
const trainSeed = 1

// nodes is the simulated cluster size: one node per core of the machine
// the reference figures were taken on.
const nodes = 2

// The paper's Table 1 shape: d=10, true k=100, well-separated Gaussians.
var table1 = mixtureSpec{n: 200_000, dim: 10, k: 100, span: 100, minSep: 10}

var workloads = []*workload{
	{
		name:   "gmeans-text-local",
		why:    "the paper's own run: MR G-means on a text file of Table 1's shape; staging, kfnc spill and the AD test all weigh",
		format: "text", data: table1,
		algorithm: gmeansmr.AlgorithmGMeansMR, backend: gmeansmr.BackendLocal,
	},
	{
		name:   "multik-gmpb-local",
		why:    "multi-k-means, k=1..32 x 10 iterations on binary input, k by the jump method: kernel, combiner and k-selection; no kfnc or normality test",
		format: "gmpb", data: mixtureSpec{n: 100_000, dim: 10, k: 16, span: 100, minSep: 10},
		algorithm: gmeansmr.AlgorithmMultiK, backend: gmeansmr.BackendLocal, kMin: 1, kMax: 32,
		// The default elbow criterion picks a spurious knee wherever the
		// WCSS curve rises between neighbouring k, which it does on some
		// mixtures (see README.md); the jump method chose the true k on
		// every seed tried.
		criterion: gmeansmr.CriterionJump,
	},
	{
		name:   "gmeans-gmpb-proc",
		why:    "Table 1's mixture as a binary file on the proc backend with two worker processes: the only path through mrdist",
		format: "gmpb", data: table1,
		algorithm: gmeansmr.AlgorithmGMeansMR, backend: gmeansmr.BackendProc,
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

func (w *workload) options(backend gmeansmr.Backend, extra ...gmeansmr.Option) []gmeansmr.Option {
	opts := []gmeansmr.Option{
		gmeansmr.WithSeed(1), gmeansmr.WithNodes(nodes),
		gmeansmr.WithAlgorithm(w.algorithm), gmeansmr.WithBackend(backend),
	}
	if w.algorithm == gmeansmr.AlgorithmMultiK {
		opts = append(opts, gmeansmr.WithKRange(w.kMin, w.kMax, 1), gmeansmr.WithCriterion(w.criterion))
	}
	return append(opts, extra...)
}
