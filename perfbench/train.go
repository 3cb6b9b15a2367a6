package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"time"

	"gmeansmr"
)

// minRuns is the fewest timed Runs a run makes, however short its window.
const minRuns = 3

// userPath walks the user's path: Runs of the workload's Clusterer over its
// input file, each followed by a burst of serving the trained model, until
// the window is spent. A warm-up Run comes first and is not timed; its
// result is the reference every timed Run must reproduce bit for bit and
// the model that is served. With tracing on, the timed Runs are traced
// and yield the per-layer metrics.
func (b *bench) userPath(in *inputs) error {
	src := gmeansmr.FromFile(in.path)
	c, err := gmeansmr.New(b.w.options(b.w.backend)...)
	if err != nil {
		return err
	}
	// On the proc backend the warm-up is a local-backend Run, so every
	// timed Run is checked against the other backend; the workers are
	// fresh processes in every Run either way.
	warm, err := gmeansmr.New(b.w.options(gmeansmr.BackendLocal)...)
	if err != nil {
		return err
	}
	first, _, _, _, err := b.timedRun(warm, src)
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	assign := b.checkTraining(in, first)
	r, err := b.startServing(in, first)
	if err != nil {
		return err
	}

	// A cycle (one Run and one burst) starts only if one as long as the
	// longest so far still ends inside the window.
	deadline := time.Now().Add(b.window)
	var cycle time.Duration
	var walls, rawWalls, cpus []float64
	var layers []map[string]float64
	for n := 0; n < minRuns || time.Now().Add(cycle).Before(deadline); n++ {
		cycleStart := time.Now()
		cl, trace, reg := c, (*bytes.Buffer)(nil), (*gmeansmr.Registry)(nil)
		if b.trace {
			trace, reg = &bytes.Buffer{}, gmeansmr.NewRegistry()
			if cl, err = gmeansmr.New(b.w.options(b.w.backend, gmeansmr.WithTraceJSON(trace), gmeansmr.WithObserver(reg))...); err != nil {
				return err
			}
		}
		// Each Run and each burst starts from a collected heap, so neither
		// pays for the other's garbage.
		runtime.GC()
		res, wall, cpu, stolen, err := b.timedRun(cl, src)
		if err == nil {
			b.check(sameResult(first, res), "timed run %d differs from the %s warm-up run", n+1, gmeansmr.BackendLocal)
			walls, cpus = append(walls, wall.Seconds()*(1-stolen)), append(cpus, cpu.Seconds())
			rawWalls = append(rawWalls, wall.Seconds())
			if b.trace {
				l, err := b.layerTimes(trace, res, reg)
				if err != nil {
					return err
				}
				layers = append(layers, l)
			}
		}
		runtime.GC()
		b.burst(r)
		cycle = max(cycle, time.Since(cycleStart))
	}
	if err := b.stopServing(r); err != nil {
		return err
	}
	if len(walls) == 0 {
		return fmt.Errorf("every timed run failed")
	}
	b.set("run_s", "s", median(walls))
	b.runWall = median(rawWalls)
	b.set("cpu_s", "s", median(cpus))
	b.set("dataset_reads", "count", float64(first.Counters[gmeansmr.CounterDatasetReads]))
	b.set("shuffle_bytes", "bytes", float64(first.Counters[gmeansmr.CounterShuffleBytes]))
	if b.trace {
		b.medianLayers(layers)
		b.trainingProbes(in, first, assign)
		b.serveProbes(in, r)
	}
	return nil
}

// timedRun makes one Run and counts it as an operation. It returns the
// Run's wall and CPU time and the share of the machine's CPU time other
// guests stole meanwhile.
func (b *bench) timedRun(c *gmeansmr.Clusterer, src gmeansmr.DataSource) (*gmeansmr.Result, time.Duration, time.Duration, float64, error) {
	b.attempted++
	stolen, cpu0, start := startSteal(), cpuTime(), time.Now()
	res, err := c.Run(context.Background(), src)
	wall, cpu := time.Since(start), cpuTime()-cpu0
	if err != nil {
		b.failed++
		return nil, 0, 0, 0, err
	}
	return res, wall, cpu, stolen.share(), nil
}

// sameResult reports whether two Runs produced bit-identical centres and
// identical counters.
func sameResult(a, b *gmeansmr.Result) bool {
	if a.K != b.K || len(a.Centers) != len(b.Centers) || !maps.Equal(a.Counters, b.Counters) {
		return false
	}
	for i := range a.Centers {
		for d := range a.Centers[i] {
			if math.Float64bits(a.Centers[i][d]) != math.Float64bits(b.Centers[i][d]) {
				return false
			}
		}
	}
	return true
}

// checkTraining checks a Run's result against properties the method must
// have and against the benchmark's own computations, sets ari, and
// returns the benchmark's nearest-centre assignment.
func (b *bench) checkTraining(in *inputs, res *gmeansmr.Result) []int {
	mix, w := in.mix, b.w
	n := int64(len(mix.points))
	b.check(res.K > 0 && res.K == len(res.Centers), "K = %d with %d centres", res.K, len(res.Centers))
	lo, hi := boundingBox(mix.points)
	for i, c := range res.Centers {
		for d, x := range c {
			if math.IsNaN(x) || x < lo[d] || x > hi[d] {
				b.check(false, "centre %d coordinate %d = %v is outside the data's bounding box", i, d, x)
				break
			}
		}
	}
	if w.algorithm == gmeansmr.AlgorithmGMeansMR {
		b.check(w.data.k <= res.K && res.K <= 2*w.data.k, "G-means found K = %d for a true k of %d", res.K, w.data.k)
	}
	records := res.Counters["mr.map.input.records"]
	b.check(records > 0 && records%n == 0, "mr.map.input.records = %d is not a whole multiple of n = %d", records, n)

	assign, wcss := assignAll(mix.points, res.Centers)
	ari := adjustedRand(assign, mix.labels)
	b.check(ari >= ariFloor, "ARI %.4f is below the floor %.2f", ari, ariFloor)
	b.set("ari", "ratio", ari)

	if w.algorithm == gmeansmr.AlgorithmMultiK {
		b.check(relClose(res.WCSS, wcss, 1e-9), "Result.WCSS = %v, the benchmark's WCSS = %v", res.WCSS, wcss)
		var missing []string
		for k := w.kMin; k <= w.kMax; k++ {
			if _, ok := res.WCSSByK[k]; !ok {
				missing = append(missing, fmt.Sprint(k))
			}
		}
		b.check(len(missing) == 0, "WCSSByK lacks k = %s", strings.Join(missing, ","))
		b.check(w.kMin <= res.K && res.K <= w.kMax, "multi-k chose K = %d outside [%d,%d]", res.K, w.kMin, w.kMax)
	}
	return assign
}
