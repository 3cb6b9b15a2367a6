package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"gmeansmr"
	"gmeansmr/internal/dfs"
	"gmeansmr/internal/mrdist"
	"gmeansmr/internal/vec"
)

// probeReps is how many times each per-layer probe repeats; the median
// is reported.
const probeReps = 3

// maxUnattributed is the largest share of the traced clusterer-run span
// the named phases may leave unexplained.
const maxUnattributed = 0.05

// layerTimes splits one traced Run into its layers: phase self times from
// the driver's spans, task time summed from the task spans, counts from
// Result.Counters and the observer registry.
func (b *bench) layerTimes(trace *bytes.Buffer, res *gmeansmr.Result, reg *gmeansmr.Registry) (map[string]float64, error) {
	spans, err := readTrace(trace)
	if err != nil {
		return nil, err
	}
	l := map[string]float64{}
	var total time.Duration
	for _, s := range spans {
		if s.Name == "clusterer-run" {
			total = s.Dur
		}
	}
	if total <= 0 {
		return nil, fmt.Errorf("span log has no clusterer-run span")
	}
	self := selfTimesByName(spans, func(s span) bool {
		return s.Cat == "run" || s.Cat == "phase" || s.Cat == "round-phase"
	})
	var iters, attributed time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, "iter-") {
			iters += d
		}
	}
	// The run span's own time is the facade's work outside its phases:
	// on multi-k, choosing k from the candidates.
	for _, name := range []string{"clusterer-run", "stage", "finalize", "init", "kmeans", "kfnc", "test", "merge", "evaluate"} {
		attributed += self[name]
	}
	attributed += iters
	multik := b.w.algorithm == gmeansmr.AlgorithmMultiK
	l["core.init_s"], l["kmeansmr.init_s"] = self["init"].Seconds(), 0
	if multik {
		l["core.init_s"], l["kmeansmr.init_s"] = 0, self["init"].Seconds()
	}
	l["run.traced_s"] = total.Seconds()
	l["run.unattributed_share"] = float64(total-attributed) / float64(total)
	l["facade.stage_s"] = self["stage"].Seconds()
	l["facade.finalize_s"] = self["finalize"].Seconds()
	l["facade.select_s"] = self["clusterer-run"].Seconds()
	l["core.kmeans_s"] = self["kmeans"].Seconds()
	l["core.kfnc_s"] = self["kfnc"].Seconds()
	l["core.test_s"] = self["test"].Seconds()
	l["kmeansmr.iter_s"] = iters.Seconds()
	l["kmeansmr.evaluate_s"] = self["evaluate"].Seconds()

	mrSum, _ := sumByName(spans, func(s span) bool { return s.Cat == "mr" })
	l["mr.map_s"] = mrSum["map"].Seconds()
	l["mr.reduce_s"] = mrSum["reduce"].Seconds()
	// Task spans the master records around a worker RPC carry the worker's
	// id; spans without it are tasks executed in this process.
	rpc := func(s span) bool { _, ok := s.Args["worker"]; return ok }
	local, _ := sumByName(spans, func(s span) bool { return s.Cat == "task" && !rpc(s) })
	remote, _ := sumByName(spans, func(s span) bool { return s.Cat == "task" && rpc(s) })
	_, tasks := sumByName(spans, func(s span) bool { return s.Cat == "task" })
	l["mr.map_task_busy_s"] = local["map-task"].Seconds()
	l["mr.spill_s"] = local["spill"].Seconds()
	l["mr.shuffle_merge_s"] = local["shuffle-merge"].Seconds()
	l["mr.reduce_task_busy_s"] = local["reduce-task"].Seconds()
	l["mrdist.task_rpc_s"] = (remote["map-task"] + remote["reduce-task"]).Seconds()
	l["mr.map_tasks"] = float64(tasks["map-task"])

	cnt := func(name string) float64 { return float64(res.Counters[name]) }
	l["dfs.map_input_records"] = cnt("mr.map.input.records")
	l["mr.map_output_records"] = cnt("mr.map.output.records")
	l["mr.map_output_bytes"] = cnt("mr.map.output.bytes")
	l["mr.shuffle_records"] = cnt("mr.shuffle.records")
	l["mr.combine_ratio"] = 0
	if in := cnt("mr.combine.input.records"); in > 0 {
		l["mr.combine_ratio"] = cnt("mr.combine.output.records") / in
	}
	l["vec.distance_computations"] = cnt(gmeansmr.CounterDistances)
	l["core.ad_tests"] = cnt(gmeansmr.CounterADTests)
	l["core.projections"] = cnt("app.projections")
	l["core.rounds"] = 0
	if !multik {
		l["core.rounds"] = float64(res.Iterations)
	}
	l["mrdist.tasks_dispatched"] = float64(reg.Counter(mrdist.MetricTasksDispatched).Value())
	l["mrdist.task_retries"] = float64(reg.Counter(mrdist.MetricTaskRetries).Value())
	l["mrdist.speculative_tasks"] = float64(reg.Counter(mrdist.MetricSpeculative).Value())
	l["mrdist.worker_deaths"] = float64(reg.Counter(mrdist.MetricWorkerDeaths).Value())
	return l, nil
}

// medianLayers sets the per-layer metrics of the traced Runs: times are
// medians over the Runs, counts are read from the first.
func (b *bench) medianLayers(layers []map[string]float64) {
	for _, def := range perLayer {
		v, ok := layers[0][def.name]
		if !ok {
			continue // measured by a probe
		}
		if def.unit == "s" || def.name == "run.unattributed_share" {
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[def.name])
			}
			v = median(xs)
		}
		b.set(def.name, def.unit, v)
	}
	share := b.metrics["run.unattributed_share"].Value
	b.check(share <= maxUnattributed, "named phases leave %.1f%% of the traced run unattributed", 100*share)
}

// trainingProbes times single layers from outside Run: the source
// reader, the DFS decoder and the nearest-centre kernel.
func (b *bench) trainingProbes(in *inputs, res *gmeansmr.Result, assign []int) {
	n := len(in.mix.points)
	var times []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		got, err := drain(gmeansmr.FromFile(in.path))
		times = append(times, time.Since(start).Seconds())
		b.check(err == nil && got == n, "draining the source gave %d points (%v), want %d", got, err, n)
	}
	b.set("source.read_s", "s", median(times))

	// The staged format: one text record per point, as Run stages every
	// source, split so that each map slot gets four splits.
	var staged []byte
	for _, p := range in.mix.points {
		staged = appendText(staged, p)
	}
	split := max(len(staged)/(nodes*2*4), 4<<10)
	times = times[:0]
	for i := 0; i < probeReps; i++ {
		fs := dfs.New(split)
		fs.Create("/data/points.txt", staged)
		splits, err := fs.Splits("/data/points.txt")
		b.check(err == nil, "splitting the staged copy: %v", err)
		got := 0
		start := time.Now()
		for _, sp := range splits {
			ps, err := fs.OpenSplitPoints(sp, in.mix.dim)
			if err != nil {
				b.check(false, "decoding split %d: %v", sp.Index, err)
				break
			}
			got += ps.Columns().Len()
		}
		times = append(times, time.Since(start).Seconds())
		b.check(got == n, "decoding the staged copy gave %d points, want %d", got, n)
	}
	b.set("dfs.decode_s", "s", median(times))

	pack := vec.PackCenters(res.Centers)
	s := pack.GetScratch()
	times = times[:0]
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		idx, dist := pack.NearestRows(in.mix.points, s)
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			for j, c := range idx {
				if int(c) != assign[j] && !relClose(dist[j], sqDist(in.mix.points[j], res.Centers[assign[j]]), 1e-9) {
					b.check(false, "kernel assigns point %d to centre %d, the benchmark to %d", j, c, assign[j])
					break
				}
			}
		}
	}
	pack.PutScratch(s)
	b.set("vec.kernel_points_per_s", "1/s", float64(n)/median(times))
}

// drain reads every point of src.
func drain(src gmeansmr.DataSource) (int, error) {
	rd, err := src.Open()
	if err != nil {
		return 0, err
	}
	defer rd.Close()
	n := 0
	for {
		_, err := rd.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}
