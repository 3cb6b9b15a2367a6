// Command perfbench is the repository's benchmark. One invocation runs one
// workload of the user's path — Clusterer.Run over a FromFile source, then
// a Server answering the trained model over loopback HTTP — checks every
// output against the benchmark's own computations and prints its metrics
// as the last line of standard output:
//
//	perfbench --workload gmeans-text-local --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 makes
// a separate traced run and reports the per-layer metrics. --steady runs
// every workload in two sets of seeds and compares them against the
// bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gmeansmr/internal/mrdist"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer are the metrics a run prints with --trace 0 and
// --trace 1, with their units, in BENCHMARK.json's order (checked by
// TestMetricListsMatch).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}, {"ari", "ratio"},
	{"dataset_reads", "count"}, {"shuffle_bytes", "bytes"}, {"batch_points_per_s", "1/s"},
	{"singleton_p50_us", "us"}, {"singleton_p90_us", "us"}, {"reload_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"run.traced_s", "s"}, {"run.unattributed_share", "ratio"},
	{"facade.stage_s", "s"}, {"facade.finalize_s", "s"}, {"facade.select_s", "s"},
	{"source.read_s", "s"},
	{"dfs.decode_s", "s"}, {"dfs.map_input_records", "count"},
	{"core.init_s", "s"}, {"core.kmeans_s", "s"}, {"core.kfnc_s", "s"}, {"core.test_s", "s"},
	{"core.rounds", "count"}, {"core.ad_tests", "count"}, {"core.projections", "count"},
	{"kmeansmr.init_s", "s"}, {"kmeansmr.iter_s", "s"}, {"kmeansmr.evaluate_s", "s"},
	{"mr.map_s", "s"}, {"mr.reduce_s", "s"}, {"mr.map_task_busy_s", "s"}, {"mr.spill_s", "s"},
	{"mr.shuffle_merge_s", "s"}, {"mr.reduce_task_busy_s", "s"}, {"mr.map_tasks", "count"},
	{"mr.map_output_records", "count"}, {"mr.map_output_bytes", "bytes"},
	{"mr.shuffle_records", "count"}, {"mr.combine_ratio", "ratio"},
	{"vec.distance_computations", "count"}, {"vec.kernel_points_per_s", "1/s"},
	{"mrdist.task_rpc_s", "s"}, {"mrdist.tasks_dispatched", "count"}, {"mrdist.task_retries", "count"},
	{"mrdist.speculative_tasks", "count"}, {"mrdist.worker_deaths", "count"},
	{"model.load_s", "s"}, {"model.swap_s", "s"},
	{"serve.assign_single_us", "us"}, {"serve.assign_batch_s", "s"}, {"serve.server_assign_p50_us", "us"},
	{"serve.singleton_p99_us", "us"}, {"serve.requests", "count"}, {"serve.swaps", "count"},
}

type metricDef struct{ name, unit string }

func main() {
	// The proc backend re-executes this binary as its workers.
	mrdist.MaybeWorker()
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Uint64("seed", 1, "seed the serving queries are drawn from")
	seconds := fl.Float64("seconds", 35, "length of the measured window")
	trace := fl.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	steady := fl.Bool("steady", false, "run every workload in two sets of seeds and compare them")
	runs := fl.Int("runs", 5, "runs per set in --steady mode")
	spec := fl.String("benchmark", "BENCHMARK.json", "benchmark description read by --steady")
	only := fl.String("workloads", "", "comma-separated workloads for --steady (default all)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *steady {
		if err := steadiness(*spec, *only, *runs, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// Worker logs of the proc backend stay inside the work directory.
	os.Setenv("MRDIST_LOG_DIR", dir)

	b := &bench{
		w: w, seed: *seed, trace: *trace == 1, dir: dir,
		window:  time.Duration(*seconds * float64(time.Second)),
		metrics: map[string]metric{},
	}
	stolen := startSteal()
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := endToEnd
	if b.trace {
		names = perLayer
	}
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, def := range names {
		m, ok := b.metrics[def.name]
		if !ok || m.Unit != def.unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured in %s\n", def.name, def.unit)
			return 1
		}
		res.Metrics[def.name] = m
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	rec := newRunRecord(w, *seed, b.trace)
	rec.Attempted, rec.Failed = b.attempted, b.failed
	rec.StealShare, rec.RunWallS = stolen.share(), b.runWall
	printJSON(map[string]any{"record": rec})
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers and strings
	}
	fmt.Println(string(data))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// bench is the state of one run.
type bench struct {
	w      *workload
	seed   uint64
	window time.Duration
	trace  bool
	dir    string

	attempted, failed int64
	problems          []string
	metrics           map[string]metric
	runWall           float64 // median wall time of the timed Runs, stolen time included
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

// check records a failed correctness check unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) run() error {
	in, err := b.setup()
	if err != nil {
		return err
	}
	if err := b.userPath(in); err != nil {
		return err
	}
	self, child := peakRSSMiB()
	b.set("peak_rss_mb", "MiB", self+child)
	return nil
}

// A run generates and writes its inputs at least setupReps times and for
// at least setupTime; setup_s is the median, stolen time taken out as in
// run_s.
const (
	setupReps = 5
	setupTime = 1500 * time.Millisecond
)

// queryPool is the number of distinct query points the serving clients
// cycle through.
const queryPool = 16 * 1024

// inputs is what set-up produces: the mixture in memory with its ground
// truth, the input file the program reads, and the serving queries.
type inputs struct {
	mix     *mixture
	path    string
	queries [][]float64
}

func (b *bench) setup() (*inputs, error) {
	var times []float64
	var in *inputs
	for begin := time.Now(); len(times) < setupReps || time.Since(begin) < setupTime; {
		stolen, start := startSteal(), time.Now()
		mix, err := generate(b.w.data, trainSeed)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(b.dir, "points."+b.w.format)
		if b.w.format == "gmpb" {
			err = writeGMPB(path, mix.points, mix.dim)
		} else {
			err = writeText(path, mix.points)
		}
		if err != nil {
			return nil, err
		}
		in = &inputs{mix: mix, path: path, queries: queryPoints(mix, queryPool, b.seed)}
		times = append(times, time.Since(start).Seconds()*(1-stolen.share()))
	}
	b.set("setup_s", "s", median(times))
	return in, nil
}
