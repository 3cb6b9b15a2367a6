package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json this program reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" one).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// steadiness runs every workload in two sets of runs, each run with its
// own seed, and prints per metric each set's median and quartiles, the
// spread (quartile distance over the median) and whether the sets agree:
// both spreads within the metric's bound (setup_s exempt) and the second
// median no worse than the first by more than the bound.
func steadiness(specPath, only string, runs int, seconds float64) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	agreeAll := true
	for _, wl := range spec.Workloads {
		if only != "" && !slices.Contains(strings.Split(only, ","), wl.Name) {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		var failedShare [2]float64
		for set := range sets {
			var attempted, failed int64
			for r := 0; r < runs; r++ {
				seed := set*runs + r + 1
				cmd := exec.Command(self, "--workload", wl.Name, "--seed", fmt.Sprint(seed),
					"--seconds", fmt.Sprint(seconds), "--trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || !res.Correct {
					return fmt.Errorf("%s seed %d: bad result %s (%v)", wl.Name, seed, lines[len(lines)-1], err)
				}
				attempted, failed = attempted+res.Attempted, failed+res.Failed
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
			failedShare[set] = float64(failed) / float64(attempted)
		}
		fmt.Printf("%s (%d runs per set, failed share %.6f / %.6f)\n", wl.Name, runs, failedShare[0], failedShare[1])
		fmt.Printf("  %-20s %12s %12s %12s %7s | %12s %12s %12s %7s | %6s %s\n",
			"metric", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "bound", "agree")
		for _, m := range spec.EndToEnd {
			var med, spread [2]float64
			var q1, q3 [2]float64
			for s := range sets {
				xs := sets[s][m.Name]
				if len(xs) == 0 {
					return fmt.Errorf("%s reported no %s", wl.Name, m.Name)
				}
				med[s] = median(slices.Clone(xs))
				q1[s], q3[s] = quartiles(xs)
				spread[s] = (q3[s] - q1[s]) / math.Abs(med[s])
			}
			worse := (med[1] - med[0]) / math.Abs(med[0])
			if m.Better == "higher" {
				worse = -worse
			}
			agree := worse <= m.Bound && failedShare[0] == failedShare[1]
			if m.Name != "setup_s" {
				agree = agree && spread[0] <= m.Bound && spread[1] <= m.Bound
			}
			agreeAll = agreeAll && agree
			fmt.Printf("  %-20s %12.6g %12.6g %12.6g %7.4f | %12.6g %12.6g %12.6g %7.4f | %6.3f %v\n",
				m.Name, q1[0], med[0], q3[0], spread[0], q1[1], med[1], q3[1], spread[1], m.Bound, agree)
		}
	}
	if !agreeAll {
		return fmt.Errorf("the two sets disagree beyond the bounds")
	}
	return nil
}
