package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// span is one event of the program's JSON span log (WithTraceJSON): a
// named, categorised slice of wall time.
type span struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	TID   int64          `json:"tid"`
	Start time.Time      `json:"start"`
	Dur   time.Duration  `json:"dur_ns"`
	Args  map[string]any `json:"args"`
}

func (s span) end() time.Time { return s.Start.Add(s.Dur) }

// readTrace decodes one JSON span log. A log that dropped spans over the
// recorder's cap cannot be summed, so it is an error.
func readTrace(r io.Reader) ([]span, error) {
	var log struct {
		Dropped int64  `json:"dropped"`
		Events  []span `json:"events"`
	}
	if err := json.NewDecoder(r).Decode(&log); err != nil {
		return nil, fmt.Errorf("reading span log: %w", err)
	}
	if log.Dropped > 0 {
		return nil, fmt.Errorf("span log dropped %d spans", log.Dropped)
	}
	return log.Events, nil
}

// sumByName totals the durations of the spans keep accepts, by span name,
// with the number of spans of each name.
func sumByName(spans []span, keep func(span) bool) (map[string]time.Duration, map[string]int) {
	sum, count := map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		if keep == nil || keep(s) {
			sum[s.Name] += s.Dur
			count[s.Name]++
		}
	}
	return sum, count
}

// nestTolerance absorbs the difference between the wall-clock start times
// the log records and the monotonic durations it records.
const nestTolerance = 100 * time.Microsecond

// contains reports whether child lies within parent's interval: it starts
// no earlier than parent and before parent ends, and ends no later.
func contains(parent, child span) bool {
	return !child.Start.Before(parent.Start.Add(-nestTolerance)) &&
		child.Start.Before(parent.end()) &&
		!child.end().After(parent.end().Add(nestTolerance))
}

// parents infers the span tree of a set of sequentially nested spans (the
// driver's run, phase and round-phase spans): the parent of each span is
// the shortest other span containing it, or -1.
func parents(spans []span) []int {
	out := make([]int, len(spans))
	for i, c := range spans {
		out[i] = -1
		for j, p := range spans {
			if i == j || p.Dur < c.Dur || (p.Dur == c.Dur && j > i) || !contains(p, c) {
				continue
			}
			if out[i] < 0 || p.Dur < spans[out[i]].Dur {
				out[i] = j
			}
		}
	}
	return out
}

// selfTime is parent's duration minus the part of its interval that the
// children cover, counting time covered by overlapping children once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.Start, c.end()
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.end()) {
			hi = parent.end()
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return a.lo.Compare(b.lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.Dur - covered
}

// selfTimesByName nests the spans keep accepts and totals each one's self
// time by span name.
func selfTimesByName(spans []span, keep func(span) bool) map[string]time.Duration {
	var kept []span
	for _, s := range spans {
		if keep(s) {
			kept = append(kept, s)
		}
	}
	par := parents(kept)
	children := make([][]span, len(kept))
	for i, p := range par {
		if p >= 0 {
			children[p] = append(children[p], kept[i])
		}
	}
	out := map[string]time.Duration{}
	for i, s := range kept {
		out[s.Name] += selfTime(s, children[i])
	}
	return out
}
