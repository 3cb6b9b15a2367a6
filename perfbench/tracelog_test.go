package main

import (
	"strings"
	"testing"
	"time"
)

// A synthetic span log of one run: 100 ms in all, a 20 ms stage, then a
// driver run holding a 10 ms init and one 60 ms round whose kmeans and
// kfnc round-phases cover 50 ms, then a 5 ms finalize. A job span inside
// kmeans must not count as a phase child.
const syntheticLog = `{"start":"2026-01-01T00:00:00Z","events":[
{"name":"stage","cat":"phase","tid":0,"start":"2026-01-01T00:00:00.001Z","dur_ns":20000000},
{"name":"init","cat":"phase","tid":0,"start":"2026-01-01T00:00:00.022Z","dur_ns":10000000},
{"name":"job:a","cat":"job","tid":0,"start":"2026-01-01T00:00:00.033Z","dur_ns":29000000},
{"name":"map-task","cat":"task","tid":3,"start":"2026-01-01T00:00:00.034Z","dur_ns":4000000},
{"name":"map-task","cat":"task","tid":4,"start":"2026-01-01T00:00:00.035Z","dur_ns":6000000},
{"name":"kmeans","cat":"round-phase","tid":0,"start":"2026-01-01T00:00:00.033Z","dur_ns":30000000},
{"name":"kfnc","cat":"round-phase","tid":0,"start":"2026-01-01T00:00:00.063Z","dur_ns":20000000},
{"name":"round-1","cat":"phase","tid":0,"start":"2026-01-01T00:00:00.032Z","dur_ns":60000000},
{"name":"gmeans-run","cat":"run","tid":0,"start":"2026-01-01T00:00:00.021Z","dur_ns":72000000},
{"name":"finalize","cat":"phase","tid":0,"start":"2026-01-01T00:00:00.094Z","dur_ns":5000000},
{"name":"clusterer-run","cat":"run","tid":0,"start":"2026-01-01T00:00:00Z","dur_ns":100000000}
]}`

func TestTraceSelfTimes(t *testing.T) {
	spans, err := readTrace(strings.NewReader(syntheticLog))
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimesByName(spans, func(s span) bool {
		return s.Cat == "run" || s.Cat == "phase" || s.Cat == "round-phase"
	})
	ms := time.Millisecond
	want := map[string]time.Duration{
		"clusterer-run": 3 * ms, // 100 - 20 stage - 72 gmeans-run - 5 finalize
		"stage":         20 * ms,
		"gmeans-run":    2 * ms, // 72 - 10 init - 60 round
		"init":          10 * ms,
		"round-1":       10 * ms, // 60 - 30 kmeans - 20 kfnc
		"kmeans":        30 * ms,
		"kfnc":          20 * ms,
		"finalize":      5 * ms,
	}
	if len(self) != len(want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	var total time.Duration
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
		total += self[name]
	}
	if total != 100*ms {
		t.Errorf("self times add up to %v, want the run's 100ms", total)
	}

	sum, count := sumByName(spans, func(s span) bool { return s.Cat == "task" })
	if sum["map-task"] != 10*ms || count["map-task"] != 2 {
		t.Errorf("map-task total %v over %d spans, want 10ms over 2", sum["map-task"], count["map-task"])
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(lo, hi int) span {
		return span{Start: t0.Add(time.Duration(lo) * time.Second), Dur: time.Duration(hi-lo) * time.Second}
	}
	// Children cover [1,6] and [8,10] of the parent's [0,10]: overlap is
	// counted once and the part past the parent's end is clipped.
	got := selfTime(at(0, 10), []span{at(1, 4), at(3, 6), at(8, 12)})
	if got != 3*time.Second {
		t.Fatalf("self time = %v, want 3s", got)
	}
}

func TestReadTraceRejectsDroppedSpans(t *testing.T) {
	if _, err := readTrace(strings.NewReader(`{"dropped":3,"events":[]}`)); err == nil {
		t.Fatal("a span log with dropped spans was accepted")
	}
}
