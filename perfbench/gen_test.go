package main

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"trustedcells/internal/sim"
)

// TestRecorderPercentiles checks the percentile reads the benchmark takes
// from sim.LatencyRecorder against a known distribution.
func TestRecorderPercentiles(t *testing.T) {
	var r sim.LatencyRecorder
	for i := 1; i <= 10_000; i++ {
		r.Record(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 5 * time.Millisecond}, {0.99, 9900 * time.Microsecond}, {0.999, 9990 * time.Microsecond}} {
		got := r.Quantile(c.q)
		if rel := math.Abs(float64(got-c.want)) / float64(c.want); rel > 0.04 {
			t.Errorf("p%v = %v, want %v within 4%%", c.q*100, got, c.want)
		}
	}
	if r.Count() != 10_000 || r.Max() != 10*time.Millisecond {
		t.Errorf("count %d max %v", r.Count(), r.Max())
	}
}

// TestPhaseMediansAndCost checks the exact medians and the CPU cost per
// document a phase reports.
func TestPhaseMediansAndCost(t *testing.T) {
	var st runStats
	for _, d := range []time.Duration{5, 1, 3} {
		st.record(true, time.Time{}, d*time.Millisecond)
	}
	for _, d := range []time.Duration{4, 2, 8, 6} {
		st.record(false, time.Time{}, d*time.Millisecond)
	}
	if got := st.p50Ms(true); got != 3 {
		t.Errorf("write p50 = %v ms, want 3", got)
	}
	if got := st.p50Ms(false); got != 5 {
		t.Errorf("read p50 = %v ms, want 5 (mean of the middle two)", got)
	}
	if got := st.cpuUsPerDoc(); got != 0 {
		t.Errorf("cpu per doc with no documents = %v, want 0", got)
	}
	st.docs.Store(400)
	st.cpu = 10 * time.Millisecond
	if got := st.cpuUsPerDoc(); got != 25 {
		t.Errorf("cpu per doc = %v us, want 25", got)
	}
}

func TestPayloadIsSeeded(t *testing.T) {
	a, b, c := make([]byte, 256), make([]byte, 256), make([]byte, 256)
	payloadFor(a, 7, 3, 9)
	payloadFor(b, 7, 3, 9)
	payloadFor(c, 7, 3, 10)
	if !bytes.Equal(a, b) {
		t.Fatal("same inputs gave different payloads")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different sequences gave the same payload")
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	st := &runStats{winLen: 50 * time.Millisecond}
	var calls [2]atomic.Int64
	openLoop(2, 1000, 200*time.Millisecond, st, func(w int, due time.Time, st *runStats) {
		calls[w].Add(1)
		st.attempted.Add(1)
		st.record(true, due, time.Since(due))
	})
	if calls[0].Load() != 100 || calls[1].Load() != 100 {
		t.Fatalf("workers ran %d and %d requests, want 100 each", calls[0].Load(), calls[1].Load())
	}
	if st.late.Count() != 200 || len(st.wins) != 4 {
		t.Fatalf("%d lateness samples in %d windows, want 200 in 4", st.late.Count(), len(st.wins))
	}
	for i, w := range st.wins {
		if w.all.Count() != 50 {
			t.Errorf("window %d holds %d requests, want 50", i, w.all.Count())
		}
	}
}

// TestWindowQuantile: one window's stall does not move the median of the
// per-window p99s.
func TestWindowQuantile(t *testing.T) {
	st := &runStats{winLen: time.Second}
	start := time.Now()
	st.startWindows(start)
	for win := 0; win < 5; win++ {
		due := start.Add(time.Duration(win) * time.Second)
		for i := 1; i <= 100; i++ {
			d := time.Duration(i) * time.Millisecond
			if win == 2 {
				d *= 50 // a stalled window
			}
			st.record(true, due, d)
		}
	}
	got := st.windowQuantile(winAll, 0.99)
	if rel := math.Abs(float64(got-99*time.Millisecond)) / float64(99*time.Millisecond); rel > 0.04 {
		t.Fatalf("median window p99 = %v, want about 99ms", got)
	}
}
