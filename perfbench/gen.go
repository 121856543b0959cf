package main

// The load generator: seeded payloads, latency and lateness recording into
// sim.LatencyRecorder histograms, and the open- and closed-loop generators.
// Every generator runs exactly one goroutine per client connection.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/sim"
)

// payloadFor fills p with bytes determined by (seed, stream, seq), so a
// reader can regenerate the exact payload a writer sealed.
func payloadFor(p []byte, seed int64, stream int, seq uint32) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<32 ^ uint64(seq)
	var word [8]byte
	for i := 0; i < len(p); i += 8 {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		binary.LittleEndian.PutUint64(word[:], z)
		copy(p[i:], word[:])
	}
}

// runStats accumulates one measured phase.
type runStats struct {
	write, read, search sim.LatencyRecorder
	all                 sim.LatencyRecorder // every write and read
	// late is how long after its due time each request was issued.
	late       sim.LatencyRecorder
	attempted  atomic.Int64
	failed     atomic.Int64
	docs       atomic.Int64 // documents moved by successful requests
	backlogMax atomic.Int64 // most requests due but not yet complete
	elapsed    time.Duration
	cpu        time.Duration // process CPU time over the phase, user + system

	// writeMs and readMs hold every completed write's and read's latency,
	// so that medians are exact rather than a histogram bucket's bound.
	latMu           sync.Mutex
	writeMs, readMs []float64

	// winLen, when set, also files every request in the window of winLen
	// its due time falls in, counted from winStart.
	winLen   time.Duration
	winStart time.Time
	winMu    sync.Mutex
	wins     []*window

	mu         sync.Mutex
	violations []string
	nViolation int
}

// violate records a correctness violation (the first few verbatim).
func (s *runStats) violate(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nViolation++
	if len(s.violations) < 10 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

// Violations returns the recorded violation count and the first messages.
func (s *runStats) Violations() (int, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nViolation, append([]string(nil), s.violations...)
}

func (s *runStats) docsPerSec() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.docs.Load()) / s.elapsed.Seconds()
}

// cpuUsPerDoc is the process CPU time the phase used per document moved.
func (s *runStats) cpuUsPerDoc() float64 {
	if n := s.docs.Load(); n > 0 {
		return float64(s.cpu) / 1e3 / float64(n)
	}
	return 0
}

// p50Ms is the exact median latency of the phase's writes or reads, in
// milliseconds.
func (s *runStats) p50Ms(write bool) float64 {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	if write {
		return median(s.writeMs)
	}
	return median(s.readMs)
}

func (s *runStats) noteBacklog(n int64) {
	for {
		old := s.backlogMax.Load()
		if n <= old || s.backlogMax.CompareAndSwap(old, n) {
			return
		}
	}
}

// window is the share of a phase due within one window.
type window struct {
	all, late sim.LatencyRecorder
}

// startWindows starts the window clock, once per phase.
func (s *runStats) startWindows(at time.Time) {
	if s.winStart.IsZero() {
		s.winStart = at
	}
}

func (s *runStats) windowOf(due time.Time) *window {
	if s.winLen <= 0 {
		return nil
	}
	i := max(0, int(due.Sub(s.winStart)/s.winLen))
	s.winMu.Lock()
	defer s.winMu.Unlock()
	for len(s.wins) <= i {
		s.wins = append(s.wins, &window{})
	}
	return s.wins[i]
}

// record adds one completed write or read due at due.
func (s *runStats) record(write bool, due time.Time, d time.Duration) {
	s.latMu.Lock()
	if write {
		s.write.Record(d)
		s.writeMs = append(s.writeMs, ms(d))
	} else {
		s.read.Record(d)
		s.readMs = append(s.readMs, ms(d))
	}
	s.latMu.Unlock()
	s.all.Record(d)
	if w := s.windowOf(due); w != nil {
		w.all.Record(d)
	}
}

// recordLate adds the lateness of a request due at due.
func (s *runStats) recordLate(due time.Time, late time.Duration) {
	s.late.Record(late)
	if w := s.windowOf(due); w != nil {
		w.late.Record(late)
	}
}

// windowQuantile is the median over the phase's windows of each window's
// q-quantile of the recorder pick selects: a tail that one burst of
// interference in a shared machine cannot decide on its own. Windows without
// samples are skipped.
func (s *runStats) windowQuantile(pick func(*window) *sim.LatencyRecorder, q float64) time.Duration {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	var v []float64
	for _, w := range s.wins {
		if r := pick(w); r.Count() > 0 {
			v = append(v, float64(r.Quantile(q)))
		}
	}
	return time.Duration(median(v))
}

func winAll(w *window) *sim.LatencyRecorder  { return &w.all }
func winLate(w *window) *sim.LatencyRecorder { return &w.late }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// requestFn performs one request for worker w, due at due. It records its
// own latency and outcome in st.
type requestFn func(w int, due time.Time, st *runStats)

// openLoop offers rate requests per second for dur: request i is due at
// start + i/rate and belongs to worker i mod workers, whatever the state of
// earlier requests. Latency runs from the due time, so a stall also charges
// the wait it imposes on the requests queued behind it.
func openLoop(workers int, rate float64, dur time.Duration, st *runStats, do requestFn) {
	interval := time.Duration(float64(time.Second) / rate)
	total := int64(dur / interval)
	start, cpu := time.Now(), processCPU()
	st.startWindows(start)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int64(w); i < total; i += int64(workers) {
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				now := time.Now()
				st.recordLate(due, now.Sub(due))
				st.noteBacklog(int64(now.Sub(start)/interval) + 1 - completed.Load())
				do(w, due, st)
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()
	st.elapsed += time.Since(start)
	st.cpu += processCPU() - cpu
}

// closedLoop runs workers that each issue their next request as soon as
// the previous one completes, until dur has passed.
func closedLoop(workers int, dur time.Duration, st *runStats, do requestFn) {
	start, cpu := time.Now(), processCPU()
	st.startWindows(start)
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A closed-loop request is due when its predecessor completes.
			for due := time.Now(); due.Before(deadline); due = time.Now() {
				st.noteBacklog(int64(workers))
				st.recordLate(due, time.Since(due))
				do(w, due, st)
			}
		}(w)
	}
	wg.Wait()
	st.elapsed += time.Since(start)
	st.cpu += processCPU() - cpu
}
