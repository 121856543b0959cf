package main

// Capacity search: the highest offered rate whose step meets the SLO — p99
// latency from due time within sloP99, failed or shed requests within
// sloErrPct, and a generator that is not falling behind (median lateness
// within sloLate). Latency and lateness are read per quarter of the step
// and the median quarter decides, so one stall does not fail a rate the
// system sustains, while an overload, whose backlog grows through the
// whole step, does. The ladder climbs by half again per step until a step
// fails, then bisects geometrically until the passing and failing rates are
// at most 4% apart, or the time budget runs out.

import (
	"math"
	"time"
)

// ladderStep is the length of one ladder step.
const ladderStep = 2500 * time.Millisecond

// ladder configures one search.
type ladder struct {
	workers int
	start   float64 // first rate tried, requests per second
	budget  time.Duration
	step    time.Duration
	// target returns the request function of one step and a release to run
	// after it. Fleet-write builds a fresh front door and fleet for every
	// step, so every rate is tried from the same state of the store.
	target func() (requestFn, func() error, error)
}

// rung is the outcome of one step.
type rung struct {
	rate   float64
	p99    time.Duration
	late   time.Duration
	errPct float64
	pass   bool
	stats  *runStats
}

// knee is the largest ratio between the failing and the passing rate at
// which the search stops.
const knee = 1.04

// search runs the ladder and returns the highest passing step (nil if
// none passed) with every step it ran.
func (l ladder) search() (*rung, []rung, error) {
	var steps []rung
	var best *rung
	lo, hi := 0.0, 0.0
	rate := l.start
	begin := time.Now()
	for time.Since(begin)+l.step <= l.budget {
		do, release, err := l.target()
		if err != nil {
			return best, steps, err
		}
		r := l.run(rate, do)
		if err := release(); err != nil {
			return best, steps, err
		}
		steps = append(steps, r)
		if r.pass {
			lo = rate
			best = &r
		} else {
			hi = rate
		}
		switch {
		case hi == 0:
			rate = lo * 1.5
		case lo == 0:
			rate = hi / 1.5
		case hi/lo <= knee:
			return best, steps, nil
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	return best, steps, nil
}

// run offers rate for one step and judges it against the SLO.
func (l ladder) run(rate float64, do requestFn) rung {
	st := &runStats{winLen: l.step / 4}
	openLoop(l.workers, rate, l.step, st, do)
	r := rung{rate: rate, stats: st, p99: st.windowQuantile(winAll, 0.99), late: st.windowQuantile(winLate, 0.5)}
	if n := st.attempted.Load(); n > 0 {
		r.errPct = 100 * float64(st.failed.Load()) / float64(n)
	}
	r.pass = r.p99 <= sloP99 && r.errPct <= sloErrPct && r.late <= sloLate
	return r
}
