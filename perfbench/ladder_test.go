package main

import (
	"testing"
	"time"

	"trustedcells/internal/cloud"
)

// slowService answers every batch put after a fixed delay.
type slowService struct {
	cloud.Service
	delay time.Duration
}

func (s slowService) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	time.Sleep(s.delay)
	return make([]int, len(puts)), nil
}

func (s slowService) GetBlobs(names []string) ([]cloud.Blob, error) {
	return make([]cloud.Blob, len(names)), nil
}

// TestLadderFindsFixedLatencyCapacity: two synchronous workers against a
// 5 ms service complete at most 400 requests/s. The search must settle on a
// passing rate near that (a short step tolerates a slight overload before
// its backlog shows), with the lowest failing rate less than 10% above it.
func TestLadderFindsFixedLatencyCapacity(t *testing.T) {
	svc := slowService{Service: cloud.NewMemory(), delay: 5 * time.Millisecond}
	put := []cloud.BlobPut{{Name: "x", Data: []byte("y")}}
	do := func(w int, due time.Time, st *runStats) {
		st.attempted.Add(1)
		if _, err := cloud.PutBlobsVia(svc, put); err != nil {
			st.failed.Add(1)
			return
		}
		st.record(true, due, time.Since(due))
	}
	lad := ladder{workers: 2, start: 150, budget: 8 * time.Second, step: 400 * time.Millisecond,
		target: func() (requestFn, func() error, error) { return do, func() error { return nil }, nil }}
	best, steps, err := lad.search()
	if err != nil {
		t.Fatal(err)
	}
	if best == nil {
		t.Fatalf("no step passed: %+v", steps)
	}
	if best.rate > 440 || best.rate < 300 {
		t.Fatalf("capacity %.0f req/s, want within [300, 440]", best.rate)
	}
	lowestFail := 0.0
	for _, s := range steps {
		if !s.pass && (lowestFail == 0 || s.rate < lowestFail) {
			lowestFail = s.rate
		}
	}
	if lowestFail == 0 || lowestFail/best.rate > 1.1 {
		t.Fatalf("search stopped with passing %.0f and failing %.0f req/s", best.rate, lowestFail)
	}
}
