package main

import (
	"testing"
	"time"
)

func span(id, parent uint64, layer, name string, member int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Req: 1, Layer: layer, Name: name, Member: member, Start: start, End: end}
}

func TestSelfTimeSequentialChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, layerGen, opPut, -1, 0, 100),
		span(2, 1, layerCell, opPut, -1, 10, 100),
		span(3, 2, layerSeal, opPut, -1, 12, 18),
		span(4, 2, layerFrame, opPut, -1, 20, 90),
		span(5, 4, layerAdmission, opPut, -1, 30, 80),
		span(6, 5, layerDurable, opPut, -1, 31, 79),
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 10, 2: 90 - 6 - 70, 3: 6, 4: 70 - 50, 5: 50 - 48, 6: 48}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	b := Analyze(spans, 0)
	if b.Requests != 1 || b.SelfSum() != 100 || b.MeanE2E != 100 {
		t.Fatalf("requests %d, self sum %v, e2e %v; want 1, 100, 100", b.Requests, b.SelfSum(), b.MeanE2E)
	}
}

func TestSelfTimeParallelMembers(t *testing.T) {
	// A W=2 fan-out: member 1 is the second ack, member 2 straggles past
	// the parent's return.
	spans := []Span{
		span(1, 0, layerGen, opPut, -1, 0, 60),
		span(2, 1, layerReplicated, opPut, -1, 0, 50),
		span(3, 2, layerMember, opPut, 0, 5, 20),
		span(4, 2, layerMember, opPut, 1, 5, 30),
		span(5, 2, layerMember, opPut, 2, 5, 80),
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 10, 2: 25, 3: 0, 4: 25, 5: 0}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	b := Analyze(spans, 2)
	if b.SelfSum() != 60 {
		t.Errorf("self sum = %v, want the request's 60", b.SelfSum())
	}
	if len(b.WthAckSelf) != 1 || b.WthAckSelf[0] != 25 {
		t.Errorf("self against the W-th ack = %v, want [25]", b.WthAckSelf)
	}
	for i, want := range []int64{15, 25, 75} {
		if got := b.MemberPut[i]; len(got) != 1 || got[0] != want {
			t.Errorf("member %d put = %v, want [%d]", i, got, want)
		}
	}
}

func TestSelfTimeIgnoresOrphans(t *testing.T) {
	spans := []Span{
		span(1, 0, layerGen, opGet, -1, 0, 10),
		span(2, 0, layerDurable, opGet, -1, 2, 4), // opened with no request
	}
	b := Analyze(spans, 0)
	if b.Requests != 1 || b.SelfSum() != 10 {
		t.Fatalf("requests %d, self sum %v; want 1 and 10", b.Requests, b.SelfSum())
	}
}

func TestTracerLinksSlots(t *testing.T) {
	tr := NewTracer(1)
	if ctx := tr.Begin(0, time.Now(), opPut); ctx != nil {
		t.Fatal("tracer recorded while off")
	}
	tr.SetOn(true)
	ctx := tr.Begin(0, time.Now(), opPut)
	cell := tr.open(ctx, slotCell, slotRoot, layerCell, opPut, -1)
	frame := tr.open(tr.current(0), slotFrame, slotCell, layerFrame, opPut, -1)
	tr.close(ctx, slotFrame, frame)
	tr.close(ctx, slotCell, cell)
	tr.End(0, ctx, time.Now())
	if tr.current(0) != nil {
		t.Fatal("request still current after End")
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	parent := map[string]uint64{}
	id := map[string]uint64{}
	for _, s := range spans {
		parent[s.Layer], id[s.Layer] = s.Parent, s.ID
	}
	if parent[layerCell] != id[layerGen] || parent[layerFrame] != id[layerCell] {
		t.Fatalf("parents %v, ids %v", parent, id)
	}
}
