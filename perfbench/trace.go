package main

// This file is the benchmark's tracer. Spans are recorded only around calls
// the benchmark itself makes into each layer (the generator, the cell, the
// crypto calls, and the timing shims it composes into the front door), held
// in memory, and written out when the run ends. Self time is computed per
// request on the critical path: every instant of a request is charged to
// exactly one span, so the per-layer self times of a request add up to its
// end-to-end latency.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can belong to. The order is the print order of the
// breakdown table.
const (
	layerGen        = "gen"
	layerCell       = "cell"
	layerSeal       = "crypto.seal"
	layerOpen       = "crypto.open"
	layerFrame      = "cloud.frame"
	layerAdmission  = "cloud.admission"
	layerReplicated = "cloud.replicated"
	layerMember     = "cloud.replicated.member"
	layerDurable    = "cloud.durable"
)

var layerOrder = []string{layerGen, layerCell, layerSeal, layerOpen, layerFrame,
	layerAdmission, layerReplicated, layerMember, layerDurable}

// Slots name the open span of each kind of boundary within one request. A
// span's parent is the span open in its parent slot of the same request.
const (
	slotRoot = iota
	slotCell
	slotFrame
	slotAdmission
	slotBackend
	slotMember0
	numSlots = slotMember0 + maxMembers
)

const maxMembers = 3

// Span is one timed call. Start and End are nanoseconds since the tracer's
// base time; Member is the replica index for member spans, else -1.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Member int    `json:"member"`
	Docs   int    `json:"docs,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// reqCtx is the tracing state of one in-flight request.
type reqCtx struct {
	id   uint64
	open [numSlots]atomic.Uint64
}

// Tracer collects spans. A nil *Tracer, or one switched off, records
// nothing, so the same call sites serve traced and untraced slices.
type Tracer struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	cur    []atomic.Pointer[reqCtx] // per tenant: the request in flight

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer for the given number of tenant connections.
func NewTracer(tenants int) *Tracer {
	return &Tracer{base: time.Now(), cur: make([]atomic.Pointer[reqCtx], tenants)}
}

// SetOn switches recording on or off.
func (t *Tracer) SetOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *Tracer) active() bool { return t != nil && t.on.Load() }

func (t *Tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// Begin opens the root span of a request issued on tenant connection
// tenant and due at due. It returns nil when tracing is off.
func (t *Tracer) Begin(tenant int, due time.Time, name string) *reqCtx {
	if !t.active() {
		return nil
	}
	ctx := &reqCtx{id: t.nextID.Add(1)}
	ctx.open[slotRoot].Store(ctx.id)
	t.cur[tenant].Store(ctx)
	t.pending(ctx, ctx.id, 0, layerGen, name, -1, 0, due)
	return ctx
}

// End closes the request's root span at done.
func (t *Tracer) End(tenant int, ctx *reqCtx, done time.Time) {
	if ctx == nil {
		return
	}
	t.cur[tenant].CompareAndSwap(ctx, nil)
	t.finish(ctx.id, done)
}

// current returns the request in flight on a tenant connection.
func (t *Tracer) current(tenant int) *reqCtx {
	if !t.active() || tenant < 0 || tenant >= len(t.cur) {
		return nil
	}
	return t.cur[tenant].Load()
}

// open records the start of a span in slot (child of the span open in
// parentSlot) and returns its id; pair it with close. Returns 0 when ctx is
// nil.
func (t *Tracer) open(ctx *reqCtx, slot, parentSlot int, layer, name string, member int) uint64 {
	return t.openDocs(ctx, slot, parentSlot, layer, name, member, 0)
}

// openDocs is open for a span that processes docs documents.
func (t *Tracer) openDocs(ctx *reqCtx, slot, parentSlot int, layer, name string, member, docs int) uint64 {
	if ctx == nil {
		return 0
	}
	id := t.nextID.Add(1)
	t.pending(ctx, id, ctx.open[parentSlot].Load(), layer, name, member, docs, time.Now())
	ctx.open[slot].Store(id)
	return id
}

// close ends span id, clearing its slot.
func (t *Tracer) close(ctx *reqCtx, slot int, id uint64) {
	if id == 0 {
		return
	}
	ctx.open[slot].CompareAndSwap(id, 0)
	t.finish(id, time.Now())
}

// pending appends an open span; finish fills in its end time.
func (t *Tracer) pending(ctx *reqCtx, id, parent uint64, layer, name string, member, docs int, start time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: ctx.id, Layer: layer,
		Name: name, Member: member, Docs: docs, Start: t.ns(start), End: -1})
	t.mu.Unlock()
}

func (t *Tracer) finish(id uint64, at time.Time) {
	end := t.ns(at)
	t.mu.Lock()
	// Spans close in roughly reverse open order, so the search from the
	// tail is short.
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = end
			break
		}
	}
	t.mu.Unlock()
}

// Spans returns the closed spans recorded so far.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// WriteFile writes every closed span as one JSON object per line.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Self time
// ---------------------------------------------------------------------------

// selfTimes charges every instant of each request's root span to exactly
// one span and returns each span's self time, keyed by span id. Walking
// back from a span's end, the child that finished last (within the window
// still uncovered) is the one the span was waiting for; the gaps between
// such children are the span's own time. With sequential children this is
// the span's duration minus the time its children cover. With parallel
// children (a replicated fan-out) only the child the parent waited for
// counts, and a child still running after its parent returned (a straggling
// replica) is off the critical path and gets no share.
func selfTimes(spans []Span) map[uint64]int64 {
	children := make(map[uint64][]int, len(spans))
	var roots []int
	for i, s := range spans {
		if isRoot(s) {
			roots = append(roots, i)
		} else if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[uint64]int64, len(spans))
	var charge func(i int, lo, hi int64)
	charge = func(i int, lo, hi int64) {
		kids := children[spans[i].ID]
		// Latest end first: each step picks the last-finishing child that
		// ended inside the uncovered window.
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].End > spans[kids[b]].End })
		t := hi
		for _, k := range kids {
			c := spans[k]
			if c.End > t || c.End <= lo {
				continue // straggler, or entirely before the window
			}
			self[spans[i].ID] += t - c.End
			start := c.Start
			if start < lo {
				start = lo
			}
			charge(k, start, c.End)
			t = start
			if t <= lo {
				break
			}
		}
		if t > lo {
			self[spans[i].ID] += t - lo
		}
	}
	for _, r := range roots {
		charge(r, spans[r].Start, spans[r].End)
	}
	return self
}

// isRoot reports whether s is a request's root span. A span whose parent
// slot was empty when it opened also has parent 0; it belongs to no request
// and is ignored.
func isRoot(s Span) bool { return s.Parent == 0 && s.Layer == layerGen }

// layerKey identifies one row of the breakdown: a layer and an operation.
type layerKey struct{ layer, name string }

// Breakdown aggregates a traced run.
type Breakdown struct {
	Requests  int
	MeanE2E   float64 // mean root span duration, ns
	SelfTotal map[string]int64
	// Self and Dur hold per-span self time and duration by layer and name.
	Self map[layerKey][]int64
	Dur  map[layerKey][]int64
	// MemberPut holds put durations by replica index.
	MemberPut [maxMembers][]int64
	// Docs counts the documents of spans by layer and name.
	Docs map[layerKey]int64
	// WthAckSelf is the replicated layer's put self time measured against
	// the W-th member acknowledgement.
	WthAckSelf []int64
}

// Analyze computes the breakdown of a set of spans; w is the replicated
// write quorum (0 when there is no replicated layer).
func Analyze(spans []Span, w int) *Breakdown {
	self := selfTimes(spans)
	b := &Breakdown{SelfTotal: map[string]int64{}, Self: map[layerKey][]int64{},
		Dur: map[layerKey][]int64{}, Docs: map[layerKey]int64{}}
	var e2e int64
	byParent := map[uint64][]Span{}
	for _, s := range spans {
		if s.Layer == layerMember {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		if isRoot(s) {
			b.Requests++
			e2e += d
		}
		k := layerKey{s.Layer, s.Name}
		b.SelfTotal[s.Layer] += self[s.ID]
		b.Self[k] = append(b.Self[k], self[s.ID])
		b.Dur[k] = append(b.Dur[k], d)
		b.Docs[k] += int64(s.Docs)
		if s.Layer == layerMember && s.Name == opPut && s.Member >= 0 && s.Member < maxMembers {
			b.MemberPut[s.Member] = append(b.MemberPut[s.Member], d)
		}
		if s.Layer == layerReplicated && s.Name == opPut && w > 0 {
			ms := byParent[s.ID]
			if len(ms) >= w {
				ends := make([]int64, len(ms))
				for i, m := range ms {
					ends[i] = m.End
				}
				sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
				first := ms[0].Start
				for _, m := range ms {
					if m.Start < first {
						first = m.Start
					}
				}
				b.WthAckSelf = append(b.WthAckSelf, (first-s.Start)+(s.End-ends[w-1]))
			}
		}
	}
	if b.Requests > 0 {
		b.MeanE2E = float64(e2e) / float64(b.Requests)
	}
	return b
}

// SelfSum returns the sum over layers of the mean self time per request, ns.
func (b *Breakdown) SelfSum() float64 {
	if b.Requests == 0 {
		return 0
	}
	var sum int64
	for _, v := range b.SelfTotal {
		sum += v
	}
	return float64(sum) / float64(b.Requests)
}

// MeanSelfMs is the mean self time of spans of one layer and operation, ms.
func (b *Breakdown) MeanSelfMs(layer, name string) float64 {
	return meanMs(b.Self[layerKey{layer, name}])
}

// PerDocUs is the self time of spans of one layer and operation per
// document they processed, microseconds.
func (b *Breakdown) PerDocUs(layer, name string) float64 {
	k := layerKey{layer, name}
	if b.Docs[k] == 0 {
		return 0
	}
	var sum int64
	for _, v := range b.Self[k] {
		sum += v
	}
	return float64(sum) / float64(b.Docs[k]) / 1e3
}

// Table renders the per-layer mean self time per request.
func (b *Breakdown) Table() []string {
	var out []string
	if b.Requests == 0 {
		return out
	}
	for _, l := range layerOrder {
		v, ok := b.SelfTotal[l]
		if !ok {
			continue
		}
		ms := float64(v) / float64(b.Requests) / 1e6
		out = append(out, fmt.Sprintf("  %-26s %9.4f ms  %5.1f%%", l, ms, 100*ms*1e6/b.MeanE2E))
	}
	out = append(out, fmt.Sprintf("  %-26s %9.4f ms  (mean end-to-end %.4f ms over %d requests)",
		"sum of self", b.SelfSum()/1e6, b.MeanE2E/1e6, b.Requests))
	return out
}

func meanMs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v)) / 1e6
}
