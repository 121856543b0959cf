package main

// The cell-owner loader: one core.Cell of the home-gateway class, with
// access rules and a usage policy, ingesting and reading its own vault over
// one framed connection to the front door. Each cycle ingests a batch, reads
// as the owner, reads as an allowed third party, tries a read as a denied
// subject, and runs a keyword search.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/core"
	"trustedcells/internal/crypto"
	"trustedcells/internal/datamodel"
	"trustedcells/internal/policy"
	"trustedcells/internal/tamper"
	"trustedcells/internal/ucon"
)

const (
	cellID       = "home-gateway"
	ownerSubj    = "owner"
	allowedSubj  = "doctor"
	deniedSubj   = "stranger"
	cellBatch    = 32
	cellReads    = 32
	cellDenied   = 8
	cellPayload  = 1024
	cellKeywords = 64
	cellStream   = -1 // payload stream of the cell's documents
)

type cellLoader struct {
	cell    *core.Cell
	seed    int64
	rng     *rand.Rand
	tr      *Tracer
	docs    []*datamodel.Document
	seqOf   map[string]uint32 // doc ID → payload sequence
	kwCount map[string]int
	want    []byte

	scanned, matched int64
}

func keyword(i int) string { return fmt.Sprintf("kw%02d", i) }

// newCellLoader provisions the cell and its policies on client.
func newCellLoader(seed int64, client cloud.Service, tr *Tracer) (*cellLoader, error) {
	cell, err := core.New(core.Config{ID: cellID, Class: tamper.ClassHomeGateway,
		Cloud: client, Seed: []byte(fmt.Sprintf("perfbench-cell-%d", seed))})
	if err != nil {
		return nil, err
	}
	rules := []policy.Rule{
		{ID: "owner-all", Effect: policy.EffectAllow, SubjectIDs: []string{ownerSubj}},
		{ID: "doctor-notes", Effect: policy.EffectAllow, SubjectIDs: []string{allowedSubj},
			Actions: []policy.Action{policy.ActionRead}, Resource: policy.Resource{Type: "note"}},
		{ID: "deny-stranger", Effect: policy.EffectDeny, SubjectIDs: []string{deniedSubj}},
	}
	for _, r := range rules {
		if err := cell.AddRule(r); err != nil {
			return nil, err
		}
	}
	return &cellLoader{cell: cell, seed: seed, rng: rand.New(rand.NewSource(seed)), tr: tr,
		seqOf: map[string]uint32{}, kwCount: map[string]int{}, want: make([]byte, cellPayload)}, nil
}

// step runs one operation of a cycle as its own request.
func (c *cellLoader) step(name string, st *runStats, rec func(time.Time, time.Duration), op func() (int, error)) {
	// A closed-loop request is due when its predecessor completes.
	due := time.Now()
	st.noteBacklog(1)
	st.recordLate(due, time.Since(due))
	ctx := c.tr.Begin(0, due, name)
	span := c.tr.open(ctx, slotCell, slotRoot, layerCell, name, -1)
	docs, err := op()
	c.tr.close(ctx, slotCell, span)
	done := time.Now()
	c.tr.End(0, ctx, done)
	st.attempted.Add(1)
	if err != nil {
		st.failed.Add(1)
		st.violate("%s: %v", name, err)
		return
	}
	st.docs.Add(int64(docs))
	if rec != nil {
		rec(due, done.Sub(due))
	}
}

func (c *cellLoader) userBytes() int64 { return int64(len(c.docs) * cellPayload) }

// cycle runs ingest, owner read, third-party read, denied read and search.
func (c *cellLoader) cycle(st *runStats) {
	write := func(due time.Time, d time.Duration) { st.record(true, due, d) }
	read := func(due time.Time, d time.Duration) { st.record(false, due, d) }
	search := func(_ time.Time, d time.Duration) { st.search.Record(d) }
	c.step(opPut, st, write, c.ingest)
	c.step(opGet, st, read, func() (int, error) { return c.readAs(ownerSubj, cellReads, st) })
	c.step(opGet, st, read, func() (int, error) { return c.readAs(allowedSubj, cellReads, st) })
	c.step("denied", st, nil, func() (int, error) { return c.readDenied(st) })
	c.step("search", st, search, func() (int, error) { return c.search(st) })
}

// ingestBurst ingests n batches.
func (c *cellLoader) ingestBurst(n int, st *runStats) {
	for i := 0; i < n; i++ {
		st.attempted.Add(1)
		if _, err := c.ingest(); err != nil {
			st.failed.Add(1)
			st.violate("recovery tail ingest: %v", err)
		}
	}
}

func (c *cellLoader) ingest() (int, error) {
	items := make([]core.IngestItem, cellBatch)
	first := uint32(len(c.docs))
	for i := range items {
		p := make([]byte, cellPayload)
		payloadFor(p, c.seed, cellStream, first+uint32(i))
		a, b := c.rng.Intn(cellKeywords), c.rng.Intn(cellKeywords)
		kws := []string{keyword(a)}
		if b != a {
			kws = append(kws, keyword(b))
		}
		items[i] = core.IngestItem{Payload: p, Opts: core.IngestOptions{Class: datamodel.ClassAuthored,
			Type: "note", Title: fmt.Sprintf("note %d", first+uint32(i)), Keywords: kws}}
	}
	docs, err := c.cell.IngestBatch(items)
	if err != nil {
		return 0, err
	}
	for i, d := range docs {
		c.seqOf[d.ID] = first + uint32(i)
		for _, k := range d.Keywords {
			c.kwCount[k]++
		}
		if err := c.cell.AttachUsagePolicy(ucon.Policy{ObjectID: d.ID}); err != nil {
			return 0, err
		}
	}
	c.docs = append(c.docs, docs...)
	return len(docs), nil
}

func (c *cellLoader) pick(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = c.docs[c.rng.Intn(len(c.docs))].ID
	}
	return ids
}

func (c *cellLoader) readAs(subject string, n int, st *runStats) (int, error) {
	ids := c.pick(n)
	for _, r := range c.cell.ReadBatch(subject, ids, core.AccessContext{}) {
		if r.Err != nil {
			return 0, fmt.Errorf("read %s as %s: %w", r.DocID, subject, r.Err)
		}
		payloadFor(c.want, c.seed, cellStream, c.seqOf[r.DocID])
		if !bytes.Equal(r.Payload, c.want) {
			st.violate("read %s as %s: payload differs from the seeded one", r.DocID, subject)
		}
	}
	return n, nil
}

func (c *cellLoader) readDenied(st *runStats) (int, error) {
	for _, r := range c.cell.ReadBatch(deniedSubj, c.pick(cellDenied), core.AccessContext{}) {
		if !errors.Is(r.Err, core.ErrAccessDenied) {
			st.violate("read %s as %s was not denied (err=%v)", r.DocID, deniedSubj, r.Err)
		}
	}
	return 0, nil
}

func (c *cellLoader) search(st *runStats) (int, error) {
	kw := keyword(c.rng.Intn(cellKeywords))
	docs, info, err := c.cell.SearchPlan(datamodel.Query{Keyword: kw})
	if err != nil {
		return 0, err
	}
	if len(docs) != c.kwCount[kw] {
		st.violate("search %s returned %d documents, %d carry it", kw, len(docs), c.kwCount[kw])
	}
	c.scanned += int64(info.Scanned)
	c.matched += int64(info.Matched)
	return 0, nil
}

// verifyCloud reads every ingested document's envelope back from svc (the
// recovered store), opens it with the owner's document key, checks that
// it is bound to the document's name and that it matches the seeded
// payload. It returns the number checked.
func (c *cellLoader) verifyCloud(svc cloud.Service, st *runStats) (int64, error) {
	keys, err := c.cell.TEE().KeyHierarchy()
	if err != nil {
		return 0, err
	}
	names := make([]string, len(c.docs))
	for i, d := range c.docs {
		names[i] = tenantPrefix(0) + d.BlobRef
	}
	blobs, err := cloud.GetBlobsVia(svc, names)
	if err != nil {
		return 0, err
	}
	var buf []byte
	for i, b := range blobs {
		d := c.docs[i]
		if b.Version == 0 {
			st.violate("acknowledged document %s missing after recovery", d.ID)
			continue
		}
		plain, ad, err := crypto.OpenTo(buf[:0], keys.DocumentKey(d.ID), b.Data)
		if err != nil {
			st.violate("document %s does not open: %v", d.ID, err)
			continue
		}
		buf = plain
		if string(ad) != "doc:"+cellID+":"+d.ID {
			st.violate("document %s is bound to %q", d.ID, ad)
		}
		payloadFor(c.want, c.seed, cellStream, c.seqOf[d.ID])
		if !bytes.Equal(plain, c.want) {
			st.violate("document %s differs from its seeded payload after recovery", d.ID)
		}
	}
	return int64(len(blobs)), nil
}
