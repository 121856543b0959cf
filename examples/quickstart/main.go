// Quickstart: create a trusted cell, acquire a document into the personal
// data space, define an access policy, and watch the reference monitor allow
// the household and deny a stranger — with every decision audited.
package main

import (
	"fmt"
	"log"

	"trustedcells"
)

func main() {
	// The untrusted infrastructure: here an in-process memory cloud; for a
	// real network deployment, trustedcells.DialCloud("host:port") connects
	// to a cmd/tccloud server over its framed, multiplexed protocol.
	svc := trustedcells.NewMemoryCloud()

	cell, err := trustedcells.NewCell(trustedcells.CellConfig{
		ID:    "alice-gateway",
		Class: trustedcells.ClassHomeGateway,
		Cloud: svc,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Acquire a document. The payload is sealed inside the cell; only
	// ciphertext reaches the cloud.
	doc, err := cell.Ingest([]byte("January pay slip: 2,345.67 EUR"), trustedcells.IngestOptions{
		Class:    trustedcells.ClassExternal,
		Type:     "pay-slip",
		Title:    "January pay slip",
		Keywords: []string{"salary", "2013"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %s (%d bytes), blob %s\n", doc.ID, doc.Size, doc.BlobRef)

	// 2. Define who may do what. The policy is closed by default.
	if err := cell.AddRule(trustedcells.Rule{
		ID:         "household-reads-docs",
		Effect:     trustedcells.EffectAllow,
		SubjectIDs: []string{"alice", "bob"},
		Actions:    []trustedcells.Action{trustedcells.ActionRead},
	}); err != nil {
		log.Fatal(err)
	}

	// 3. Requests go through the reference monitor.
	if payload, err := cell.Read("bob", doc.ID, trustedcells.AccessContext{}); err == nil {
		fmt.Printf("bob read %d bytes: %q\n", len(payload), payload)
	} else {
		log.Fatalf("bob should have access: %v", err)
	}
	if _, err := cell.Read("acme-marketing", doc.ID, trustedcells.AccessContext{}); err != nil {
		fmt.Printf("acme-marketing denied: %v\n", err)
	}

	// 4. Metadata-first search never touches the cloud.
	docs, err := cell.Search(trustedcells.Query{Keyword: "salary"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d document(s) for keyword \"salary\"\n", len(docs))

	// 5. Everything is accountable.
	fmt.Println("audit trail:")
	for _, rec := range cell.AuditLog().Records() {
		fmt.Printf("  #%d %-18s actor=%-15s outcome=%s\n", rec.Seq, rec.Action, rec.Actor, rec.Outcome)
	}
	if err := cell.AuditLog().Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("audit hash chain verified")
}
