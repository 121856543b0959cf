package main

// Timing shims: a cloud.Service wrapper the benchmark inserts at each
// boundary it composes (frame client, admission entry, replicated layer,
// each replicated member, durable store). A shim only records spans around
// blob puts and gets; every call, traced or not, passes its arguments and
// results through unchanged.

import (
	"strings"

	"trustedcells/internal/cloud"
)

const (
	opPut = "put"
	opGet = "get"
)

// shim wraps one Service boundary. Client-side shims know their tenant
// connection; server-side shims (tenant < 0) find the request from the
// tenant prefix the front door's name rewrite puts on every blob name.
type shim struct {
	inner      cloud.Service
	tr         *Tracer
	layer      string
	slot       int
	parentSlot int
	member     int
	tenant     int
}

func newShim(inner cloud.Service, tr *Tracer, layer string, slot, parentSlot, member, tenant int) *shim {
	return &shim{inner: inner, tr: tr, layer: layer, slot: slot, parentSlot: parentSlot, member: member, tenant: tenant}
}

// tenantOf parses the tenant index out of a rewritten blob name
// "t/t<digit>/...".
func tenantOf(name string) int {
	if len(name) < 5 || !strings.HasPrefix(name, "t/t") || name[4] != '/' {
		return -1
	}
	d := int(name[3]) - '0'
	if d < 0 || d > 9 {
		return -1
	}
	return d
}

func (s *shim) start(name, op string) (*reqCtx, uint64) {
	if !s.tr.active() {
		return nil, 0
	}
	tenant := s.tenant
	if tenant < 0 {
		tenant = tenantOf(name)
	}
	ctx := s.tr.current(tenant)
	return ctx, s.tr.open(ctx, s.slot, s.parentSlot, s.layer, op, s.member)
}

func (s *shim) end(ctx *reqCtx, id uint64) { s.tr.close(ctx, s.slot, id) }

// PutBlob implements cloud.Service.
func (s *shim) PutBlob(name string, data []byte) (int, error) {
	ctx, id := s.start(name, opPut)
	v, err := s.inner.PutBlob(name, data)
	s.end(ctx, id)
	return v, err
}

// GetBlob implements cloud.Service.
func (s *shim) GetBlob(name string) (cloud.Blob, error) {
	ctx, id := s.start(name, opGet)
	b, err := s.inner.GetBlob(name)
	s.end(ctx, id)
	return b, err
}

// PutBlobs implements cloud.BatchService.
func (s *shim) PutBlobs(puts []cloud.BlobPut) ([]int, error) {
	var first string
	if len(puts) > 0 {
		first = puts[0].Name
	}
	ctx, id := s.start(first, opPut)
	v, err := cloud.PutBlobsVia(s.inner, puts)
	s.end(ctx, id)
	return v, err
}

// GetBlobs implements cloud.BatchService.
func (s *shim) GetBlobs(names []string) ([]cloud.Blob, error) {
	var first string
	if len(names) > 0 {
		first = names[0]
	}
	ctx, id := s.start(first, opGet)
	b, err := cloud.GetBlobsVia(s.inner, names)
	s.end(ctx, id)
	return b, err
}

// GetBlobsIf implements cloud.ConditionalBatchService.
func (s *shim) GetBlobsIf(gets []cloud.CondGet) ([]cloud.Blob, error) {
	return cloud.GetBlobsIfVia(s.inner, gets)
}

// DeleteBlob implements cloud.Service.
func (s *shim) DeleteBlob(name string) error { return s.inner.DeleteBlob(name) }

// ListBlobs implements cloud.Service.
func (s *shim) ListBlobs(prefix string) ([]string, error) { return s.inner.ListBlobs(prefix) }

// Send implements cloud.Service.
func (s *shim) Send(msg cloud.Message) error { return s.inner.Send(msg) }

// Receive implements cloud.Service.
func (s *shim) Receive(recipient string, max int) ([]cloud.Message, error) {
	return s.inner.Receive(recipient, max)
}

// Stats implements cloud.Service.
func (s *shim) Stats() cloud.Stats { return s.inner.Stats() }
