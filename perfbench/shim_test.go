package main

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"trustedcells/internal/cloud"
)

// TestShimPassesThrough runs the same operations on a bare store and on one
// behind a traced shim and requires identical results, errors included.
func TestShimPassesThrough(t *testing.T) {
	tr := NewTracer(1)
	tr.SetOn(true)
	bare := cloud.NewMemory()
	shimmed := newShim(cloud.NewMemory(), tr, layerDurable, slotBackend, slotAdmission, -1, -1)
	ctx := tr.Begin(0, time.Now(), opPut)
	defer tr.End(0, ctx, time.Now())

	for _, svc := range []cloud.Service{bare, shimmed} {
		if _, ok := svc.(cloud.BatchService); !ok {
			t.Fatalf("%T does not implement BatchService", svc)
		}
	}
	puts := []cloud.BlobPut{{Name: "t/t0/a", Data: []byte("one")}, {Name: "t/t0/b", Data: []byte("two")}}
	type result struct {
		Versions []int
		Blobs    []cloud.Blob
		Single   cloud.Blob
		Names    []string
		Missing  bool
		Msgs     []cloud.Message
		Cond     []cloud.Blob
	}
	run := func(svc cloud.Service) result {
		var r result
		var err error
		if r.Versions, err = cloud.PutBlobsVia(svc, puts); err != nil {
			t.Fatal(err)
		}
		if _, err = svc.PutBlob("t/t0/a", []byte("uno")); err != nil {
			t.Fatal(err)
		}
		if r.Blobs, err = cloud.GetBlobsVia(svc, []string{"t/t0/a", "t/t0/missing", "t/t0/b"}); err != nil {
			t.Fatal(err)
		}
		if r.Single, err = svc.GetBlob("t/t0/b"); err != nil {
			t.Fatal(err)
		}
		_, err = svc.GetBlob("t/t0/missing")
		r.Missing = errors.Is(err, cloud.ErrBlobNotFound)
		if err := svc.DeleteBlob("t/t0/b"); err != nil {
			t.Fatal(err)
		}
		if r.Names, err = svc.ListBlobs("t/t0/"); err != nil {
			t.Fatal(err)
		}
		if err := svc.Send(cloud.Message{ID: "m1", From: "x", To: "y", Body: []byte("hi")}); err != nil {
			t.Fatal(err)
		}
		if r.Msgs, err = svc.Receive("y", 10); err != nil {
			t.Fatal(err)
		}
		if r.Cond, err = cloud.GetBlobsIfVia(svc, []cloud.CondGet{{Name: "t/t0/a", IfNewer: 1}}); err != nil {
			t.Fatal(err)
		}
		for i := range r.Blobs {
			r.Blobs[i].Stored = time.Time{}
		}
		r.Single.Stored = time.Time{}
		for i := range r.Msgs {
			r.Msgs[i].Sent = time.Time{}
		}
		for i := range r.Cond {
			r.Cond[i].Stored = time.Time{}
		}
		return r
	}
	want, got := run(bare), run(shimmed)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("shim changed results:\n bare %+v\n shim %+v", want, got)
	}
	if !want.Missing {
		t.Fatal("missing blob did not report ErrBlobNotFound")
	}
	// Two puts and three gets were timed; the request's root is still open.
	if n := len(tr.Spans()); n != 5 {
		t.Fatalf("%d closed spans, want 5", n)
	}
}

func TestTenantOf(t *testing.T) {
	for name, want := range map[string]int{"t/t0/x": 0, "t/t7/fleet/c1": 7, "t/tx/a": -1, "vault/1": -1, "t/t12/a": -1} {
		if got := tenantOf(name); got != want {
			t.Errorf("tenantOf(%q) = %d, want %d", name, got, want)
		}
	}
}
