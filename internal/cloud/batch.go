package cloud

// This file defines the optional batch extension of Service. A fleet of edge
// cells talking to a shared remote provider is dominated by round-trips, not
// by bytes: uploading a vault one blob at a time costs one RTT per blob. The
// batch API lets a cell hand the provider many blobs in a single exchange;
// implementations that can exploit it (the sharded Memory, the TCP client)
// advertise it by implementing BatchService, and the PutBlobsVia /
// GetBlobsVia helpers degrade gracefully to per-blob calls on any other
// Service.

// BlobPut is one named payload of a batched upload.
type BlobPut struct {
	Name string
	Data []byte
}

// BatchService is the optional batch extension of Service. Callers should not
// type-assert it themselves; PutBlobsVia and GetBlobsVia pick the fast path
// when it exists.
type BatchService interface {
	// PutBlobs stores every blob and returns the new version of each, in
	// argument order. The whole batch shares one round-trip.
	PutBlobs(puts []BlobPut) ([]int, error)
	// GetBlobs returns the latest version of each named blob in argument
	// order. Missing names yield a zero Blob (Version 0) at their position;
	// only service-level failures return an error.
	GetBlobs(names []string) ([]Blob, error)
}

// CondGet names one blob of a conditional batched fetch: the blob's data is
// wanted only if its stored version is strictly greater than IfNewer. Passing
// IfNewer 0 fetches unconditionally.
type CondGet struct {
	Name    string
	IfNewer int
}

// ConditionalBatchService is the optional conditional-fetch extension of
// Service. It is what makes delta synchronization cheap: a replica lists every
// shard it replicates together with the last version it merged, and the
// provider ships payload bytes only for the shards that actually advanced —
// the HTTP analogy is a batched If-None-Match. Callers should not type-assert
// it themselves; GetBlobsIfVia picks the fast path when it exists.
type ConditionalBatchService interface {
	// GetBlobsIf returns one Blob per request, in argument order. A blob whose
	// stored version is still <= IfNewer comes back with its current Version
	// but nil Data; a missing name yields a zero Blob (Version 0). The whole
	// batch shares one round-trip.
	GetBlobsIf(gets []CondGet) ([]Blob, error)
}

// PutBlobsVia uploads a batch of blobs through svc, using the BatchService
// fast path when svc implements it and falling back to sequential PutBlob
// calls otherwise. The fallback stops at the first error.
func PutBlobsVia(svc Service, puts []BlobPut) ([]int, error) {
	if bs, ok := svc.(BatchService); ok {
		return bs.PutBlobs(puts)
	}
	versions := make([]int, len(puts))
	for i, p := range puts {
		v, err := svc.PutBlob(p.Name, p.Data)
		if err != nil {
			return nil, err
		}
		versions[i] = v
	}
	return versions, nil
}

// GetBlobsVia fetches a batch of blobs through svc, using the BatchService
// fast path when svc implements it and falling back to sequential GetBlob
// calls otherwise. In the fallback, a missing blob yields a zero Blob at its
// position, matching BatchService semantics; other errors abort the batch.
func GetBlobsVia(svc Service, names []string) ([]Blob, error) {
	if bs, ok := svc.(BatchService); ok {
		return bs.GetBlobs(names)
	}
	blobs := make([]Blob, len(names))
	for i, name := range names {
		b, err := svc.GetBlob(name)
		if err == ErrBlobNotFound {
			continue
		}
		if err != nil {
			return nil, err
		}
		blobs[i] = b
	}
	return blobs, nil
}

// GetBlobsIfVia fetches a batch of blobs conditionally through svc, using the
// ConditionalBatchService fast path when svc implements it. On any other
// Service it degrades to a plain batched fetch and discards the data of blobs
// that did not advance client-side — correct, but without the bandwidth
// savings the conditional protocol exists for.
func GetBlobsIfVia(svc Service, gets []CondGet) ([]Blob, error) {
	if cs, ok := svc.(ConditionalBatchService); ok {
		return cs.GetBlobsIf(gets)
	}
	names := make([]string, len(gets))
	for i, g := range gets {
		names[i] = g.Name
	}
	blobs, err := GetBlobsVia(svc, names)
	if err != nil {
		return nil, err
	}
	for i := range blobs {
		if blobs[i].Version <= gets[i].IfNewer {
			blobs[i].Data = nil
		}
	}
	return blobs, nil
}
