package cloud

import (
	"errors"
	"sync"
)

// Redialer is a Service over a remote server that re-dials its address when
// the underlying connection dies. A plain FrameClient is pinned to one TCP
// connection, so a fleet member that restarts would stay unreachable for the
// life of the coordinator; wrapped in a Redialer, the member's next probe
// after it comes back up establishes a fresh connection and the hinted
// handoff drain can bring it current (DESIGN.md §9.3). Remote semantic
// errors (ErrBlobNotFound, ErrMailboxEmpty, ErrUnavailable, quorum errors,
// whatever their text) pass through without touching the connection; only
// the client's own transport failures — dial, send, receive — discard it.
// Concurrent calls share the one multiplexed connection.
type Redialer struct {
	addr string

	mu     sync.Mutex
	client *FrameClient
}

// NewRedialer returns a Redialer for addr. No connection is established
// until the first call, so a Redialer can be created for a member that is
// not up yet.
func NewRedialer(addr string) *Redialer {
	return &Redialer{addr: addr}
}

// Close closes the current connection, if any. The next call re-dials.
func (r *Redialer) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == nil {
		return nil
	}
	err := r.client.Close()
	r.client = nil
	return err
}

// get returns the current client, dialing if necessary.
func (r *Redialer) get() (*FrameClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == nil {
		c, err := DialFramed(r.addr)
		if err != nil {
			return nil, err
		}
		r.client = c
	}
	return r.client, nil
}

// transportError reports whether err means the connection itself is broken
// (as opposed to a semantic error relayed from the remote store).
func transportError(err error) bool { return errors.Is(err, errTransport) }

// drop discards the connection so the next call re-dials, but only if it is
// still the one that failed (a concurrent caller may have re-dialed already).
func (r *Redialer) drop(c *FrameClient) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client == c {
		_ = c.Close()
		r.client = nil
	}
}

// redo runs fn against the current connection, discarding it on a
// transport failure so the next call starts fresh. The failed call itself is
// not retried: the caller is the replication layer, which already treats a
// member error as "hint and move on" — retrying here would double-apply
// operations whose response was lost in flight.
func redo[T any](r *Redialer, fn func(c *FrameClient) (T, error)) (T, error) {
	c, err := r.get()
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := fn(c)
	if transportError(err) {
		r.drop(c)
	}
	return v, err
}

// PutBlob implements Service.
func (r *Redialer) PutBlob(name string, data []byte) (int, error) {
	return redo(r, func(c *FrameClient) (int, error) { return c.PutBlob(name, data) })
}

// GetBlob implements Service.
func (r *Redialer) GetBlob(name string) (Blob, error) {
	return redo(r, func(c *FrameClient) (Blob, error) { return c.GetBlob(name) })
}

// DeleteBlob implements Service.
func (r *Redialer) DeleteBlob(name string) error {
	_, err := redo(r, func(c *FrameClient) (struct{}, error) { return struct{}{}, c.DeleteBlob(name) })
	return err
}

// ListBlobs implements Service.
func (r *Redialer) ListBlobs(prefix string) ([]string, error) {
	return redo(r, func(c *FrameClient) ([]string, error) { return c.ListBlobs(prefix) })
}

// Send implements Service.
func (r *Redialer) Send(msg Message) error {
	_, err := redo(r, func(c *FrameClient) (struct{}, error) { return struct{}{}, c.Send(msg) })
	return err
}

// Receive implements Service.
func (r *Redialer) Receive(recipient string, max int) ([]Message, error) {
	return redo(r, func(c *FrameClient) ([]Message, error) { return c.Receive(recipient, max) })
}

// Stats implements Service.
func (r *Redialer) Stats() Stats {
	c, err := r.get()
	if err != nil {
		return Stats{}
	}
	return c.Stats()
}

// PutBlobs implements BatchService.
func (r *Redialer) PutBlobs(puts []BlobPut) ([]int, error) {
	return redo(r, func(c *FrameClient) ([]int, error) { return c.PutBlobs(puts) })
}

// GetBlobs implements BatchService.
func (r *Redialer) GetBlobs(names []string) ([]Blob, error) {
	return redo(r, func(c *FrameClient) ([]Blob, error) { return c.GetBlobs(names) })
}

// GetBlobsIf implements ConditionalBatchService.
func (r *Redialer) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	return redo(r, func(c *FrameClient) ([]Blob, error) { return c.GetBlobsIf(gets) })
}

// String names the wrapper for logs.
func (r *Redialer) String() string { return "redial(" + r.addr + ")" }

// interface conformance
var (
	_ Service                 = (*Redialer)(nil)
	_ BatchService            = (*Redialer)(nil)
	_ ConditionalBatchService = (*Redialer)(nil)
)
