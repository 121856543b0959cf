package cloud

// This file is the wire protocol between cells and the untrusted
// infrastructure: a connection-multiplexed framed protocol. Every request is
// tagged with an id and responses return in completion order, so one TCP
// connection carries any number of concurrent operations, a slow operation
// never stalls the ones queued behind it, and tens of thousands of
// simulated cells share a handful of sockets in experiment E14.
//
// Frame layout (DESIGN.md §11.2):
//
//	[4B big-endian length][8B big-endian request id][payload]
//
// where length counts the id plus the payload (so length >= 8), and the
// payload is the binary rpcRequest/rpcResponse codec of tcp.go, executed by
// dispatch(). Each frame is encoded into one buffer behind a reserved header
// and leaves in one write. Request ids are chosen by the client, must be
// unique among its in-flight requests, and are echoed on the response;
// nothing else is read into them. A payload the codec rejects — JSON
// included — is answered on its id with a malformed-payload error and the
// connection stays up. A frame whose declared length exceeds the server's
// MaxFrameBytes is answered with a typed error frame and the connection is
// closed (the remaining bytes are unread, so the stream cannot be
// resynchronized). A torn frame — the connection dying mid-frame — just
// closes the connection; the client fails all in-flight calls.
//
// An optional first frame with Op "hello" and Name <tenant> binds the
// connection to that tenant's namespaced view (see Tenants). Connections
// that skip the hello — cells, and a replicated coordinator's members —
// talk to the server's default backend.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
)

// DefaultMaxFrameBytes caps a frame's declared length (id + payload) unless
// FrameServerOptions overrides it. 16 MiB comfortably fits the largest
// batch the experiments ship while bounding a malicious client's ability to
// make the server allocate.
const DefaultMaxFrameBytes = 16 << 20

// frameHeaderSize is the fixed prefix: 4 bytes length + 8 bytes request id.
const frameHeaderSize = 12

// maxFramePayload is the largest payload the 4-byte length can declare.
const maxFramePayload = 1<<32 - 1 - 8

// eagerFrameBytes is the largest frame body readFrame allocates up front
// from the declared length. A larger body grows as its bytes arrive, so a
// peer that declares a huge frame costs memory only for what it sends.
const eagerFrameBytes = 1 << 20

// opHello is the reserved op binding a connection to a tenant.
const opHello = "hello"

// errFrameTooLarge is the wire message sent before closing a connection
// that declared an oversized frame. It also answers a request whose
// response the frame format cannot carry, and refuses locally a request it
// cannot carry.
const errFrameTooLarge = "cloud: frame exceeds size limit"

// newFrame returns an empty frame buffer: the header is reserved, and a
// payload of up to size bytes appends without growing it.
func newFrame(size int) []byte {
	return make([]byte, frameHeaderSize, frameHeaderSize+size)
}

// sendFrame fills the header reserved at the front of frame and writes the
// whole frame in one call. Callers serialize access to w.
func sendFrame(w io.Writer, id uint64, frame []byte) error {
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	binary.BigEndian.PutUint64(frame[4:frameHeaderSize], id)
	_, err := w.Write(frame)
	return err
}

// readFrame reads one frame, rejecting declared lengths above maxBytes with
// errTooLarge (after consuming the 8-byte id so the caller can answer it).
// The payload is freshly allocated and never reused, so the decoded blobs
// that alias it stay valid.
var errTooLarge = errors.New("cloud: frame too large")

func readFrame(r io.Reader, maxBytes int) (id uint64, payload []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:4])
	if length < 8 {
		return 0, nil, fmt.Errorf("cloud: malformed frame length %d", length)
	}
	id = binary.BigEndian.Uint64(hdr[4:12])
	if int(length) > maxBytes {
		// The id is read so the peer can be told which request died; the
		// unread payload makes the stream unrecoverable and the caller must
		// close the connection.
		return id, nil, errTooLarge
	}
	if length-8 > eagerFrameBytes {
		var buf bytes.Buffer
		if _, err := io.CopyN(&buf, r, int64(length-8)); err != nil {
			return 0, nil, err
		}
		return id, buf.Bytes(), nil
	}
	payload = make([]byte, length-8)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return id, payload, nil
}

// FrameServerOptions tunes a FrameServer. The zero value gets defaults from
// NewFrameServer.
type FrameServerOptions struct {
	// MaxFrameBytes rejects frames declaring more than this many bytes
	// (id + payload). Default DefaultMaxFrameBytes.
	MaxFrameBytes int
	// PerConnWorkers bounds the requests one connection may have executing
	// concurrently; beyond it the read loop blocks, which is per-connection
	// flow control, not shedding (the Admission layer sheds). Default 32.
	PerConnWorkers int
	// Tenants, when set, lets connections bind to a tenant namespace with a
	// hello frame. Connections that never say hello use the default
	// backend.
	Tenants *Tenants
}

// FrameServer serves a Service over the framed multiplexed protocol. Each
// connection gets one reader goroutine plus up to PerConnWorkers dispatch
// goroutines; response frames are serialized by a per-connection write
// mutex, so responses from concurrent requests interleave at frame
// granularity, never mid-frame. Safe for concurrent use; Serve may be
// called once per listener.
type FrameServer struct {
	svc  Service
	opts FrameServerOptions
	wg   sync.WaitGroup

	mu     sync.Mutex
	ln     net.Listener
	closed bool
}

// NewFrameServer wraps svc; call Serve to start accepting connections.
func NewFrameServer(svc Service, opts FrameServerOptions) *FrameServer {
	if opts.MaxFrameBytes <= 0 {
		opts.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if opts.PerConnWorkers <= 0 {
		opts.PerConnWorkers = 32
	}
	return &FrameServer{svc: svc, opts: opts}
}

// Serve accepts connections on ln until Close is called. It returns after
// the listener is closed and every connection handler has exited.
func (s *FrameServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return fmt.Errorf("cloud: accept: %w", err)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops the server; in-flight connections are abandoned when their
// sockets close.
func (s *FrameServer) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// frameConn is the per-connection server state: the bound service view and
// the serialized writer.
type frameConn struct {
	conn    net.Conn
	writeMu sync.Mutex
}

func (fc *frameConn) respond(id uint64, resp *rpcResponse) error {
	frame := appendResponse(newFrame(responseSize(resp)), resp)
	if int64(len(frame)-frameHeaderSize) > maxFramePayload {
		frame = appendResponse(frame[:frameHeaderSize], &rpcResponse{Err: errFrameTooLarge})
	}
	fc.writeMu.Lock()
	defer fc.writeMu.Unlock()
	return sendFrame(fc.conn, id, frame)
}

func (s *FrameServer) handle(conn net.Conn) {
	defer conn.Close()
	fc := &frameConn{conn: conn}
	svc := s.svc
	sem := make(chan struct{}, s.opts.PerConnWorkers)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		id, payload, err := readFrame(conn, s.opts.MaxFrameBytes)
		if err == errTooLarge {
			_ = fc.respond(id, &rpcResponse{Err: errFrameTooLarge})
			return
		}
		if err != nil {
			return // torn frame, peer gone, or malformed length
		}
		req, err := decodeRequest(payload)
		if err != nil {
			if fc.respond(id, &rpcResponse{Err: err.Error()}) != nil {
				return
			}
			continue
		}
		if req.Op == opHello {
			// Tenant binding is handled in the read loop, synchronously, so
			// every later frame sees the bound view without locking.
			var resp rpcResponse
			view, err := s.bindTenant(req.Name)
			if err != nil {
				applyRespError(&resp, err)
			} else {
				svc = view
			}
			if fc.respond(id, &resp) != nil {
				return
			}
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(svc Service, id uint64, req rpcRequest) {
			defer wg.Done()
			defer func() { <-sem }()
			resp := dispatch(svc, req)
			_ = fc.respond(id, &resp)
		}(svc, id, req)
	}
}

func (s *FrameServer) bindTenant(name string) (Service, error) {
	if s.opts.Tenants == nil {
		return nil, errors.New("cloud: server has no tenants configured")
	}
	return s.opts.Tenants.View(name)
}

// errTransport marks every failure of a FrameClient's own connection — dial,
// send, receive, or a call after the connection died — as opposed to an
// error the remote service returned, which crosses the wire as text and can
// never match it. Redialer drops its connection on exactly these.
var errTransport = errors.New("cloud: transport")

// FrameClient is a Service over one multiplexed framed connection. Any
// number of goroutines may issue calls concurrently; each call is tagged
// with a fresh id, and a single demux goroutine routes response frames back
// by id, so calls complete in the server's completion order without
// head-of-line blocking. Implements BatchService and
// ConditionalBatchService. When the connection dies, every in-flight and
// subsequent call fails with the transport error (errTransport); the client
// does not redial — wrap it in a Redialer for that.
type FrameClient struct {
	conn    net.Conn
	writeMu sync.Mutex
	nextID  atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan rpcResponse
	err     error // terminal transport error, set once
}

// DialFramed connects to a FrameServer at addr.
func DialFramed(addr string) (*FrameClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errTransport, err)
	}
	c := &FrameClient{conn: conn, pending: make(map[uint64]chan rpcResponse)}
	go c.readLoop()
	return c, nil
}

// Hello binds the connection to a tenant namespace. Call it once, before
// issuing operations; a failed hello leaves the connection on the default
// backend.
func (c *FrameClient) Hello(tenant string) error {
	resp, err := c.call(rpcRequest{Op: opHello, Name: tenant})
	if err != nil {
		return err
	}
	return respError(resp)
}

// Close closes the connection, failing all in-flight calls.
func (c *FrameClient) Close() error { return c.conn.Close() }

// readLoop is the demux goroutine: it routes each response frame to the
// waiting call by id and, on transport error, fails everything in flight.
// Responses are capped only by the frame format: a full ListBlobs or a large
// GetBlobs may outgrow any request cap.
func (c *FrameClient) readLoop() {
	for {
		id, payload, err := readFrame(c.conn, math.MaxInt)
		if err != nil {
			c.fail(fmt.Errorf("%w: receive: %w", errTransport, err))
			return
		}
		resp, err := decodeResponse(payload)
		if err != nil {
			c.fail(fmt.Errorf("%w: receive: %w", errTransport, err))
			return
		}
		c.mu.Lock()
		ch := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *FrameClient) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

func (c *FrameClient) call(req rpcRequest) (rpcResponse, error) {
	frame := appendRequest(newFrame(requestSize(&req)), &req)
	if int64(len(frame)-frameHeaderSize) > maxFramePayload {
		return rpcResponse{}, errors.New(errFrameTooLarge)
	}
	id := c.nextID.Add(1)
	ch := make(chan rpcResponse, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return rpcResponse{}, err
	}
	c.pending[id] = ch
	c.mu.Unlock()

	c.writeMu.Lock()
	err := sendFrame(c.conn, id, frame)
	c.writeMu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return rpcResponse{}, fmt.Errorf("%w: send: %w", errTransport, err)
	}

	resp, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("%w: connection closed", errTransport)
		}
		return rpcResponse{}, err
	}
	return resp, nil
}

// PutBlob implements Service.
func (c *FrameClient) PutBlob(name string, data []byte) (int, error) {
	resp, err := c.call(rpcRequest{Op: "put", Name: name, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.Version, respError(resp)
}

// GetBlob implements Service.
func (c *FrameClient) GetBlob(name string) (Blob, error) {
	resp, err := c.call(rpcRequest{Op: "get", Name: name})
	if err != nil {
		return Blob{}, err
	}
	if err := respError(resp); err != nil {
		return Blob{}, err
	}
	if resp.Blob == nil {
		return Blob{}, ErrBlobNotFound
	}
	return *resp.Blob, nil
}

// DeleteBlob implements Service.
func (c *FrameClient) DeleteBlob(name string) error {
	resp, err := c.call(rpcRequest{Op: "delete", Name: name})
	if err != nil {
		return err
	}
	return respError(resp)
}

// ListBlobs implements Service.
func (c *FrameClient) ListBlobs(prefix string) ([]string, error) {
	resp, err := c.call(rpcRequest{Op: "list", Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, respError(resp)
}

// Send implements Service.
func (c *FrameClient) Send(msg Message) error {
	resp, err := c.call(rpcRequest{Op: "send", Message: msg})
	if err != nil {
		return err
	}
	return respError(resp)
}

// Receive implements Service.
func (c *FrameClient) Receive(recipient string, max int) ([]Message, error) {
	resp, err := c.call(rpcRequest{Op: "receive", Recipient: recipient, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Messages, respError(resp)
}

// Stats implements Service.
func (c *FrameClient) Stats() Stats {
	resp, err := c.call(rpcRequest{Op: "stats"})
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}

// PutBlobs implements BatchService: one frame out, one frame back, and the
// connection stays available to other goroutines while the batch commits.
func (c *FrameClient) PutBlobs(puts []BlobPut) ([]int, error) {
	resp, err := c.call(rpcRequest{Op: "putb", Puts: puts})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if len(resp.Versions) != len(puts) {
		return nil, fmt.Errorf("cloud: batch put: server returned %d versions for %d blobs", len(resp.Versions), len(puts))
	}
	return resp.Versions, nil
}

// GetBlobs implements BatchService.
func (c *FrameClient) GetBlobs(names []string) ([]Blob, error) {
	resp, err := c.call(rpcRequest{Op: "getb", Names: names})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if len(resp.Blobs) != len(names) {
		return nil, fmt.Errorf("cloud: batch get: server returned %d blobs for %d names", len(resp.Blobs), len(names))
	}
	return resp.Blobs, nil
}

// GetBlobsIf implements ConditionalBatchService.
func (c *FrameClient) GetBlobsIf(gets []CondGet) ([]Blob, error) {
	resp, err := c.call(rpcRequest{Op: "getc", Gets: gets})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	if len(resp.Blobs) != len(gets) {
		return nil, fmt.Errorf("cloud: conditional batch get: server returned %d blobs for %d requests", len(resp.Blobs), len(gets))
	}
	return resp.Blobs, nil
}
