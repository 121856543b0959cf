package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startFrameServer runs a FrameServer over svc on a loopback socket and
// returns its address.
func startFrameServer(t *testing.T, svc Service, opts FrameServerOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewFrameServer(svc, opts)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// writeFrame writes payload as one frame tagged with id.
func writeFrame(w io.Writer, id uint64, payload []byte) error {
	return sendFrame(w, id, append(newFrame(len(payload)), payload...))
}

// blockingService stalls PutBlob until released, so tests can hold requests
// in flight deliberately.
type blockingService struct {
	Service
	release chan struct{}
	entered chan string
}

func (b *blockingService) PutBlob(name string, data []byte) (int, error) {
	b.entered <- name
	<-b.release
	return b.Service.PutBlob(name, data)
}

// TestFrameInterleavedResponses proves the multiplexing claim: a slow
// request issued first must not block a fast request issued second on the
// same connection — the fast response overtakes it.
func TestFrameInterleavedResponses(t *testing.T) {
	blocker := &blockingService{
		Service: NewMemory(),
		release: make(chan struct{}),
		entered: make(chan string, 1),
	}
	addr := startFrameServer(t, blocker, FrameServerOptions{})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.PutBlob("slow", []byte("x"))
		slowDone <- err
	}()
	<-blocker.entered // the slow put is parked inside the backend

	// A read on the same connection must complete while the put is parked.
	fastDone := make(chan error, 1)
	go func() {
		_, err := c.ListBlobs("")
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast request failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast request blocked behind slow request: no interleaving")
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow request finished early: %v", err)
	default:
	}
	close(blocker.release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
}

// TestFrameConcurrentClients hammers one connection from many goroutines:
// every response must route back to its own caller by request id.
func TestFrameConcurrentClients(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const goroutines = 16
	const perG = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("g%d/doc-%d", g, i)
				if _, err := c.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("put %s: %v", name, err)
					return
				}
				b, err := c.GetBlob(name)
				if err != nil {
					t.Errorf("get %s: %v", name, err)
					return
				}
				if string(b.Data) != name {
					t.Errorf("get %s returned %q: response routed to wrong caller", name, b.Data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFrameTornFrame feeds the server a truncated frame and verifies the
// connection is dropped without wedging the server: a fresh client on a new
// connection still gets served.
func TestFrameTornFrame(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{})

	for _, torn := range [][]byte{
		{0x00, 0x00},             // half a length prefix
		{0x00, 0x00, 0x00, 0x20}, // length promising 32 bytes, none sent
		{0x00, 0x00, 0x00, 0x20, 0, 0, 0, 0, 0, 0, 0, 1, 'h', 'a'}, // id + 2 of 24 payload bytes
		{0x00, 0x00, 0x00, 0x03},                                   // malformed: length below the 8-byte id
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial raw: %v", err)
		}
		if _, err := conn.Write(torn); err != nil {
			t.Fatalf("write torn frame: %v", err)
		}
		_ = conn.Close()
	}

	// The server must still be healthy.
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial after torn frames: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("alive", []byte("x")); err != nil {
		t.Fatalf("server wedged by torn frames: %v", err)
	}

	// Client side of the same coin: a server that dies mid-frame must fail
	// the in-flight call with a transport error, not hang it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the request frame, answer with half a response frame, die.
		if _, _, err := readFrame(conn, DefaultMaxFrameBytes); err == nil {
			_, _ = conn.Write([]byte{0x00, 0x00, 0x01, 0x00, 0x00})
		}
		_ = conn.Close()
		_ = ln.Close()
	}()
	tc, err := DialFramed(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial torn server: %v", err)
	}
	defer tc.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := tc.PutBlob("doomed", []byte("x"))
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("call over torn connection reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call over torn connection hung instead of failing")
	}
}

// TestFrameOversizedRejected sends a frame above MaxFrameBytes and checks
// the typed rejection: the server answers the request id with an explicit
// error frame, then closes the connection.
func TestFrameOversizedRejected(t *testing.T) {
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{MaxFrameBytes: 4096})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer conn.Close()
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], 8+64<<10) // declares 64 KiB payload
	binary.BigEndian.PutUint64(hdr[4:12], 77)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatalf("write header: %v", err)
	}

	id, payload, err := readFrame(conn, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatalf("read rejection frame: %v", err)
	}
	if id != 77 {
		t.Fatalf("rejection answered id %d, want 77", id)
	}
	resp, err := decodeResponse(payload)
	if err != nil {
		t.Fatalf("decode rejection: %v", err)
	}
	if resp.Err != errFrameTooLarge {
		t.Fatalf("rejection error = %q, want %q", resp.Err, errFrameTooLarge)
	}

	// The stream cannot be resynchronized past an unread payload, so the
	// server must have closed the connection.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(conn, DefaultMaxFrameBytes); err == nil {
		t.Fatal("connection still open after oversized frame")
	}

	// And a well-behaved client on a fresh connection is unaffected.
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial after oversize: %v", err)
	}
	defer c.Close()
	if _, err := c.PutBlob("ok", make([]byte, 1024)); err != nil {
		t.Fatalf("normal put after oversize: %v", err)
	}
}

// TestFrameTypedErrorsCrossWire proves OverloadError and QuotaError survive
// the framed protocol: errors.Is and errors.As work on the client side and
// the retry-after hint round-trips.
func TestFrameTypedErrorsCrossWire(t *testing.T) {
	// MaxInFlight 0 is invalid, so use a saturating wrapper: a backend that
	// always sheds with a known hint.
	shed := shedService{inner: NewMemory(), retry: 40 * time.Millisecond}
	tenants := NewTenants(shed)
	if err := tenants.Define("tiny", TenantQuota{MaxBytes: 4}); err != nil {
		t.Fatalf("Define: %v", err)
	}
	addr := startFrameServer(t, shed, FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	_, err = c.PutBlob("x", []byte("y"))
	var oe *OverloadError
	if !errors.Is(err, ErrOverloaded) || !errors.As(err, &oe) {
		t.Fatalf("overload did not cross the wire typed: %v", err)
	}
	if oe.RetryAfter != 40*time.Millisecond {
		t.Fatalf("retry-after hint = %v, want 40ms", oe.RetryAfter)
	}

	tc, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial tenant: %v", err)
	}
	defer tc.Close()
	if err := tc.Hello("tiny"); err != nil {
		t.Fatalf("hello: %v", err)
	}
	_, err = tc.PutBlob("big", []byte("way past four bytes"))
	var qe *QuotaError
	if !errors.Is(err, ErrQuotaExceeded) || !errors.As(err, &qe) {
		t.Fatalf("quota error did not cross the wire typed: %v", err)
	}
	if qe.Tenant != "tiny" || qe.Resource != "bytes" {
		t.Fatalf("quota error lost fields: %+v", qe)
	}

	// A replicated backend's wrapped quorum failure keeps its type and its
	// detail text.
	quorumErr := fmt.Errorf("%w: 1 of 2 write acks", ErrQuorumFailed)
	rc, err := DialFramed(startFrameServer(t, errService{Service: NewMemory(), err: quorumErr}, FrameServerOptions{}))
	if err != nil {
		t.Fatalf("dial replicated: %v", err)
	}
	defer rc.Close()
	_, err = rc.PutBlob("x", []byte("y"))
	if !errors.Is(err, ErrQuorumFailed) || err.Error() != quorumErr.Error() {
		t.Fatalf("quorum error did not cross the wire typed: %v", err)
	}
}

// TestFrameHelloUnknownTenant checks that a hello for an undefined tenant
// fails without killing the connection, which stays on the default backend.
func TestFrameHelloUnknownTenant(t *testing.T) {
	tenants := NewTenants(NewMemory())
	addr := startFrameServer(t, NewMemory(), FrameServerOptions{Tenants: tenants})
	c, err := DialFramed(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.Hello("ghost"); err == nil {
		t.Fatal("hello for unknown tenant succeeded")
	}
	if _, err := c.PutBlob("still-works", []byte("x")); err != nil {
		t.Fatalf("connection unusable after failed hello: %v", err)
	}
}

// shedService rejects every mutation with a typed OverloadError.
type shedService struct {
	inner Service
	retry time.Duration
}

func (s shedService) PutBlob(string, []byte) (int, error) {
	return 0, &OverloadError{RetryAfter: s.retry}
}
func (s shedService) GetBlob(name string) (Blob, error)    { return s.inner.GetBlob(name) }
func (s shedService) DeleteBlob(string) error              { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) ListBlobs(p string) ([]string, error) { return s.inner.ListBlobs(p) }
func (s shedService) Send(Message) error                   { return &OverloadError{RetryAfter: s.retry} }
func (s shedService) Receive(string, int) ([]Message, error) {
	return nil, &OverloadError{RetryAfter: s.retry}
}
func (s shedService) Stats() Stats { return s.inner.Stats() }

// TestFrameLargeBodyGrowsAsItArrives checks readFrame's path for bodies over
// eagerFrameBytes: a complete large frame decodes intact, and a header that
// declares 1 GiB but delivers a few bytes fails as torn without allocating
// anything near the declared length.
func TestFrameLargeBodyGrowsAsItArrives(t *testing.T) {
	body := bytes.Repeat([]byte("sealed"), eagerFrameBytes/3)
	var frame bytes.Buffer
	if err := writeFrame(&frame, 9, body); err != nil {
		t.Fatal(err)
	}
	id, payload, err := readFrame(&frame, math.MaxInt)
	if err != nil || id != 9 || !bytes.Equal(payload, body) {
		t.Fatalf("large frame: id %d, %d of %d bytes, %v", id, len(payload), len(body), err)
	}

	liar := make([]byte, frameHeaderSize+64)
	binary.BigEndian.PutUint32(liar[:4], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := readFrame(bytes.NewReader(liar), math.MaxInt); err == nil {
		t.Fatal("a frame 1 GiB short of its declared length decoded")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("a 64-byte body declared as 1 GiB allocated %d bytes", grew)
	}
}

// FuzzFrameDecode feeds arbitrary bytes through the decoder every client
// faces: readFrame, then the binary payload codec on both ends. Nothing may
// panic; a declared length over the limit must fail with errTooLarge
// without the body being read or allocated; lengths under the 8-byte id
// are malformed.
func FuzzFrameDecode(f *testing.F) {
	const maxBytes = 4096
	valid := appendRequest(nil, &rpcRequest{Op: "put", Name: "alice/doc", Data: []byte("sealed")})
	var frame bytes.Buffer
	if err := writeFrame(&frame, 7, valid); err != nil {
		f.Fatal(err)
	}
	oversized := make([]byte, frameHeaderSize)
	binary.BigEndian.PutUint32(oversized[:4], 1<<30)
	f.Add(frame.Bytes())
	f.Add(frame.Bytes()[:6]) // torn header
	f.Add(oversized)
	f.Add([]byte(`{"op":"put","name":"alice/doc","data":"c2VhbGVk"}` + "\n")) // a JSON line client
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := r.Len()
			id, payload, err := readFrame(r, maxBytes)
			if start < 4 {
				if err == nil {
					t.Fatalf("frame decoded from a %d-byte header", start)
				}
				return
			}
			hdr := data[len(data)-start:]
			length := binary.BigEndian.Uint32(hdr[:4])
			switch {
			case length < 8:
				if err == nil || err == errTooLarge {
					t.Fatalf("length %d accepted: err=%v", length, err)
				}
				return
			case length > maxBytes:
				if start >= frameHeaderSize && err != errTooLarge {
					t.Fatalf("length %d over the %d limit: err=%v, want errTooLarge", length, maxBytes, err)
				}
				if payload != nil || r.Len() < start-frameHeaderSize {
					t.Fatalf("oversized body read: %d payload bytes, %d of %d input bytes consumed", len(payload), start-r.Len(), start)
				}
				return
			case err != nil:
				return // torn frame
			}
			if len(payload) != int(length)-8 || id != binary.BigEndian.Uint64(hdr[4:12]) {
				t.Fatalf("frame decoded as id %d with %d payload bytes from header %x", id, len(payload), hdr[:12])
			}
			_, _ = decodeRequest(payload)
			if resp, err := decodeResponse(payload); err == nil {
				_ = respError(resp)
			}
		}
	})
}
