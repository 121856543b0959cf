package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

// trackingListener records accepted connections so a test can sever them,
// simulating a process kill (FrameServer.Close alone drains gracefully, which
// would wait forever on a client that keeps its connection open).
type trackingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *trackingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *trackingListener) killConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
}

// tccloudStack wraps svc the way cmd/tccloud -addr serves its backend:
// Admission at its defaults, a tenant registry on top, and no frame cap
// beyond the 4-byte length.
func tccloudStack(svc Service) (Service, FrameServerOptions) {
	adm := NewAdmission(svc, AdmissionOptions{})
	return adm, FrameServerOptions{Tenants: NewTenants(adm), MaxFrameBytes: math.MaxInt}
}

// serveAt serves svc through tccloudStack on addr ("127.0.0.1:0" for any
// port) and returns the bound address plus a kill function that drops the
// listener and every open connection, the way a dead process would.
func serveAt(addr string, svc Service) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	tl := &trackingListener{Listener: ln}
	srv := NewFrameServer(tccloudStack(svc))
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(tl)
	}()
	return ln.Addr().String(), func() {
		_ = srv.Close()
		tl.killConns()
		<-done
	}, nil
}

// reserveAt rebinds addr, retrying while the previous listener's port is
// released.
func reserveAt(t *testing.T, addr string, svc Service) func() {
	t.Helper()
	for i := 0; i < 100; i++ {
		_, stop, err := serveAt(addr, svc)
		if err == nil {
			return stop
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("rebind %s: port never came back", addr)
	return nil
}

// TestRedialerSurvivesServerRestart kills the server under a Redialer and
// checks the next call after the restart re-dials and succeeds — with the
// server's state intact when the backing store survives (as a Durable member
// or a restarted tccloud process would).
func TestRedialerSurvivesServerRestart(t *testing.T) {
	store := NewMemory()
	addr, stop, err := serveAt("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRedialer(addr)
	defer r.Close()
	if _, err := r.PutBlob("k", []byte("v1")); err != nil {
		t.Fatalf("put before restart: %v", err)
	}

	stop()
	if _, err := r.GetBlob("k"); err == nil {
		t.Fatal("expected a transport error while the server is down")
	}

	// Rebind the same port; the store (and its versions) survive, as they
	// would for a durable member restarted over the same data directory.
	stop2 := reserveAt(t, addr, store)
	defer stop2()

	b, err := r.GetBlob("k")
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if string(b.Data) != "v1" || b.Version != 1 {
		t.Fatalf("blob after restart = %q v%d, want v1/1", b.Data, b.Version)
	}
	if _, err := r.PutBlob("k", []byte("v2")); err != nil {
		t.Fatalf("put after restart: %v", err)
	}
}

// TestRedialerConcurrentCalls drives one Redialer from many goroutines at
// once: they share one multiplexed connection, every call fails with a
// transport error while the server is dead, and after the restart they
// share one fresh connection again.
func TestRedialerConcurrentCalls(t *testing.T) {
	store := NewMemory()
	addr, stop, err := serveAt("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRedialer(addr)
	defer r.Close()

	hammer := func(round string, check func(error)) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					name := fmt.Sprintf("%s/g%d/%d", round, g, i)
					_, err := r.PutBlob(name, []byte(name))
					if err == nil {
						var b Blob
						b, err = r.GetBlob(name)
						if err == nil && string(b.Data) != name {
							t.Errorf("get %s returned %q", name, b.Data)
						}
					}
					check(err)
				}
			}(g)
		}
		wg.Wait()
	}
	mustSucceed := func(err error) {
		if err != nil {
			t.Errorf("call over a live server: %v", err)
		}
	}

	hammer("before", mustSucceed)
	conn := r.client
	if conn == nil {
		t.Fatal("no connection after a healthy round")
	}
	hammer("again", mustSucceed)
	if r.client != conn {
		t.Fatal("healthy concurrent calls replaced the connection")
	}

	stop()
	hammer("down", func(err error) {
		if !errors.Is(err, errTransport) {
			t.Errorf("call with the server dead = %v, want a transport error", err)
		}
	})

	stop2 := reserveAt(t, addr, store)
	defer stop2()
	hammer("after", mustSucceed)
	if r.client == nil || r.client == conn {
		t.Fatal("calls after the restart did not share a fresh connection")
	}
}

// bigBlobs returns n blobs of size bytes each under prefix, every byte
// derived from the blob's index so a mixed-up copy cannot compare equal.
func bigBlobs(prefix string, n, size int) []BlobPut {
	puts := make([]BlobPut, n)
	for i := range puts {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i*131 + j)
		}
		puts[i] = BlobPut{Name: fmt.Sprintf("%s/%02d", prefix, i), Data: data}
	}
	return puts
}

// TestRedialerFramesOverDefaultCap sends requests and draws responses larger
// than DefaultMaxFrameBytes (a batch, a single vault-sized blob, a batch
// read) through a Redialer to the stack tccloud serves, while other
// goroutines keep issuing small calls on the same multiplexed connection.
// Every call must succeed and the connection must survive.
func TestRedialerFramesOverDefaultCap(t *testing.T) {
	addr, stop, err := serveAt("127.0.0.1:0", NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	r := NewRedialer(addr)
	defer r.Close()
	if _, err := r.PutBlob("warm", []byte("x")); err != nil {
		t.Fatal(err)
	}
	conn := r.client

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				name := fmt.Sprintf("small/g%d/%d", g, i)
				if _, err := r.PutBlob(name, []byte(name)); err != nil {
					t.Errorf("small put beside large frames: %v", err)
					return
				}
				if b, err := r.GetBlob(name); err != nil || string(b.Data) != name {
					t.Errorf("small get beside large frames = %q, %v", b.Data, err)
					return
				}
			}
		}(g)
	}

	// 13 MiB of raw data is over 16 MiB once base64-encoded in the frame.
	puts := bigBlobs("big", 13, 1<<20)
	if _, err := r.PutBlobs(puts); err != nil {
		t.Errorf("batch put over the default frame cap: %v", err)
	}
	vault := bigBlobs("vault", 1, DefaultMaxFrameBytes+1)[0]
	if _, err := r.PutBlob(vault.Name, vault.Data); err != nil {
		t.Errorf("single blob over the default frame cap: %v", err)
	}
	names := make([]string, len(puts))
	for i, p := range puts {
		names[i] = p.Name
	}
	blobs, err := r.GetBlobs(names)
	if err != nil {
		t.Errorf("batch get over the default frame cap: %v", err)
	}
	for i, b := range blobs {
		if !bytes.Equal(b.Data, puts[i].Data) {
			t.Errorf("batch get returned wrong data for %s", names[i])
		}
	}
	if b, err := r.GetBlob(vault.Name); err != nil || !bytes.Equal(b.Data, vault.Data) {
		t.Errorf("vault-sized get: %d bytes, %v", len(b.Data), err)
	}
	close(done)
	wg.Wait()
	if r.client != conn {
		t.Fatal("large frames dropped the shared connection")
	}
}

// TestReplicatedAntiEntropyOverDefaultCap runs anti-entropy with one shard
// group holding more than DefaultMaxFrameBytes on each side of a Redialer
// member: the pass reads the remote's whole store in one GetBlobs and repairs
// both directions through the same connection. Foreground writes run on that
// connection during the first pass and must ack on every member without
// queuing a hint; a repair that loses its stripe lock to one of them is
// left to the second pass, which runs alone.
func TestReplicatedAntiEntropyOverDefaultCap(t *testing.T) {
	remoteStore, local, empty := NewMemory(), NewMemory(), NewMemory()
	remotePuts, localPuts := bigBlobs("remote", 13, 1<<20), bigBlobs("local", 13, 1<<20)
	if _, err := remoteStore.PutBlobs(remotePuts); err != nil {
		t.Fatal(err)
	}
	if _, err := local.PutBlobs(localPuts); err != nil {
		t.Fatal(err)
	}
	addr, stop, err := serveAt("127.0.0.1:0", remoteStore)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	remote := NewRedialer(addr)
	defer remote.Close()
	r, err := NewReplicated([]Service{local, empty, remote}, ReplicatedOptions{
		WriteQuorum: 3,
		ReadQuorum:  2,
		SyncShards:  1,
		// Under the race detector, encoding 13 MiB as JSON takes longer
		// than the 5 s default bound on a member call.
		CallTimeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := r.PutBlob(fmt.Sprintf("fg/%d", i), []byte("x")); err != nil {
				t.Errorf("foreground write during anti-entropy: %v", err)
				return
			}
		}
	}()
	_, err = r.AntiEntropy()
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	if q := r.ReplicationStats().HintsQueued; q != 0 {
		t.Fatalf("%d hints queued: a member call failed during anti-entropy", q)
	}
	conn := remote.client
	if conn == nil {
		t.Fatal("anti-entropy dropped the member connection")
	}
	report, err := r.AntiEntropy()
	if err != nil {
		t.Fatalf("second anti-entropy pass: %v", err)
	}
	if remote.client != conn {
		t.Fatal("the second pass replaced the member connection")
	}
	for _, p := range append(remotePuts, localPuts...) {
		for i, m := range []Service{local, empty, remoteStore} {
			b, err := m.GetBlob(p.Name)
			if err != nil || !bytes.Equal(b.Data, p.Data) {
				t.Fatalf("member %d after anti-entropy (%+v): %s missing or wrong: %v", i, report, p.Name, err)
			}
		}
	}
}

// errService fails every PutBlob with err and serves everything else from
// the embedded Service.
type errService struct {
	Service
	err error
}

func (s errService) PutBlob(string, []byte) (int, error) { return 0, s.err }

// TestRedialerKeepsConnectionOnRelayedTransportText serves a backend whose
// errors read exactly like client-side transport failures. They are remote
// semantic errors, relayed as text, so the Redialer must keep its healthy
// connection instead of tearing it down.
func TestRedialerKeepsConnectionOnRelayedTransportText(t *testing.T) {
	for _, msg := range []string{"cloud: rpc receive: EOF", "cloud: dial: connection refused", "cloud: transport: receive: EOF"} {
		addr, stop, err := serveAt("127.0.0.1:0", errService{Service: NewMemory(), err: errors.New(msg)})
		if err != nil {
			t.Fatal(err)
		}
		r := NewRedialer(addr)
		if _, err := r.GetBlob("k"); err != ErrBlobNotFound {
			t.Fatalf("get: %v", err)
		}
		conn := r.client
		if _, err := r.PutBlob("k", []byte("v")); err == nil || err.Error() != msg {
			t.Fatalf("put relayed %v, want %q", err, msg)
		}
		if r.client != conn {
			t.Fatalf("relayed error %q dropped a healthy connection", msg)
		}
		_ = r.Close()
		stop()
	}
}

// TestReplicatedTCPMemberRestart runs the availability drill over a real
// wire: a 3-member fleet where one member is a TCP server reached through a
// Redialer. The member's process dies mid-workload, writes continue at
// quorum, the process comes back over the same store, and the hint drain
// converges it.
func TestReplicatedTCPMemberRestart(t *testing.T) {
	remoteStore := NewMemory()
	addr, stop, err := serveAt("127.0.0.1:0", remoteStore)
	if err != nil {
		t.Fatal(err)
	}

	remote := NewRedialer(addr)
	defer remote.Close()
	r, err := NewReplicated([]Service{NewMemory(), NewMemory(), remote}, ReplicatedOptions{
		WriteQuorum:   2,
		ReadQuorum:    2,
		FailThreshold: 1,
		ProbeEvery:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	put := func(lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			name := fmt.Sprintf("tcp/doc-%03d", i)
			if _, err := r.PutBlob(name, []byte(name)); err != nil {
				t.Fatalf("put %s: %v", name, err)
			}
		}
	}
	put(0, 20)

	// The member's process dies; the fleet keeps acknowledging at W=2. The
	// down mark lands when the member's in-flight calls fail, which may trail
	// the quorum acks.
	stop()
	put(20, 40)
	deadline := time.Now().Add(5 * time.Second)
	for !r.MemberDown(2) {
		if time.Now().After(deadline) {
			t.Fatal("TCP member should be marked down after its process died")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The process returns over the same store; probes re-dial, the hint
	// drain replays what it missed, anti-entropy mops up anything dropped.
	stop2 := reserveAt(t, addr, remoteStore)
	defer stop2()

	if n := r.DrainHints(); n == 0 {
		t.Fatal("expected hints to drain into the restarted member")
	}
	if _, err := r.AntiEntropy(); err != nil {
		t.Fatalf("anti-entropy: %v", err)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("tcp/doc-%03d", i)
		b, err := remoteStore.GetBlob(name)
		if err != nil {
			t.Fatalf("restarted member missing %s: %v", name, err)
		}
		if string(b.Data) != name {
			t.Fatalf("restarted member has wrong data for %s", name)
		}
	}
}
