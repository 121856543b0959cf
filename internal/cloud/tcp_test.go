package cloud

import (
	"bytes"
	"fmt"
	"net"
	"testing"
)

// startServer starts a TCP cloud server on a random port and returns a
// connected client plus a cleanup function.
func startServer(t *testing.T, svc Service) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(svc)
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(ln)
		close(done)
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		<-done
	})
	return client
}

func TestTCPBlobRoundTrip(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)

	v, err := client.PutBlob("alice/doc-1", []byte("sealed"))
	if err != nil || v != 1 {
		t.Fatalf("PutBlob over TCP: v=%d err=%v", v, err)
	}
	b, err := client.GetBlob("alice/doc-1")
	if err != nil {
		t.Fatalf("GetBlob over TCP: %v", err)
	}
	if !bytes.Equal(b.Data, []byte("sealed")) {
		t.Fatalf("blob data %q", b.Data)
	}
	names, err := client.ListBlobs("alice/")
	if err != nil || len(names) != 1 {
		t.Fatalf("ListBlobs: %v %v", names, err)
	}
	if err := client.DeleteBlob("alice/doc-1"); err != nil {
		t.Fatalf("DeleteBlob: %v", err)
	}
	if _, err := client.GetBlob("alice/doc-1"); err != ErrBlobNotFound {
		t.Fatalf("expected ErrBlobNotFound through the client, got %v", err)
	}
}

func TestTCPMailboxAndStats(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)

	if err := client.Send(Message{From: "alice", To: "bob", Kind: "share", Body: []byte("hi")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msgs, err := client.Receive("bob", 10)
	if err != nil || len(msgs) != 1 || string(msgs[0].Body) != "hi" {
		t.Fatalf("Receive: %v %v", msgs, err)
	}
	st := client.Stats()
	if st.Sends != 1 || st.Receives != 1 {
		t.Fatalf("stats over TCP: %+v", st)
	}
}

func TestTCPMultipleClients(t *testing.T) {
	mem := NewMemory()
	clientA := startServer(t, mem)
	// Second client to the same server (its own connection).
	clientB, err := Dial(clientA.conn.RemoteAddr().String())
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	defer clientB.Close()

	if _, err := clientA.PutBlob("shared", []byte("from-a")); err != nil {
		t.Fatal(err)
	}
	b, err := clientB.GetBlob("shared")
	if err != nil || string(b.Data) != "from-a" {
		t.Fatalf("cross-client read: %v %v", b, err)
	}
}

func TestTCPBatchRoundTrip(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)

	puts := make([]BlobPut, 20)
	names := make([]string, 20)
	for i := range puts {
		names[i] = fmt.Sprintf("fleet/blob-%02d", i)
		puts[i] = BlobPut{Name: names[i], Data: []byte(names[i])}
	}
	versions, err := client.PutBlobs(puts)
	if err != nil {
		t.Fatalf("PutBlobs over TCP: %v", err)
	}
	for i, v := range versions {
		if v != 1 {
			t.Fatalf("version[%d] = %d", i, v)
		}
	}
	blobs, err := client.GetBlobs(append(names, "missing"))
	if err != nil {
		t.Fatalf("GetBlobs over TCP: %v", err)
	}
	for i := range names {
		if !bytes.Equal(blobs[i].Data, []byte(names[i])) {
			t.Fatalf("blob %d = %q", i, blobs[i].Data)
		}
	}
	if blobs[len(names)].Version != 0 {
		t.Fatalf("missing blob should be zero: %+v", blobs[len(names)])
	}
	if st := client.Stats(); st.Puts != 20 || st.Gets != 21 {
		t.Fatalf("server-side counters after batch: %+v", st)
	}
}

func TestTCPConditionalBatchGet(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)

	_, _ = client.PutBlob("sync/0", []byte("a1"))
	_, _ = client.PutBlob("sync/1", []byte("b1"))
	_, _ = client.PutBlob("sync/1", []byte("b2"))
	blobs, err := client.GetBlobsIf([]CondGet{
		{Name: "sync/0", IfNewer: 1},
		{Name: "sync/1", IfNewer: 1},
		{Name: "sync/2", IfNewer: 0},
	})
	if err != nil {
		t.Fatalf("GetBlobsIf over TCP: %v", err)
	}
	if blobs[0].Version != 1 || len(blobs[0].Data) != 0 {
		t.Fatalf("unadvanced blob should ship no data over the wire: %+v", blobs[0])
	}
	if blobs[1].Version != 2 || !bytes.Equal(blobs[1].Data, []byte("b2")) {
		t.Fatalf("advanced blob: %+v", blobs[1])
	}
	if blobs[2].Version != 0 {
		t.Fatalf("missing blob should be zero: %+v", blobs[2])
	}
}

func TestTCPPipelining(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)

	// Write the whole request train before reading any response: the server
	// handles a connection sequentially, so the answers come back in request
	// order.
	for i := 0; i < 10; i++ {
		req := rpcRequest{Op: "put", Name: fmt.Sprintf("p-%02d", i%5), Data: []byte("x")}
		if err := client.enc.Encode(&req); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		var r rpcResponse
		if err := client.dec.Decode(&r); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		// The second put of each name answers version 2.
		if r.Err != "" || r.Version != 1+i/5 {
			t.Fatalf("pipelined response %d: %+v", i, r)
		}
	}
	names, _ := mem.ListBlobs("p-")
	if len(names) != 5 {
		t.Fatalf("pipelined puts stored %d blobs", len(names))
	}
}

func TestTCPUnknownOp(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)
	resp, err := client.call(rpcRequest{Op: "bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err == "" {
		t.Fatal("unknown op did not return an error")
	}
}
