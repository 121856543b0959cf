package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"testing"
)

// startServer serves svc on a loopback FrameServer and returns a connected
// client; both are torn down with the test.
func startServer(t *testing.T, svc Service) *FrameClient {
	t.Helper()
	return dialTestFrameServer(t, svc, FrameServerOptions{}, "")
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
	clientB, err := DialFramed(clientA.conn.RemoteAddr().String())
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

// TestTCPBatchOverAdmissionBudget sends one PutBlobs heavier than the whole
// admission budget through the stack tccloud -addr serves. With nothing else
// in flight it must be admitted, not shed on every attempt, and release its
// weight afterwards.
func TestTCPBatchOverAdmissionBudget(t *testing.T) {
	svc, opts := tccloudStack(NewMemory())
	client := dialTestFrameServer(t, svc, opts, "")
	adm := svc.(*Admission)
	puts := make([]BlobPut, adm.maxInFly+1)
	for i := range puts {
		puts[i] = BlobPut{Name: fmt.Sprintf("ingest/%04d", i), Data: []byte{byte(i)}}
	}
	versions, err := client.PutBlobs(puts)
	if err != nil {
		t.Fatalf("batch of %d puts over a budget of %d: %v", len(puts), adm.maxInFly, err)
	}
	if len(versions) != len(puts) {
		t.Fatalf("got %d versions for %d puts", len(versions), len(puts))
	}
	if st := adm.AdmissionStats(); st.Shed != 0 || st.InFlight != 0 {
		t.Fatalf("admission after an oversized batch: %+v", st)
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
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer conn.Close()

	// Write the whole request train before reading any response. Responses
	// come back tagged with their request id, in completion order.
	const n = 10
	for i := 0; i < n; i++ {
		payload, err := json.Marshal(&rpcRequest{Op: "put", Name: fmt.Sprintf("p-%02d", i%5), Data: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, uint64(i+1), payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	versions := make(map[string][]int)
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		id, payload, err := readFrame(conn, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		var r rpcResponse
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if id < 1 || id > n || seen[id] || r.Err != "" {
			t.Fatalf("pipelined response %d: id %d %+v", i, id, r)
		}
		seen[id] = true
		name := fmt.Sprintf("p-%02d", (id-1)%5)
		versions[name] = append(versions[name], r.Version)
	}
	// The two puts of each name may commit in either order, but they answer
	// versions 1 and 2 between them.
	for name, vs := range versions {
		sort.Ints(vs)
		if fmt.Sprint(vs) != "[1 2]" {
			t.Fatalf("pipelined puts of %s answered versions %v", name, vs)
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
	if want := `cloud: unknown op "bogus"`; resp.Err != want {
		t.Fatalf("unknown op answered %q, want %q", resp.Err, want)
	}
	// The connection survives the rejection.
	if _, err := client.PutBlob("after", []byte("x")); err != nil {
		t.Fatalf("put after unknown op: %v", err)
	}
}
