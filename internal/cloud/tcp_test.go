package cloud

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
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
		payload := appendRequest(nil, &rpcRequest{Op: "put", Name: fmt.Sprintf("p-%02d", i%5), Data: []byte("x")})
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
		r, err := decodeResponse(payload)
		if err != nil {
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

// wireTime is a non-zero instant with sub-second precision, in the UTC form
// the codec decodes to.
var wireTime = time.Date(2026, 10, 18, 1, 2, 3, 456789012, time.UTC)

// wireRequests holds one request per op, with the edge values of each field:
// nil and empty data, zero and non-zero times, negative integers.
func wireRequests() map[string]rpcRequest {
	return map[string]rpcRequest{
		"put":            {Op: "put", Name: "alice/doc", Data: []byte("sealed")},
		"put empty data": {Op: "put", Name: "alice/doc", Data: []byte{}},
		"put nil data":   {Op: "put", Name: "alice/doc"},
		"get":            {Op: "get", Name: "alice/doc"},
		"delete":         {Op: "delete", Name: "alice/doc"},
		"list":           {Op: "list", Prefix: "alice/"},
		"putb": {Op: "putb", Puts: []BlobPut{
			{Name: "a", Data: []byte("x")}, {Name: "b", Data: []byte{}}, {Name: "c"},
		}},
		"getb": {Op: "getb", Names: []string{"a", "", "c"}},
		"getc": {Op: "getc", Gets: []CondGet{{Name: "a", IfNewer: -3}, {Name: "b"}, {Name: "c", IfNewer: 1 << 40}}},
		"send": {Op: "send", Message: Message{
			ID: "m1", From: "alice", To: "bob", Kind: "share", Body: []byte("hi"), Sent: wireTime, Seq: 1<<64 - 1,
		}},
		"send zero time": {Op: "send", Message: Message{To: "bob", Body: []byte{}}},
		"receive":        {Op: "receive", Recipient: "bob", Max: 10},
		"receive neg":    {Op: "receive", Recipient: "bob", Max: -1},
		"stats":          {Op: "stats"},
		"hello":          {Op: opHello, Name: "acme"},
	}
}

// wireResponses holds one response per shape dispatch produces.
func wireResponses() map[string]rpcResponse {
	return map[string]rpcResponse{
		"ok":            {},
		"version":       {Version: 7},
		"blob":          {Blob: &Blob{Name: "a", Version: 2, Data: []byte("sealed"), Stored: wireTime}},
		"blob empty":    {Blob: &Blob{Name: "a", Version: 1, Data: []byte{}}},
		"blob nil":      {Blob: &Blob{Name: "a", Version: 1}},
		"names":         {Names: []string{"a", "b", ""}},
		"messages":      {Messages: []Message{{ID: "m1", From: "a", To: "b", Kind: "k", Body: []byte("x"), Sent: wireTime, Seq: 9}, {To: "b"}}},
		"stats":         {Stats: &Stats{Puts: 1, Gets: 2, Deletes: 3, Lists: 4, Sends: 5, Receives: 6, BytesStored: -7}},
		"versions":      {Versions: []int{1, 0, -1, 1 << 40}},
		"blobs":         {Blobs: []Blob{{Name: "a", Version: 3}, {Name: "b", Version: 4, Data: []byte("x"), Stored: wireTime}, {}}},
		"typed error":   {Err: "cloud: overloaded; retry after 40ms", RetryAfterMs: 40},
		"unknown op":    {Err: `cloud: unknown op "bogus"`},
		"negative hint": {Err: "x", RetryAfterMs: -1},
	}
}

// TestWireCodecRoundTrip encodes every request and response shape and
// checks it decodes to an equal value: nil and empty byte strings stay
// distinct, instants survive, and zero times decode as zero.
func TestWireCodecRoundTrip(t *testing.T) {
	for name, req := range wireRequests() {
		got, err := decodeRequest(appendRequest(nil, &req))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Errorf("request %s: got %+v, %v; want %+v", name, got, err, req)
		}
		if got.Message.Sent != req.Message.Sent {
			t.Errorf("request %s: sent %v, want %v", name, got.Message.Sent, req.Message.Sent)
		}
	}
	for name, resp := range wireResponses() {
		got, err := decodeResponse(appendResponse(nil, &resp))
		if err != nil || !reflect.DeepEqual(got, resp) {
			t.Errorf("response %s: got %+v, %v; want %+v", name, got, err, resp)
		}
	}
	var zero Blob
	got, err := decodeResponse(appendResponse(nil, &rpcResponse{Blob: &zero}))
	if err != nil || got.Blob == nil || !got.Blob.Stored.IsZero() || got.Blob.Data != nil {
		t.Fatalf("zero blob decoded as %+v, %v", got.Blob, err)
	}
}

// TestWireCodecTypedErrors sends each typed error through applyRespError,
// the codec and respError, and checks errors.Is/As and the carried fields.
func TestWireCodecTypedErrors(t *testing.T) {
	quorum := fmt.Errorf("%w: 1 of 2 write acks", ErrQuorumFailed)
	cases := []struct {
		err   error
		check func(error) bool
	}{
		{ErrBlobNotFound, func(e error) bool { return e == ErrBlobNotFound }},
		{ErrUnavailable, func(e error) bool { return e == ErrUnavailable }},
		{ErrMailboxEmpty, func(e error) bool { return e == ErrMailboxEmpty }},
		{quorum, func(e error) bool { return errors.Is(e, ErrQuorumFailed) && e.Error() == quorum.Error() }},
		{&OverloadError{RetryAfter: 40 * time.Millisecond}, func(e error) bool {
			var oe *OverloadError
			return errors.As(e, &oe) && oe.RetryAfter == 40*time.Millisecond
		}},
		{&OverloadError{RetryAfter: 300 * time.Microsecond}, func(e error) bool {
			var oe *OverloadError
			return errors.As(e, &oe) && oe.RetryAfter == time.Millisecond
		}},
		{&QuotaError{Tenant: "acme", Resource: "ops", RetryAfter: 1500 * time.Millisecond}, func(e error) bool {
			var qe *QuotaError
			return errors.As(e, &qe) && *qe == QuotaError{Tenant: "acme", Resource: "ops", RetryAfter: 1500 * time.Millisecond}
		}},
		{&QuotaError{Tenant: "acme", Resource: "bytes"}, func(e error) bool {
			var qe *QuotaError
			return errors.Is(e, ErrQuotaExceeded) && errors.As(e, &qe) && *qe == QuotaError{Tenant: "acme", Resource: "bytes"}
		}},
		{errors.New("cloud: something else"), func(e error) bool { return e.Error() == "cloud: something else" }},
	}
	for _, tc := range cases {
		var resp rpcResponse
		applyRespError(&resp, tc.err)
		got, err := decodeResponse(appendResponse(nil, &resp))
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.err, err)
		}
		if rebuilt := respError(got); rebuilt == nil || !tc.check(rebuilt) {
			t.Errorf("%v crossed the codec as %#v", tc.err, rebuilt)
		}
	}
}

// TestWireCodecRejects checks the decoder refuses what is not its encoding:
// other codecs, other versions, truncations, trailing bytes and counts the
// input cannot hold.
func TestWireCodecRejects(t *testing.T) {
	valid := appendRequest(nil, &rpcRequest{Op: "putb", Puts: []BlobPut{{Name: "a", Data: []byte("x")}}})
	forged := appendRequest(nil, &rpcRequest{Op: "getb"})
	forged = append(forged[:len(forged)-2], 0xff, 0xff, 0xff, 0xff, 0x0f, 0) // names count 2^32-1
	bad := map[string][]byte{
		"empty":          nil,
		"json":           []byte(`{"op":"put","name":"a","data":"eA=="}`),
		"document magic": append([]byte{0xD0}, valid[1:]...),
		"version 2":      append([]byte{wireMagic, 2}, valid[2:]...),
		"truncated":      valid[:len(valid)-1],
		"trailing":       append(append([]byte(nil), valid...), 0),
		"forged count":   forged,
	}
	for name, b := range bad {
		if _, err := decodeRequest(b); err == nil {
			t.Errorf("request decoder accepted %s", name)
		}
		if _, err := decodeResponse(b); err == nil {
			t.Errorf("response decoder accepted %s", name)
		}
	}
}

// TestFrameRejectsJSONPayload pins the replacement: a request frame
// carrying JSON is answered with the malformed-payload error on its id, and
// the same connection then serves a binary request.
func TestFrameRejectsJSONPayload(t *testing.T) {
	mem := NewMemory()
	client := startServer(t, mem)
	conn, err := net.Dial("tcp", client.conn.RemoteAddr().String())
	if err != nil {
		t.Fatalf("dial raw: %v", err)
	}
	defer conn.Close()

	exchange := func(id uint64, payload []byte) rpcResponse {
		t.Helper()
		if err := writeFrame(conn, id, payload); err != nil {
			t.Fatalf("send %d: %v", id, err)
		}
		gotID, body, err := readFrame(conn, DefaultMaxFrameBytes)
		if err != nil || gotID != id {
			t.Fatalf("response to %d: id %d, %v", id, gotID, err)
		}
		resp, err := decodeResponse(body)
		if err != nil {
			t.Fatalf("decode response to %d: %v", id, err)
		}
		return resp
	}
	if resp := exchange(5, []byte(`{"op":"put","name":"json","data":"eA=="}`)); resp.Err != errWireCodec.Error() {
		t.Fatalf("JSON payload answered %+v, want %q", resp, errWireCodec)
	}
	if resp := exchange(6, appendRequest(nil, &rpcRequest{Op: "put", Name: "binary", Data: []byte("x")})); resp.Err != "" || resp.Version != 1 {
		t.Fatalf("binary put after a JSON frame answered %+v", resp)
	}
	if names, _ := mem.ListBlobs(""); fmt.Sprint(names) != "[binary]" {
		t.Fatalf("store holds %v", names)
	}
}

// FuzzWireCodec feeds arbitrary bytes to both payload decoders. Nothing may
// panic; a decode allocates in proportion to its input, never to a count the
// input declares; and whatever decodes re-encodes to bytes that decode to an
// equal value.
func FuzzWireCodec(f *testing.F) {
	for _, req := range wireRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range wireResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add([]byte(`{"op":"put","name":"alice/doc","data":"c2VhbGVk"}`))
	f.Add([]byte{wireMagic, wireVersion, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(32*len(data) + 64<<10)
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		req, reqErr := decodeRequest(data)
		runtime.ReadMemStats(&m1)
		resp, respErr := decodeResponse(data)
		runtime.ReadMemStats(&m2)
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew > limit {
			t.Fatalf("request decode of %d bytes allocated %d", len(data), grew)
		}
		if grew := m2.TotalAlloc - m1.TotalAlloc; grew > limit {
			t.Fatalf("response decode of %d bytes allocated %d", len(data), grew)
		}
		if reqErr == nil {
			again, err := decodeRequest(appendRequest(nil, &req))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request round trip: %+v, %v; want %+v", again, err, req)
			}
		}
		if respErr == nil {
			again, err := decodeResponse(appendResponse(nil, &resp))
			if err != nil || !reflect.DeepEqual(again, resp) {
				t.Fatalf("response round trip: %+v, %v; want %+v", again, err, resp)
			}
			_ = respError(resp)
		}
	})
}
