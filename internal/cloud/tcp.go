package cloud

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"
)

// This file holds the payload half of the wire protocol: the binary request
// and response a frame carries (frame.go), the server-side dispatch of a
// request onto a Service, and the client-side reconstruction of typed errors.
// A cell binary (cmd/tccell) talks to a cloud binary (cmd/tccloud) over it
// exactly as Figure 1 sketches.
//
// Payload codec (DESIGN.md §7.3). Counts, lengths and Seq are unsigned
// varints; every other integer is a zigzag varint.
//
//	[1] magic 0xC8 — never a valid first byte of JSON text
//	[1] codec version (currently 1)
//	request:  op, name, data, prefix, recipient, max, message,
//	          puts (count + name, data each), names (count + strings),
//	          gets (count + name, if_newer each)
//	response: err, retry_after_ms, version, blob (flag byte + blob),
//	          names (count + strings), messages (count + messages),
//	          stats (flag byte + 7 counters), versions (count + ints),
//	          blobs (count + blobs)
//	blob:     name, version, data, stored
//	message:  id, from, to, kind, body, sent, seq
//
// A string is its uvarint length and bytes. A byte string (Data, Body) is
// its length plus one, then its bytes; 0 stands for nil, so nil and empty
// stay distinct. A time is zigzag Unix seconds then uvarint nanoseconds,
// decoded in UTC, so the zero time decodes as the zero time. The decoder
// checks every count against the bytes left before it allocates, rejects
// trailing bytes, and returns Data and Body as subslices of its input.

const (
	wireMagic   = 0xC8
	wireVersion = 1
)

// errWireCodec reports a payload the codec cannot decode. The server answers
// such a request with its text and keeps the connection; the client drops
// the connection.
var errWireCodec = errors.New("cloud: malformed frame payload")

// rpcRequest is a request payload.
type rpcRequest struct {
	Op        string
	Name      string
	Data      []byte
	Prefix    string
	Recipient string
	Max       int
	Message   Message
	Puts      []BlobPut
	Names     []string
	Gets      []CondGet
}

// rpcResponse is a response payload. RetryAfterMs carries the backoff hint
// of typed overload/quota rejections so respError can reconstruct them
// client-side.
type rpcResponse struct {
	Err          string
	RetryAfterMs int64
	Version      int
	Blob         *Blob
	Names        []string
	Messages     []Message
	Stats        *Stats
	Versions     []int
	Blobs        []Blob
}

// --- encoder ----------------------------------------------------------------

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendData(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = binary.AppendUvarint(dst, uint64(len(b))+1)
	return append(dst, b...)
}

func appendTime(dst []byte, t time.Time) []byte {
	dst = binary.AppendVarint(dst, t.Unix())
	return binary.AppendUvarint(dst, uint64(t.Nanosecond()))
}

func appendFlag(dst []byte, set bool) []byte {
	if set {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBlob(dst []byte, b *Blob) []byte {
	dst = appendString(dst, b.Name)
	dst = binary.AppendVarint(dst, int64(b.Version))
	dst = appendData(dst, b.Data)
	return appendTime(dst, b.Stored)
}

func appendMessage(dst []byte, m *Message) []byte {
	dst = appendString(dst, m.ID)
	dst = appendString(dst, m.From)
	dst = appendString(dst, m.To)
	dst = appendString(dst, m.Kind)
	dst = appendData(dst, m.Body)
	dst = appendTime(dst, m.Sent)
	return binary.AppendUvarint(dst, m.Seq)
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// appendRequest appends the encoding of req to dst.
func appendRequest(dst []byte, req *rpcRequest) []byte {
	dst = append(dst, wireMagic, wireVersion)
	dst = appendString(dst, req.Op)
	dst = appendString(dst, req.Name)
	dst = appendData(dst, req.Data)
	dst = appendString(dst, req.Prefix)
	dst = appendString(dst, req.Recipient)
	dst = binary.AppendVarint(dst, int64(req.Max))
	dst = appendMessage(dst, &req.Message)
	dst = binary.AppendUvarint(dst, uint64(len(req.Puts)))
	for i := range req.Puts {
		dst = appendString(dst, req.Puts[i].Name)
		dst = appendData(dst, req.Puts[i].Data)
	}
	dst = appendStrings(dst, req.Names)
	dst = binary.AppendUvarint(dst, uint64(len(req.Gets)))
	for _, g := range req.Gets {
		dst = appendString(dst, g.Name)
		dst = binary.AppendVarint(dst, int64(g.IfNewer))
	}
	return dst
}

// appendResponse appends the encoding of resp to dst.
func appendResponse(dst []byte, resp *rpcResponse) []byte {
	dst = append(dst, wireMagic, wireVersion)
	dst = appendString(dst, resp.Err)
	dst = binary.AppendVarint(dst, resp.RetryAfterMs)
	dst = binary.AppendVarint(dst, int64(resp.Version))
	dst = appendFlag(dst, resp.Blob != nil)
	if resp.Blob != nil {
		dst = appendBlob(dst, resp.Blob)
	}
	dst = appendStrings(dst, resp.Names)
	dst = binary.AppendUvarint(dst, uint64(len(resp.Messages)))
	for i := range resp.Messages {
		dst = appendMessage(dst, &resp.Messages[i])
	}
	dst = appendFlag(dst, resp.Stats != nil)
	if st := resp.Stats; st != nil {
		for _, v := range [...]int64{st.Puts, st.Gets, st.Deletes, st.Lists, st.Sends, st.Receives, st.BytesStored} {
			dst = binary.AppendVarint(dst, v)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Versions)))
	for _, v := range resp.Versions {
		dst = binary.AppendVarint(dst, int64(v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(resp.Blobs)))
	for i := range resp.Blobs {
		dst = appendBlob(dst, &resp.Blobs[i])
	}
	return dst
}

// requestSize and responseSize estimate an encoding's length, so a frame
// buffer is allocated once: the bulk is names and blob data, the rest a few
// bytes per field.
func requestSize(req *rpcRequest) int {
	n := 64 + len(req.Op) + len(req.Name) + len(req.Data) + len(req.Prefix) + len(req.Recipient) + messageSize(&req.Message)
	for _, p := range req.Puts {
		n += 8 + len(p.Name) + len(p.Data)
	}
	for _, s := range req.Names {
		n += 2 + len(s)
	}
	for _, g := range req.Gets {
		n += 8 + len(g.Name)
	}
	return n
}

func responseSize(resp *rpcResponse) int {
	n := 128 + len(resp.Err) + 4*len(resp.Versions)
	if resp.Blob != nil {
		n += blobSize(resp.Blob)
	}
	for _, s := range resp.Names {
		n += 2 + len(s)
	}
	for i := range resp.Messages {
		n += messageSize(&resp.Messages[i])
	}
	for i := range resp.Blobs {
		n += blobSize(&resp.Blobs[i])
	}
	return n
}

func blobSize(b *Blob) int { return 24 + len(b.Name) + len(b.Data) }

func messageSize(m *Message) int {
	return 32 + len(m.ID) + len(m.From) + len(m.To) + len(m.Kind) + len(m.Body)
}

// --- decoder ----------------------------------------------------------------

// wireReader consumes a payload front to back. The first malformed field
// sets err and empties the input, so every later read yields a zero value
// and the caller checks err once at the end.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	r.err, r.b = errWireCodec, nil
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// take returns the next n bytes, capacity-capped so an append by the holder
// reallocates instead of overwriting the rest of the frame.
func (r *wireReader) take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) str() string { return string(r.take(r.uvarint())) }

func (r *wireReader) data() []byte {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	return r.take(n - 1)
}

func (r *wireReader) stamp() time.Time {
	sec := r.varint()
	nsec := r.uvarint()
	if nsec >= uint64(time.Second) {
		r.fail()
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}

func (r *wireReader) flag() bool {
	f := r.take(1)
	if len(f) == 1 && f[0] > 1 {
		r.fail()
	}
	return len(f) == 1 && f[0] == 1
}

// count reads an element count and rejects one the remaining input cannot
// hold, given that every element encodes to at least minSize bytes — so a
// forged count never sizes an allocation.
func (r *wireReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail()
		return 0
	}
	return int(n)
}

// Smallest encodings of the counted elements.
const (
	minBlobSize    = 5 // name, version, data, stored (2)
	minMessageSize = 8 // id, from, to, kind, body, sent (2), seq
	minPutSize     = 2
	minGetSize     = 2
)

func (r *wireReader) header() {
	if len(r.b) < 2 || r.b[0] != wireMagic || r.b[1] != wireVersion {
		r.fail()
		return
	}
	r.b = r.b[2:]
}

// finish reports the first decoding error, or trailing bytes.
func (r *wireReader) finish() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail()
	}
	return r.err
}

func (r *wireReader) blob() Blob {
	return Blob{Name: r.str(), Version: int(r.varint()), Data: r.data(), Stored: r.stamp()}
}

func (r *wireReader) message() Message {
	return Message{ID: r.str(), From: r.str(), To: r.str(), Kind: r.str(), Body: r.data(), Sent: r.stamp(), Seq: r.uvarint()}
}

func (r *wireReader) names() []string {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

// decodeRequest decodes a request payload.
func decodeRequest(b []byte) (rpcRequest, error) {
	r := wireReader{b: b}
	r.header()
	req := rpcRequest{
		Op:        r.str(),
		Name:      r.str(),
		Data:      r.data(),
		Prefix:    r.str(),
		Recipient: r.str(),
		Max:       int(r.varint()),
		Message:   r.message(),
	}
	if n := r.count(minPutSize); n > 0 {
		req.Puts = make([]BlobPut, n)
		for i := range req.Puts {
			req.Puts[i] = BlobPut{Name: r.str(), Data: r.data()}
		}
	}
	req.Names = r.names()
	if n := r.count(minGetSize); n > 0 {
		req.Gets = make([]CondGet, n)
		for i := range req.Gets {
			req.Gets[i] = CondGet{Name: r.str(), IfNewer: int(r.varint())}
		}
	}
	if err := r.finish(); err != nil {
		return rpcRequest{}, err
	}
	return req, nil
}

// decodeResponse decodes a response payload.
func decodeResponse(b []byte) (rpcResponse, error) {
	r := wireReader{b: b}
	r.header()
	resp := rpcResponse{
		Err:          r.str(),
		RetryAfterMs: r.varint(),
		Version:      int(r.varint()),
	}
	if r.flag() {
		blob := r.blob()
		resp.Blob = &blob
	}
	resp.Names = r.names()
	if n := r.count(minMessageSize); n > 0 {
		resp.Messages = make([]Message, n)
		for i := range resp.Messages {
			resp.Messages[i] = r.message()
		}
	}
	if r.flag() {
		resp.Stats = &Stats{
			Puts: r.varint(), Gets: r.varint(), Deletes: r.varint(), Lists: r.varint(),
			Sends: r.varint(), Receives: r.varint(), BytesStored: r.varint(),
		}
	}
	if n := r.count(1); n > 0 {
		resp.Versions = make([]int, n)
		for i := range resp.Versions {
			resp.Versions[i] = int(r.varint())
		}
	}
	if n := r.count(minBlobSize); n > 0 {
		resp.Blobs = make([]Blob, n)
		for i := range resp.Blobs {
			resp.Blobs[i] = r.blob()
		}
	}
	if err := r.finish(); err != nil {
		return rpcResponse{}, err
	}
	return resp, nil
}

// --- dispatch and errors ----------------------------------------------------

// dispatch executes one wire request against svc.
func dispatch(svc Service, req rpcRequest) rpcResponse {
	var resp rpcResponse
	var err error
	switch req.Op {
	case "put":
		resp.Version, err = svc.PutBlob(req.Name, req.Data)
	case "get":
		var b Blob
		b, err = svc.GetBlob(req.Name)
		if err == nil {
			resp.Blob = &b
		}
	case "delete":
		err = svc.DeleteBlob(req.Name)
	case "list":
		resp.Names, err = svc.ListBlobs(req.Prefix)
	case "putb":
		resp.Versions, err = PutBlobsVia(svc, req.Puts)
	case "getb":
		resp.Blobs, err = GetBlobsVia(svc, req.Names)
	case "getc":
		resp.Blobs, err = GetBlobsIfVia(svc, req.Gets)
	case "send":
		err = svc.Send(req.Message)
	case "receive":
		resp.Messages, err = svc.Receive(req.Recipient, req.Max)
	case "stats":
		st := svc.Stats()
		resp.Stats = &st
	default:
		resp.Err = fmt.Sprintf("cloud: unknown op %q", req.Op)
		return resp
	}
	applyRespError(&resp, err)
	return resp
}

// applyRespError serializes err into resp, preserving the retry-after hint
// of typed overload/quota rejections so the client can rebuild them.
func applyRespError(resp *rpcResponse, err error) {
	if err == nil {
		return
	}
	resp.Err = err.Error()
	var retry time.Duration
	var oe *OverloadError
	var qe *QuotaError
	switch {
	case errors.As(err, &oe):
		retry = oe.RetryAfter
	case errors.As(err, &qe):
		retry = qe.RetryAfter
	default:
		return
	}
	resp.RetryAfterMs = retry.Milliseconds()
	if resp.RetryAfterMs == 0 && retry > 0 {
		resp.RetryAfterMs = 1 // round sub-millisecond hints up, not to zero
	}
}

// respError turns a wire response back into the error the server-side
// Service returned, reconstructing the typed sentinels, a wrapped
// ErrQuorumFailed (detail text kept) and the retry-after carrying
// OverloadError/QuotaError so errors.Is/As work across the wire.
func respError(resp rpcResponse) error {
	switch resp.Err {
	case "":
		return nil
	case ErrBlobNotFound.Error():
		return ErrBlobNotFound
	case ErrUnavailable.Error():
		return ErrUnavailable
	case ErrMailboxEmpty.Error():
		return ErrMailboxEmpty
	}
	if detail, ok := strings.CutPrefix(resp.Err, ErrQuorumFailed.Error()); ok {
		return fmt.Errorf("%w%s", ErrQuorumFailed, detail)
	}
	retry := time.Duration(resp.RetryAfterMs) * time.Millisecond
	if strings.HasPrefix(resp.Err, "cloud: overloaded") {
		return &OverloadError{RetryAfter: retry}
	}
	var tenant, resource string
	if _, err := fmt.Sscanf(resp.Err, "cloud: tenant %q over %s quota", &tenant, &resource); err == nil {
		return &QuotaError{Tenant: tenant, Resource: resource, RetryAfter: retry}
	}
	return errors.New(resp.Err)
}
