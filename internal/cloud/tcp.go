package cloud

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// This file exposes a Service over TCP with a small JSON line protocol, so a
// cell binary (cmd/tccell) can talk to a cloud binary (cmd/tccloud) exactly
// as Figure 1 sketches. Each request is one JSON object on a line; each
// response is one JSON object on a line.

// rpcRequest is the wire format of a request.
type rpcRequest struct {
	Op        string    `json:"op"`
	Name      string    `json:"name,omitempty"`
	Data      []byte    `json:"data,omitempty"`
	Prefix    string    `json:"prefix,omitempty"`
	Recipient string    `json:"recipient,omitempty"`
	Max       int       `json:"max,omitempty"`
	Message   Message   `json:"message,omitempty"`
	Puts      []BlobPut `json:"puts,omitempty"`
	Names     []string  `json:"names,omitempty"`
	Gets      []CondGet `json:"gets,omitempty"`
}

// rpcResponse is the wire format of a response. RetryAfterMs carries the
// backoff hint of typed overload/quota rejections so respError can
// reconstruct them client-side.
type rpcResponse struct {
	Err          string    `json:"err,omitempty"`
	RetryAfterMs int64     `json:"retry_after_ms,omitempty"`
	Version      int       `json:"version,omitempty"`
	Blob         *Blob     `json:"blob,omitempty"`
	Names        []string  `json:"names,omitempty"`
	Messages     []Message `json:"messages,omitempty"`
	Stats        *Stats    `json:"stats,omitempty"`
	Versions     []int     `json:"versions,omitempty"`
	Blobs        []Blob    `json:"blobs,omitempty"`
}

// Server serves a Service over a listener.
type Server struct {
	svc Service
	ln  net.Listener
	wg  sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewServer wraps svc; call Serve to start accepting connections.
func NewServer(svc Service) *Server { return &Server{svc: svc} }

// Serve accepts connections on ln until Close is called. It returns after the
// listener is closed.
func (s *Server) Serve(ln net.Listener) error {
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

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req rpcRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := dispatch(s.svc, req)
		if err := enc.Encode(&resp); err != nil {
			return
		}
	}
}

// dispatch executes one wire request against svc. It is shared by the JSON
// line Server and the framed FrameServer, which speak the same request and
// response payloads and differ only in framing and concurrency.
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

// Client is a Service implementation that talks to a remote Server.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a cloud server at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cloud: dial: %w", err)
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(req rpcRequest) (rpcResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(&req); err != nil {
		return rpcResponse{}, fmt.Errorf("cloud: rpc send: %w", err)
	}
	var resp rpcResponse
	if err := c.dec.Decode(&resp); err != nil {
		return rpcResponse{}, fmt.Errorf("cloud: rpc receive: %w", err)
	}
	return resp, nil
}

// respError turns a wire response back into the error the server-side
// Service returned, reconstructing the typed sentinels and the retry-after
// carrying OverloadError/QuotaError so errors.Is/As work across the wire.
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

// PutBlob implements Service.
func (c *Client) PutBlob(name string, data []byte) (int, error) {
	resp, err := c.call(rpcRequest{Op: "put", Name: name, Data: data})
	if err != nil {
		return 0, err
	}
	return resp.Version, respError(resp)
}

// GetBlob implements Service.
func (c *Client) GetBlob(name string) (Blob, error) {
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
func (c *Client) DeleteBlob(name string) error {
	resp, err := c.call(rpcRequest{Op: "delete", Name: name})
	if err != nil {
		return err
	}
	return respError(resp)
}

// ListBlobs implements Service.
func (c *Client) ListBlobs(prefix string) ([]string, error) {
	resp, err := c.call(rpcRequest{Op: "list", Prefix: prefix})
	if err != nil {
		return nil, err
	}
	return resp.Names, respError(resp)
}

// PutBlobs implements BatchService over the wire: the whole batch is one
// request/response exchange.
func (c *Client) PutBlobs(puts []BlobPut) ([]int, error) {
	resp, err := c.call(rpcRequest{Op: "putb", Puts: puts})
	if err != nil {
		return nil, err
	}
	if err := respError(resp); err != nil {
		return nil, err
	}
	// The provider is untrusted: never hand positional callers a slice whose
	// length the server chose.
	if len(resp.Versions) != len(puts) {
		return nil, fmt.Errorf("cloud: batch put: server returned %d versions for %d blobs", len(resp.Versions), len(puts))
	}
	return resp.Versions, nil
}

// GetBlobs implements BatchService over the wire in one exchange. Missing
// blobs yield a zero Blob at their position.
func (c *Client) GetBlobs(names []string) ([]Blob, error) {
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

// GetBlobsIf implements ConditionalBatchService over the wire: the whole
// conditional batch is one request/response exchange, and the server only
// ships data for the blobs that advanced past the requested versions.
func (c *Client) GetBlobsIf(gets []CondGet) ([]Blob, error) {
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

// Send implements Service.
func (c *Client) Send(msg Message) error {
	resp, err := c.call(rpcRequest{Op: "send", Message: msg})
	if err != nil {
		return err
	}
	return respError(resp)
}

// Receive implements Service.
func (c *Client) Receive(recipient string, max int) ([]Message, error) {
	resp, err := c.call(rpcRequest{Op: "receive", Recipient: recipient, Max: max})
	if err != nil {
		return nil, err
	}
	return resp.Messages, respError(resp)
}

// Stats implements Service.
func (c *Client) Stats() Stats {
	resp, err := c.call(rpcRequest{Op: "stats"})
	if err != nil || resp.Stats == nil {
		return Stats{}
	}
	return *resp.Stats
}
