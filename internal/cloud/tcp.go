package cloud

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// This file holds the payload half of the wire protocol: the JSON request and
// response a frame carries (frame.go), the server-side dispatch of a request
// onto a Service, and the client-side reconstruction of typed errors. A cell
// binary (cmd/tccell) talks to a cloud binary (cmd/tccloud) over it exactly
// as Figure 1 sketches.

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
