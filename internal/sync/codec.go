package sync

// Binary shard codec. Every dirty-shard push seals one shardState; the seed
// implementation paid json.Marshal/Unmarshal over the whole shard (hundreds
// of documents) per exchange. The length-prefixed binary form below embeds
// the datamodel binary document codec, roughly halving shard blob bytes and
// removing the reflection cost from the sync hot path. It is the only shard
// codec: a blob that does not start with the magic byte is rejected.
//
// Wire format (integers are unsigned varints):
//
//	[1] magic 0xD6 — distinct from the document magic and from JSON
//	[1] codec version (currently 1)
//	docs:      count + per entry: key string, revision, replica string,
//	           updated (uvarint length + time.MarshalBinary), flags byte
//	           (bit0 deleted, bit1 metadata present), [binary document]
//	vv:        count + (replica string, counter) pairs
//	conflicts: count + strings
//
// Doc keys, vector keys and conflict keys are sorted, so equal states encode
// to equal bytes on every replica.

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"trustedcells/internal/datamodel"
)

const (
	shardCodecMagic   = 0xD6
	shardCodecVersion = 1
	// shardCodecVersionAuth appends the authenticated-catalog section
	// (writer + attestations, see auth.go) after the conflict set. States
	// without attestations still encode as version 1, so disabling
	// attestation reproduces the pre-auth wire format byte for byte.
	shardCodecVersionAuth = 2

	shardFlagDeleted = 1 << 0
	shardFlagHasDoc  = 1 << 1
)

func appendTime(dst []byte, t time.Time) ([]byte, error) {
	tb, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(tb)))
	return append(dst, tb...), nil
}

// appendBytes writes a length-prefixed byte string.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// consumeBytes reads a length-prefixed byte string, copying it out of the
// (pooled, transient) decode buffer.
func consumeBytes(b []byte) ([]byte, []byte, error) {
	n, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b)) {
		return nil, nil, errShardCodec
	}
	return append([]byte(nil), b[:n]...), b[n:], nil
}

// appendShardState appends the binary encoding of st to dst.
func appendShardState(dst []byte, st shardState) ([]byte, error) {
	codecVersion := byte(shardCodecVersion)
	if st.Writer != "" || len(st.Attests) > 0 {
		codecVersion = shardCodecVersionAuth
	}
	dst = append(dst, shardCodecMagic, codecVersion)

	ids := make([]string, 0, len(st.Docs))
	for id := range st.Docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		v := st.Docs[id]
		dst = datamodel.AppendString(dst, id)
		dst = binary.AppendUvarint(dst, v.Revision)
		dst = datamodel.AppendString(dst, v.Replica)
		var err error
		if dst, err = appendTime(dst, v.Updated); err != nil {
			return nil, fmt.Errorf("sync: encode doc %s: %w", id, err)
		}
		var flags byte
		if v.Deleted {
			flags |= shardFlagDeleted
		}
		if v.Doc != nil {
			flags |= shardFlagHasDoc
		}
		dst = append(dst, flags)
		if v.Doc != nil {
			if dst, err = v.Doc.AppendBinary(dst); err != nil {
				return nil, fmt.Errorf("sync: encode doc %s: %w", id, err)
			}
		}
	}

	vvKeys := make([]string, 0, len(st.VV))
	for k := range st.VV {
		vvKeys = append(vvKeys, k)
	}
	sort.Strings(vvKeys)
	dst = binary.AppendUvarint(dst, uint64(len(vvKeys)))
	for _, k := range vvKeys {
		dst = datamodel.AppendString(dst, k)
		dst = binary.AppendUvarint(dst, st.VV[k])
	}

	conflicts := make([]string, 0, len(st.Conflicts))
	for k := range st.Conflicts {
		conflicts = append(conflicts, k)
	}
	sort.Strings(conflicts)
	dst = binary.AppendUvarint(dst, uint64(len(conflicts)))
	for _, k := range conflicts {
		dst = datamodel.AppendString(dst, k)
	}

	if codecVersion == shardCodecVersionAuth {
		dst = datamodel.AppendString(dst, st.Writer)
		reps := make([]string, 0, len(st.Attests))
		for rep := range st.Attests {
			reps = append(reps, rep)
		}
		sort.Strings(reps)
		dst = binary.AppendUvarint(dst, uint64(len(reps)))
		for _, rep := range reps {
			a := st.Attests[rep]
			dst = datamodel.AppendString(dst, rep)
			dst = binary.AppendUvarint(dst, a.Epoch)
			dst = appendBytes(dst, a.Root)
			dst = appendBytes(dst, a.Sig)
		}
	}
	return dst, nil
}

var errShardCodec = fmt.Errorf("sync: malformed shard state")

// decodeShardState parses a binary shard blob.
func decodeShardState(data []byte) (shardState, error) {
	if len(data) < 2 || data[0] != shardCodecMagic || (data[1] != shardCodecVersion && data[1] != shardCodecVersionAuth) {
		return shardState{}, errShardCodec
	}
	codecVersion := data[1]
	b := data[2:]

	nDocs, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return shardState{}, err
	}
	// Each entry costs several bytes on the wire; one byte is a safe lower
	// bound that keeps corrupted counts from forcing huge allocations.
	if nDocs > uint64(len(b)) {
		return shardState{}, errShardCodec
	}
	st := shardState{Docs: make(map[string]VersionedDoc, nDocs)}
	for i := uint64(0); i < nDocs; i++ {
		var id string
		if id, b, err = datamodel.ConsumeString(b); err != nil {
			return shardState{}, err
		}
		var v VersionedDoc
		if v.Revision, b, err = datamodel.ConsumeUvarint(b); err != nil {
			return shardState{}, err
		}
		if v.Replica, b, err = datamodel.ConsumeString(b); err != nil {
			return shardState{}, err
		}
		var tlen uint64
		if tlen, b, err = datamodel.ConsumeUvarint(b); err != nil {
			return shardState{}, err
		}
		if tlen > uint64(len(b)) {
			return shardState{}, errShardCodec
		}
		if err := v.Updated.UnmarshalBinary(b[:tlen]); err != nil {
			return shardState{}, fmt.Errorf("%w: updated: %v", errShardCodec, err)
		}
		b = b[tlen:]
		if len(b) < 1 {
			return shardState{}, errShardCodec
		}
		flags := b[0]
		b = b[1:]
		v.Deleted = flags&shardFlagDeleted != 0
		if flags&shardFlagHasDoc != 0 {
			var doc *datamodel.Document
			if doc, b, err = datamodel.DecodeDocumentPrefix(b); err != nil {
				return shardState{}, fmt.Errorf("%w: doc %s: %v", errShardCodec, id, err)
			}
			v.Doc = doc
		}
		st.Docs[id] = v
	}

	nVV, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return shardState{}, err
	}
	if nVV > uint64(len(b)) {
		return shardState{}, errShardCodec
	}
	if nVV > 0 {
		st.VV = make(map[string]uint64, nVV)
		for i := uint64(0); i < nVV; i++ {
			var k string
			if k, b, err = datamodel.ConsumeString(b); err != nil {
				return shardState{}, err
			}
			if st.VV[k], b, err = datamodel.ConsumeUvarint(b); err != nil {
				return shardState{}, err
			}
		}
	}

	nConflicts, b, err := datamodel.ConsumeUvarint(b)
	if err != nil {
		return shardState{}, err
	}
	if nConflicts > uint64(len(b)) {
		return shardState{}, errShardCodec
	}
	if nConflicts > 0 {
		st.Conflicts = make(map[string]bool, nConflicts)
		for i := uint64(0); i < nConflicts; i++ {
			var k string
			if k, b, err = datamodel.ConsumeString(b); err != nil {
				return shardState{}, err
			}
			st.Conflicts[k] = true
		}
	}

	if codecVersion == shardCodecVersionAuth {
		if st.Writer, b, err = datamodel.ConsumeString(b); err != nil {
			return shardState{}, err
		}
		var nAtt uint64
		if nAtt, b, err = datamodel.ConsumeUvarint(b); err != nil {
			return shardState{}, err
		}
		if nAtt > uint64(len(b)) {
			return shardState{}, errShardCodec
		}
		if nAtt > 0 {
			st.Attests = make(map[string]Attestation, nAtt)
			for i := uint64(0); i < nAtt; i++ {
				var rep string
				if rep, b, err = datamodel.ConsumeString(b); err != nil {
					return shardState{}, err
				}
				var a Attestation
				if a.Epoch, b, err = datamodel.ConsumeUvarint(b); err != nil {
					return shardState{}, err
				}
				if a.Root, b, err = consumeBytes(b); err != nil {
					return shardState{}, err
				}
				if a.Sig, b, err = consumeBytes(b); err != nil {
					return shardState{}, err
				}
				st.Attests[rep] = a
			}
		}
	}
	if len(b) != 0 {
		return shardState{}, errShardCodec
	}
	return st, nil
}
