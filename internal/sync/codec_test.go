package sync

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"trustedcells/internal/datamodel"
)

func codecTestState() shardState {
	updated := time.Date(2013, 1, 7, 9, 0, 0, 0, time.UTC)
	return shardState{
		Docs: map[string]VersionedDoc{
			"doc-live": {
				Doc: &datamodel.Document{ID: "doc-live", Owner: "alice", Type: "note",
					Title: "live", Keywords: []string{"k1"}, Tags: map[string]string{"a": "b"},
					CreatedAt: updated, Class: datamodel.ClassAuthored},
				Revision: 3, Replica: "alice/gateway", Updated: updated,
			},
			"doc-tombstone": {Revision: 5, Replica: "alice/phone", Updated: updated, Deleted: true},
		},
		VV:        map[string]uint64{"alice/gateway": 7, "alice/phone": 2},
		Conflicts: map[string]bool{"doc-live@2:alice/phone": true},
	}
}

func statesEquivalent(t *testing.T, want, got shardState) {
	t.Helper()
	if len(want.Docs) != len(got.Docs) {
		t.Fatalf("doc count differs: %d != %d", len(want.Docs), len(got.Docs))
	}
	for id, wv := range want.Docs {
		gv, ok := got.Docs[id]
		if !ok {
			t.Fatalf("missing doc %s", id)
		}
		if wv.Revision != gv.Revision || wv.Replica != gv.Replica || wv.Deleted != gv.Deleted {
			t.Fatalf("doc %s metadata differs: %+v != %+v", id, wv, gv)
		}
		if !wv.Updated.Equal(gv.Updated) {
			t.Fatalf("doc %s updated differs: %v != %v", id, wv.Updated, gv.Updated)
		}
		if (wv.Doc == nil) != (gv.Doc == nil) {
			t.Fatalf("doc %s presence differs", id)
		}
		if wv.Doc != nil && (wv.Doc.ID != gv.Doc.ID || wv.Doc.Title != gv.Doc.Title) {
			t.Fatalf("doc %s content differs: %+v != %+v", id, wv.Doc, gv.Doc)
		}
	}
	if !reflect.DeepEqual(want.VV, got.VV) {
		t.Fatalf("version vectors differ: %v != %v", want.VV, got.VV)
	}
	if !reflect.DeepEqual(want.Conflicts, got.Conflicts) {
		t.Fatalf("conflict sets differ: %v != %v", want.Conflicts, got.Conflicts)
	}
}

func TestShardCodecRoundTrip(t *testing.T) {
	want := codecTestState()
	data, err := appendShardState(nil, want)
	if err != nil {
		t.Fatalf("appendShardState: %v", err)
	}
	got, err := decodeShardState(data)
	if err != nil {
		t.Fatalf("decodeShardState: %v", err)
	}
	statesEquivalent(t, want, got)
}

// TestShardCodecJSONFallback pins that the JSON fallback is gone: the JSON
// form of a shard state, which earlier replicas also decoded, is rejected
// with errShardCodec, and the binary form stays smaller than its JSON twin.
func TestShardCodecJSONFallback(t *testing.T) {
	want := codecTestState()
	jsonBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range [][]byte{jsonBytes, []byte("{}"), nil} {
		if _, err := decodeShardState(input); !errors.Is(err, errShardCodec) {
			t.Fatalf("decodeShardState(%.20q) = %v, want errShardCodec", input, err)
		}
	}

	binBytes, err := appendShardState(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(binBytes) >= len(jsonBytes) {
		t.Fatalf("binary shard (%d B) not smaller than JSON (%d B)", len(binBytes), len(jsonBytes))
	}
}

func TestShardCodecDeterministic(t *testing.T) {
	st := codecTestState()
	a, _ := appendShardState(nil, st)
	b, _ := appendShardState(nil, st)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestShardCodecRejectsTruncation(t *testing.T) {
	data, err := appendShardState(nil, codecTestState())
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n < len(data); n++ {
		if _, err := decodeShardState(data[:n]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
	if _, err := decodeShardState(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
