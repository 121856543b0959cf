package datamodel

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// codecTestDocs covers the edge cases of the wire format: empty optional
// fields, unicode, zero time, many tags.
func codecTestDocs() []*Document {
	return []*Document{
		{
			ID: "doc-minimal", Owner: "alice", Type: "note",
		},
		{
			ID: "doc-full", Owner: "alice-gw", Class: ClassSensed, Type: "power-series",
			Title: "household power — §7 test", Keywords: []string{"energy", "linky", "unicode-é"},
			Tags:      map[string]string{"device": "linky", "year": "2013", "zone": "fr/paris"},
			CreatedAt: time.Date(2013, 1, 7, 12, 30, 45, 123456789, time.UTC),
			Size:      1 << 20, ContentHash: "abc123", BlobRef: "alice-gw/vault/doc-full",
			KeyFingerprint: "deadbeef00112233",
		},
		{
			ID: "doc-empty-collections", Owner: "bob", Type: "photo",
			Keywords: []string{}, Tags: map[string]string{},
			CreatedAt: time.Date(2026, 7, 26, 0, 0, 0, 0, time.FixedZone("CEST", 2*3600)),
		},
		{
			ID: "doc-empty-keyword", Owner: "bob", Type: "photo",
			Keywords: []string{"", "x"}, Tags: map[string]string{"": "empty-key"},
		},
	}
}

func docsEquivalent(t *testing.T, want, got *Document) {
	t.Helper()
	if want.ID != got.ID || want.Owner != got.Owner || want.Class != got.Class ||
		want.Type != got.Type || want.Title != got.Title ||
		want.Size != got.Size || want.ContentHash != got.ContentHash ||
		want.BlobRef != got.BlobRef || want.KeyFingerprint != got.KeyFingerprint {
		t.Fatalf("scalar fields differ:\nwant %+v\ngot  %+v", want, got)
	}
	if !want.CreatedAt.Equal(got.CreatedAt) {
		t.Fatalf("created_at differs: %v != %v", want.CreatedAt, got.CreatedAt)
	}
	if len(want.Keywords) != len(got.Keywords) {
		t.Fatalf("keyword count differs: %v != %v", want.Keywords, got.Keywords)
	}
	for i := range want.Keywords {
		if want.Keywords[i] != got.Keywords[i] {
			t.Fatalf("keyword %d differs: %v != %v", i, want.Keywords, got.Keywords)
		}
	}
	if len(want.Tags) != len(got.Tags) {
		t.Fatalf("tag count differs: %v != %v", want.Tags, got.Tags)
	}
	for k, v := range want.Tags {
		if got.Tags[k] != v {
			t.Fatalf("tag %q differs: %q != %q", k, v, got.Tags[k])
		}
	}
}

// TestBinaryCodecRoundTrip proves binary encode/decode is lossless.
func TestBinaryCodecRoundTrip(t *testing.T) {
	for _, doc := range codecTestDocs() {
		data, err := doc.EncodeBinary()
		if err != nil {
			t.Fatalf("%s: EncodeBinary: %v", doc.ID, err)
		}
		got, err := DecodeDocument(data)
		if err != nil {
			t.Fatalf("%s: DecodeDocument: %v", doc.ID, err)
		}
		docsEquivalent(t, doc, got)
	}
}

// TestCrossCodecDecode pins that the binary codec is the only one: the JSON
// form of a valid document — which earlier versions also decoded — is
// rejected with ErrCodec, never read as a document.
func TestCrossCodecDecode(t *testing.T) {
	for _, doc := range codecTestDocs() {
		jsonBytes, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", doc.ID, err)
		}
		if _, err := DecodeDocument(jsonBytes); !errors.Is(err, ErrCodec) {
			t.Fatalf("%s: DecodeDocument(json) = %v, want ErrCodec", doc.ID, err)
		}
	}
	for _, input := range []string{`{"id":"x","owner":"y","type":"z"}`, "not json", ""} {
		if _, err := DecodeDocument([]byte(input)); !errors.Is(err, ErrCodec) {
			t.Fatalf("DecodeDocument(%q) = %v, want ErrCodec", input, err)
		}
	}
}

// TestBinaryCodecDeterministic: equal documents encode to equal bytes (tags
// are sorted), so replicated blobs are byte-stable across replicas.
func TestBinaryCodecDeterministic(t *testing.T) {
	doc := codecTestDocs()[1]
	a, _ := doc.EncodeBinary()
	b, _ := doc.Clone().EncodeBinary()
	if string(a) != string(b) {
		t.Fatal("two encodings of the same document differ")
	}
}

func TestBinaryCodecRejectsMalformed(t *testing.T) {
	doc := codecTestDocs()[1]
	data, _ := doc.EncodeBinary()
	cases := map[string][]byte{
		"empty":          {},
		"magic only":     {DocCodecMagic},
		"bad version":    {DocCodecMagic, 99},
		"truncated":      data[:len(data)/2],
		"trailing bytes": append(append([]byte(nil), data...), 0x00),
	}
	for name, input := range cases {
		if _, err := DecodeDocument(input); err == nil {
			t.Fatalf("%s: malformed input accepted", name)
		}
	}
	// Truncation at every boundary must error, never panic.
	for n := 0; n < len(data); n++ {
		if _, err := DecodeDocument(data[:n]); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
}

// FuzzDecodeDocument throws arbitrary bytes at the decoder: it must never
// panic, and anything it accepts must re-encode and decode to an equivalent
// document (round-trip stability). The seeds are binary documents, whole and
// cut short, plus malformed headers.
func FuzzDecodeDocument(f *testing.F) {
	for _, doc := range codecTestDocs() {
		if bin, err := doc.EncodeBinary(); err == nil {
			f.Add(bin)
			f.Add(bin[:len(bin)/2])
		}
	}
	f.Add([]byte{DocCodecMagic, docCodecVersion, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{DocCodecMagic, 99})

	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := DecodeDocument(data)
		if err != nil {
			return
		}
		bin, err := doc.EncodeBinary()
		if err != nil {
			t.Fatalf("decoded document does not re-encode: %v", err)
		}
		again, err := DecodeDocument(bin)
		if err != nil {
			t.Fatalf("re-encoded document does not decode: %v", err)
		}
		docsEquivalent(t, doc, again)
	})
}
