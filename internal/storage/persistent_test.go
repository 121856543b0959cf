package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func testOpts() PersistentOptions {
	return PersistentOptions{MemtableBytes: 1 << 20, MaxRuns: 4}
}

func mustOpen(t *testing.T, dir string, opts PersistentOptions) *PersistentKV {
	t.Helper()
	p, err := OpenPersistentKV(dir, opts)
	if err != nil {
		t.Fatalf("OpenPersistentKV: %v", err)
	}
	return p
}

func put(t *testing.T, p *PersistentKV, key, value string) {
	t.Helper()
	if err := p.Apply([]Op{{Key: []byte(key), Value: []byte(value)}}); err != nil {
		t.Fatalf("Apply(%s): %v", key, err)
	}
}

// collect returns the full live state as a map.
func collect(t *testing.T, p *PersistentKV) map[string]string {
	t.Helper()
	state := make(map[string]string)
	if err := p.Scan(nil, nil, func(k, v []byte) bool {
		state[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return state
}

func TestPersistentKVRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "a", "1")
	put(t, p, "b", "2")
	if err := p.Apply([]Op{{Key: []byte("c"), Value: []byte("3")}, {Key: []byte("a"), Delete: true}}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, err := p.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	v, err := p.Get([]byte("b"))
	if err != nil || string(v) != "2" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := p.Get([]byte("b")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	want := map[string]string{"b": "2", "c": "3"}
	if got := collect(t, p2); len(got) != len(want) || got["b"] != "2" || got["c"] != "3" {
		t.Fatalf("reopened state = %v, want %v", got, want)
	}
	// Close flushed, so the reopened store recovered from a run.
	if rec := p2.Recovery(); rec.RecoveredRuns == 0 {
		t.Fatalf("recovery after graceful close: %+v", rec)
	}
}

// requireOnlyRunsFile fails unless dir holds exactly the first generation's
// runs file: the engine keeps no log beside its runs.
func requireOnlyRunsFile(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "runs-000000.dat" {
		t.Fatalf("store files = %v, want only the runs file", entries)
	}
}

// TestPersistentKVDisableWAL pins the engine's durability contract, once the
// optional log-less mode and now its only one: Apply only writes the
// memtable, Flush makes it durable. A crash keeps every flushed write and
// loses the rest — replaying those is the job of the caller's own log
// (cloud.Durable's commit journal).
func TestPersistentKVDisableWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "flushed", "yes")
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	put(t, p, "unflushed", "gone")
	p.Crash()

	requireOnlyRunsFile(t, dir)
	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if v, err := p2.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("flushed key after crash: %q, %v", v, err)
	}
	if _, err := p2.Get([]byte("unflushed")); err != ErrNotFound {
		t.Fatalf("unflushed key survived a crash: %v", err)
	}
}

// TestPersistentKVFlushResetsWAL: a flush empties the memtable into one run
// and leaves nothing to replay, so a crash right after it recovers the value
// from that run alone, with no bytes discarded.
func TestPersistentKVFlushResetsWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "k", "v")
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if st := p.Stats(); st.Flushes != 1 || st.Runs != 1 || st.MemtableLen != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	requireOnlyRunsFile(t, dir)
	p.Crash()

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if rec := p2.Recovery(); rec.RecoveredRuns != 1 || rec.DiscardedRunBytes != 0 {
		t.Fatalf("recovery: %+v", rec)
	}
	if v, err := p2.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after flush+crash: %q, %v", v, err)
	}
}

// readDirFiles returns the name and content of every file in dir.
func readDirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// openUnsupported opens dir, requires ErrUnsupportedFormat, and requires
// every file in dir to be exactly as it was before the open.
func openUnsupported(t *testing.T, dir string) {
	t.Helper()
	before := readDirFiles(t, dir)
	if p, err := OpenPersistentKV(dir, testOpts()); !errors.Is(err, ErrUnsupportedFormat) {
		if err == nil {
			p.Close()
		}
		t.Fatalf("OpenPersistentKV = %v, want ErrUnsupportedFormat", err)
	}
	after := readDirFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("files changed: %d before, %d after", len(before), len(after))
	}
	for name, raw := range before {
		if after[name] != raw {
			t.Fatalf("%s changed: %d bytes before, %d after", name, len(raw), len(after[name]))
		}
	}
}

// TestPersistentKVRejectsFooterlessRun: a generation holding a CRC-valid run
// in the pre-footer format fails to open instead of being truncated as a
// torn tail, and nothing in the directory is touched — not the run, not a
// torn run after it, not the stale files a successful open would remove.
func TestPersistentKVRejectsFooterlessRun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs-000001.dat")
	dev, err := OpenFileDevice(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFooterlessRun(t, dev, []memEntry{{key: []byte("a"), value: []byte("1")}, {key: []byte("b"), value: []byte("2")}})
	writeFooterlessRun(t, dev, []memEntry{{key: []byte("c"), value: []byte("3")}})
	if err := dev.Close(); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string]string{
		"runs-000000.dat": "stale generation",
		"runs-000002.tmp": "abandoned compaction",
		"wal.dat":         "",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	openUnsupported(t, dir)

	// A torn run after the footer-less ones changes nothing: the first run
	// already fails the open.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 0, 0, 1, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	openUnsupported(t, dir)
}

// TestPersistentKVRejectsNonEmptyWAL: older engines logged writes to wal.dat
// before they reached a run. A non-empty log fails the open with every file
// left as it was; an empty one (every store that ran with the log disabled
// has one) is removed.
func TestPersistentKVRejectsNonEmptyWAL(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "flushed", "yes")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "wal.dat")
	log := NewAppendLog(NewMemDevice(0))
	if _, err := log.Append([]byte("an unreplayed batch")); err != nil {
		t.Fatal(err)
	}
	record := make([]byte, log.Head())
	if _, err := log.dev.ReadAt(record, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, record, 0o600); err != nil {
		t.Fatal(err)
	}
	openUnsupported(t, dir)

	if err := os.WriteFile(walPath, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	p = mustOpen(t, dir, testOpts())
	defer p.Close()
	if _, err := os.Stat(walPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty wal.dat not removed: %v", err)
	}
	if v, err := p.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("flushed key: %q, %v", v, err)
	}
}

func TestPersistentKVTornRunTailTruncated(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "flushed", "yes")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	// A crash mid-flush leaves a torn run at the end of the runs device.
	runsPath := filepath.Join(dir, "runs-000000.dat")
	f, err := os.OpenFile(runsPath, os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	rec := p2.Recovery()
	if rec.RecoveredRuns != 1 || rec.DiscardedRunBytes != 12 {
		t.Fatalf("recovery: %+v", rec)
	}
	if v, err := p2.Get([]byte("flushed")); err != nil || string(v) != "yes" {
		t.Fatalf("flushed data lost: %q, %v", v, err)
	}
}

func TestPersistentKVBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := PersistentOptions{MemtableBytes: 512, MaxRuns: 2}
	p := mustOpen(t, dir, opts)
	val := bytes.Repeat([]byte("x"), 64)
	for i := 0; i < 200; i++ {
		if err := p.Apply([]Op{{Key: []byte(fmt.Sprintf("key-%04d", i)), Value: val}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := p.Stats()
		if st.Compactions >= 1 && st.Runs <= opts.MaxRuns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no compaction observed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%04d", i)
		if v, err := p.Get([]byte(key)); err != nil || !bytes.Equal(v, val) {
			t.Fatalf("%s after compaction: %v", key, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Exactly one generation file survives, and it reopens cleanly.
	matches, err := filepath.Glob(filepath.Join(dir, "runs-*.dat"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("generation files = %v (%v)", matches, err)
	}
	p2 := mustOpen(t, dir, opts)
	defer p2.Close()
	if n := len(collect(t, p2)); n != 200 {
		t.Fatalf("reopened after compaction: %d keys", n)
	}
}

func TestPersistentKVStaleGenerationRemoved(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, testOpts())
	put(t, p, "current", "gen")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a compaction interrupted between rename and delete: the old
	// generation is still on disk next to the new one. Rename the real file
	// to generation 1 and plant a stale generation 0.
	if err := os.Rename(filepath.Join(dir, "runs-000000.dat"), filepath.Join(dir, "runs-000001.dat")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs-000000.dat"), []byte("stale"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "runs-000002.tmp"), []byte("tmp junk"), 0o600); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if v, err := p2.Get([]byte("current")); err != nil || string(v) != "gen" {
		t.Fatalf("newest generation not used: %q, %v", v, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs-000000.dat")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale generation not removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs-000002.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file not removed: %v", err)
	}
}

func TestPersistentKVConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, PersistentOptions{MemtableBytes: 64 << 10, MaxRuns: 4})
	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-k%03d", w, i))
				if err := p.Apply([]Op{{Key: key, Value: key}}); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
				if v, err := p.Get(key); err != nil || !bytes.Equal(v, key) {
					t.Errorf("read own write %s: %v", key, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	p2 := mustOpen(t, dir, testOpts())
	defer p2.Close()
	if n := len(collect(t, p2)); n != workers*perWorker {
		t.Fatalf("recovered %d keys, want %d", n, workers*perWorker)
	}
}

func TestPersistentKVEmptyKeyRejected(t *testing.T) {
	p := mustOpen(t, t.TempDir(), testOpts())
	defer p.Close()
	if err := p.Apply([]Op{{Key: nil, Value: []byte("x")}}); err == nil {
		t.Fatal("empty key accepted")
	}
	if err := p.Apply(nil); err != nil {
		t.Fatalf("empty batch should be a no-op: %v", err)
	}
}
