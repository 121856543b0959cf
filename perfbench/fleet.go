package main

// The fleet loader: cells of a sim.Fleet sealing documents and uploading
// them in batches, and reading documents back, opening each under its
// name-bound envelope and comparing it byte for byte with the seeded
// payload. Cells are partitioned across workers (cell c belongs to worker
// c mod workers), and each worker owns one tenant connection, so a cell's
// documents always travel one way and no two requests of a worker overlap.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/sim"
)

// fleetMix shapes the requests of a fleet workload.
type fleetMix struct {
	cells       int
	batch       int     // documents per write, and per read
	payload     int     // plaintext bytes per document
	readFrac    float64 // share of requests that read
	zipfS       float64 // cell skew; 0 picks cells uniformly
	uniformRead bool    // reads pick batch random documents, not a cell's latest
}

type fleetLoader struct {
	mix     fleetMix
	seed    int64
	fleet   *sim.Fleet
	clients []cloud.Service // worker i's connection
	// prefixes[i] is the name rewrite worker i's connection applies, so the
	// recovered store can be read directly.
	prefixes []string
	tr       *Tracer
	workers  []*fleetWorker
	// userBytes counts the plaintext bytes of every acknowledged document.
	userBytes atomic.Int64
	// acked[c] is one past cell c's highest acknowledged sequence; every
	// lower sequence was acknowledged except those listed in holes. Only
	// the worker owning c touches acked[c].
	acked []uint32
}

type fleetWorker struct {
	idx      int
	rng      *rand.Rand
	zipf     *rand.Zipf
	payload  []byte
	want     []byte
	sealBufs [][]byte
	plains   [][]byte
	openBuf  []byte
	holes    map[uint64]bool // cell<<32|seq of writes that were never acknowledged
}

func newFleetLoader(mix fleetMix, seed int64, clients []cloud.Service, prefixes []string, tr *Tracer) (*fleetLoader, error) {
	fleet, err := sim.NewFleet(mix.cells, []byte(fmt.Sprintf("perfbench-%d", seed)))
	if err != nil {
		return nil, err
	}
	d := &fleetLoader{mix: mix, seed: seed, fleet: fleet, clients: clients, prefixes: prefixes, tr: tr,
		acked: make([]uint32, mix.cells)}
	per := uint64(mix.cells / len(clients))
	for w := range clients {
		rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
		fw := &fleetWorker{idx: w, rng: rng, payload: make([]byte, mix.payload),
			want: make([]byte, mix.payload), sealBufs: make([][]byte, mix.batch),
			plains: make([][]byte, mix.batch),
			holes:  map[uint64]bool{}}
		if mix.zipfS > 1 {
			fw.zipf = rand.NewZipf(rng, mix.zipfS, 1, per-1)
		}
		d.workers = append(d.workers, fw)
	}
	return d, nil
}

// pickCell chooses one of worker w's cells.
func (d *fleetLoader) pickCell(fw *fleetWorker) int {
	n := len(d.workers)
	var k int
	if fw.zipf != nil {
		k = int(fw.zipf.Uint64())
	} else {
		k = fw.rng.Intn(d.mix.cells / n)
	}
	return k*n + fw.idx
}

// request is the requestFn of every fleet workload.
func (d *fleetLoader) request(w int, due time.Time, st *runStats) {
	fw := d.workers[w]
	cell := d.pickCell(fw)
	read := fw.rng.Float64() < d.mix.readFrac
	if read && !d.mix.uniformRead && d.acked[cell] == 0 {
		read = false // nothing to read yet: the cell writes instead
	}
	name := opPut
	if read {
		name = opGet
	}
	ctx := d.tr.Begin(w, due, name)
	cellSpan := d.tr.open(ctx, slotCell, slotRoot, layerCell, name, -1)
	var docs int
	var err error
	if read {
		docs, err = d.read(fw, cell, ctx, st)
	} else {
		docs, err = d.write(fw, cell, ctx, st)
	}
	d.tr.close(ctx, slotCell, cellSpan)
	done := time.Now()
	d.tr.End(w, ctx, done)
	st.attempted.Add(1)
	if err != nil {
		st.failed.Add(1)
		if !errors.Is(err, cloud.ErrOverloaded) && !errors.Is(err, cloud.ErrQuotaExceeded) {
			st.violate("worker %d: %v", w, err)
		}
		return
	}
	st.docs.Add(int64(docs))
	st.record(!read, due, done.Sub(due))
}

// write seals and uploads a batch of fresh documents of cell.
func (d *fleetLoader) write(fw *fleetWorker, cell int, ctx *reqCtx, st *runStats) (int, error) {
	n := d.mix.batch
	first := d.acked[cell]
	puts := make([]cloud.BlobPut, n)
	seal := d.tr.openDocs(ctx, slotFrame, slotCell, layerSeal, opPut, -1, n)
	for b := 0; b < n; b++ {
		seq := d.fleet.NextSeq(cell)
		if b == 0 {
			first = seq
		}
		name := d.fleet.DocName(cell, seq)
		payloadFor(fw.payload, d.seed, cell, seq)
		env, err := d.fleet.Seal(fw.sealBufs[b][:0], name, fw.payload)
		if err != nil {
			d.tr.close(ctx, slotFrame, seal)
			return 0, err
		}
		fw.sealBufs[b] = env
		puts[b] = cloud.BlobPut{Name: name, Data: env}
	}
	d.tr.close(ctx, slotFrame, seal)
	if _, err := cloud.PutBlobsVia(d.clients[fw.idx], puts); err != nil {
		for b := 0; b < n; b++ {
			fw.holes[uint64(cell)<<32|uint64(first)+uint64(b)] = true
		}
		return 0, err
	}
	d.acked[cell] = first + uint32(n)
	d.userBytes.Add(int64(n * d.mix.payload))
	return n, nil
}

// read fetches documents and verifies each one.
func (d *fleetLoader) read(fw *fleetWorker, cell int, ctx *reqCtx, st *runStats) (int, error) {
	var cells []int
	var seqs []uint32
	if d.mix.uniformRead {
		for len(seqs) < d.mix.batch {
			c := d.pickCell(fw)
			if d.acked[c] == 0 {
				continue
			}
			s := uint32(fw.rng.Intn(int(d.acked[c])))
			if fw.holes[uint64(c)<<32|uint64(s)] {
				continue
			}
			cells, seqs = append(cells, c), append(seqs, s)
		}
	} else {
		hi := int(d.acked[cell])
		for s := hi - d.mix.batch; s < hi; s++ {
			if s >= 0 && !fw.holes[uint64(cell)<<32|uint64(s)] {
				cells, seqs = append(cells, cell), append(seqs, uint32(s))
			}
		}
	}
	names := make([]string, len(seqs))
	for i := range seqs {
		names[i] = d.fleet.DocName(cells[i], seqs[i])
	}
	blobs, err := cloud.GetBlobsVia(d.clients[fw.idx], names)
	if err != nil {
		return 0, err
	}
	// Open every envelope first (the crypto span), then compare with the
	// seeded payloads (the cell's own time).
	open := d.tr.openDocs(ctx, slotFrame, slotCell, layerOpen, opGet, -1, len(blobs))
	errs := make([]error, len(blobs))
	for i, b := range blobs {
		if b.Version == 0 {
			errs[i] = errMissing
			continue
		}
		fw.plains[i], errs[i] = d.fleet.Open(fw.plains[i][:0], names[i], b.Data)
	}
	d.tr.close(ctx, slotFrame, open)
	for i := range blobs {
		d.check(fw, cells[i], seqs[i], names[i], fw.plains[i], errs[i], st)
	}
	return len(blobs), nil
}

var errMissing = errors.New("missing")

// check compares one opened document with its seeded payload.
func (d *fleetLoader) check(fw *fleetWorker, cell int, seq uint32, name string, plain []byte, err error, st *runStats) {
	switch {
	case errors.Is(err, errMissing):
		st.violate("acknowledged document %s missing", name)
	case err != nil:
		st.violate("document %s does not open under its name: %v", name, err)
	default:
		payloadFor(fw.want, d.seed, cell, seq)
		if !bytes.Equal(plain, fw.want) {
			st.violate("document %s does not match its seeded payload", name)
		}
	}
}

// verify opens and checks one fetched document.
func (d *fleetLoader) verify(fw *fleetWorker, cell int, seq uint32, name string, b cloud.Blob, st *runStats) {
	if b.Version == 0 {
		d.check(fw, cell, seq, name, nil, errMissing, st)
		return
	}
	plain, err := d.fleet.Open(fw.openBuf[:0], name, b.Data)
	if err == nil {
		fw.openBuf = plain
	}
	d.check(fw, cell, seq, name, plain, err, st)
}

// preload gives every cell docsPerCell acknowledged documents, writing
// straight into each worker's tenant namespace in large batches.
func (d *fleetLoader) preload(views []cloud.Service, docsPerCell int) error {
	const chunk = 256
	errs := make([]error, len(d.workers))
	var wg sync.WaitGroup
	for w := range d.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fw := d.workers[w]
			var puts []cloud.BlobPut
			flush := func() error {
				if len(puts) == 0 {
					return nil
				}
				_, err := cloud.PutBlobsVia(views[w], puts)
				puts = puts[:0]
				return err
			}
			for c := w; c < d.mix.cells; c += len(d.workers) {
				for k := 0; k < docsPerCell; k++ {
					seq := d.fleet.NextSeq(c)
					name := d.fleet.DocName(c, seq)
					payloadFor(fw.payload, d.seed, c, seq)
					env, err := d.fleet.Seal(nil, name, fw.payload)
					if err != nil {
						errs[w] = err
						return
					}
					puts = append(puts, cloud.BlobPut{Name: name, Data: env})
					if len(puts) == chunk {
						if errs[w] = flush(); errs[w] != nil {
							return
						}
					}
				}
				d.acked[c] = uint32(docsPerCell)
			}
			errs[w] = flush()
		}(w)
	}
	wg.Wait()
	d.userBytes.Add(int64(d.mix.cells * docsPerCell * d.mix.payload))
	return errors.Join(errs...)
}

// writeBurst has every worker write n batches to its own cells, one after
// another.
func (d *fleetLoader) writeBurst(n int, st *runStats) {
	var wg sync.WaitGroup
	for w := range d.workers {
		wg.Add(1)
		go func(fw *fleetWorker) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				st.attempted.Add(1)
				if _, err := d.write(fw, d.pickCell(fw), nil, st); err != nil {
					st.failed.Add(1)
					st.violate("recovery tail write: %v", err)
				}
			}
		}(d.workers[w])
	}
	wg.Wait()
}

// verifyAll reads every acknowledged document back through svc (the
// recovered store) and checks it; it returns the number checked.
func (d *fleetLoader) verifyAll(svc cloud.Service, st *runStats) int64 {
	const chunk = 256
	var checked int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := range d.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fw := d.workers[w]
			prefix := d.prefixes[w]
			var names []string
			var cells []int
			var seqs []uint32
			var n int64
			check := func() {
				if len(names) == 0 {
					return
				}
				blobs, err := cloud.GetBlobsVia(svc, names)
				if err != nil {
					st.violate("recovered store: %v", err)
				} else {
					for i, b := range blobs {
						d.verify(fw, cells[i], seqs[i], names[i][len(prefix):], b, st)
					}
				}
				n += int64(len(names))
				names, cells, seqs = names[:0], cells[:0], seqs[:0]
			}
			for c := w; c < d.mix.cells; c += len(d.workers) {
				for s := uint32(0); s < d.acked[c]; s++ {
					if fw.holes[uint64(c)<<32|uint64(s)] {
						continue
					}
					names = append(names, prefix+d.fleet.DocName(c, s))
					cells, seqs = append(cells, c), append(seqs, s)
					if len(names) == chunk {
						check()
					}
				}
			}
			check()
			mu.Lock()
			checked += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return checked
}
