package main

// The system under test: the front door cmd/tccloud serves — durable store
// (or a replicated set of durable stores) → admission → tenant namespaces →
// framed protocol over loopback TCP — plus one framed client connection per
// tenant. With a tracer, timing shims sit at every boundary the benchmark
// composes; without one the stack is exactly the production composition.

import (
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"trustedcells/internal/cloud"
)

// doorConfig selects the backend and the client count.
type doorConfig struct {
	dir     string
	members int // 1: one durable store; 3: cloud.Replicated over three
	// slowMember sits behind cloud.Faulty with slowLatency per call; -1 for
	// none.
	slowMember  int
	slowLatency time.Duration
	quorum      int // W = R for the replicated backend
	tenants     int
	tr          *Tracer
}

// frontDoor is one running stack.
type frontDoor struct {
	cfg      doorConfig
	stores   []*cloud.Durable
	repl     *cloud.Replicated
	adm      *cloud.Admission
	tenants  *cloud.Tenants
	srv      *cloud.FrameServer
	ln       *countingListener
	serveErr chan error
	conns    []*cloud.FrameClient
	// clients[i] is tenant i's connection, behind a frame shim when traced.
	clients []cloud.Service
}

// journalFile is the name of a durable store's commit journal, a file
// zero-filled to its full size when the store opens.
const journalFile = "journal.wal"

func (c doorConfig) storeDir(i int) string { return filepath.Join(c.dir, fmt.Sprintf("m%d", i)) }

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// tenantPrefix is the name rewrite the front door applies to tenant i.
func tenantPrefix(i int) string { return "t/" + tenantName(i) + "/" }

// openDoor opens the stores and starts the stack.
func openDoor(cfg doorConfig) (*frontDoor, error) {
	if cfg.tenants > 10 {
		return nil, fmt.Errorf("perfbench: %d tenants, at most 10", cfg.tenants)
	}
	d := &frontDoor{cfg: cfg}
	for i := 0; i < cfg.members; i++ {
		st, err := cloud.OpenDurable(cfg.storeDir(i), cloud.DefaultDurableOptions())
		if err != nil {
			d.shutdown(false)
			return nil, err
		}
		d.stores = append(d.stores, st)
	}
	if err := d.start(); err != nil {
		d.shutdown(false)
		return nil, err
	}
	return d, nil
}

// backend composes the stores into the service behind admission.
func (d *frontDoor) backend() (cloud.Service, error) {
	tr := d.cfg.tr
	if len(d.stores) == 1 {
		if tr == nil {
			return d.stores[0], nil
		}
		return newShim(d.stores[0], tr, layerDurable, slotBackend, slotAdmission, -1, -1), nil
	}
	members := make([]cloud.Service, len(d.stores))
	for i, st := range d.stores {
		var svc cloud.Service = st
		if i == d.cfg.slowMember {
			svc = cloud.NewFaulty(st, cloud.FaultyOptions{Latency: d.cfg.slowLatency})
		}
		if tr != nil {
			svc = newShim(svc, tr, layerMember, slotMember0+i, slotBackend, i, -1)
		}
		members[i] = svc
	}
	repl, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{
		WriteQuorum: d.cfg.quorum, ReadQuorum: d.cfg.quorum})
	if err != nil {
		return nil, err
	}
	d.repl = repl
	if tr == nil {
		return repl, nil
	}
	return newShim(repl, tr, layerReplicated, slotBackend, slotAdmission, -1, -1), nil
}

func (d *frontDoor) start() error {
	backend, err := d.backend()
	if err != nil {
		return err
	}
	d.adm = cloud.NewAdmission(backend, cloud.AdmissionOptions{})
	var entry cloud.Service = d.adm
	if d.cfg.tr != nil {
		entry = newShim(d.adm, d.cfg.tr, layerAdmission, slotAdmission, slotFrame, -1, -1)
	}
	d.tenants = cloud.NewTenants(entry)
	for i := 0; i < d.cfg.tenants; i++ {
		if err := d.tenants.Define(tenantName(i), cloud.TenantQuota{}); err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.ln = &countingListener{Listener: ln}
	d.srv = cloud.NewFrameServer(entry, cloud.FrameServerOptions{Tenants: d.tenants})
	d.serveErr = make(chan error, 1)
	go func() { d.serveErr <- d.srv.Serve(d.ln) }()
	for i := 0; i < d.cfg.tenants; i++ {
		fc, err := cloud.DialFramed(ln.Addr().String())
		if err != nil {
			return err
		}
		d.conns = append(d.conns, fc)
		if err := fc.Hello(tenantName(i)); err != nil {
			return err
		}
		var c cloud.Service = fc
		if d.cfg.tr != nil {
			c = newShim(fc, d.cfg.tr, layerFrame, slotFrame, slotCell, -1, i)
		}
		d.clients = append(d.clients, c)
	}
	return nil
}

// view returns tenant i's namespace inside the server process, bypassing
// the wire (used to preload data).
func (d *frontDoor) view(i int) (cloud.Service, error) { return d.tenants.View(tenantName(i)) }

// shutdown stops the server and the clients, then closes the stores — or,
// with crash, abandons them as a killed process would.
func (d *frontDoor) shutdown(crash bool) error {
	for _, c := range d.conns {
		c.Close()
	}
	var err error
	if d.srv != nil {
		d.srv.Close()
		if e := <-d.serveErr; e != nil {
			err = e
		}
	}
	if d.repl != nil {
		d.repl.Close()
	}
	for _, st := range d.stores {
		if crash {
			st.Crash()
		} else if e := st.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// checkpoint flushes every store's memtables into runs and resets its
// commit journal, so a measured phase starts at the same point of the
// checkpoint cycle on every run.
func (d *frontDoor) checkpoint() error {
	for i, st := range d.stores {
		if err := st.Flush(); err != nil {
			return fmt.Errorf("perfbench: checkpoint store %d: %w", i, err)
		}
	}
	return nil
}

// bytesOnDisk sums the blocks allocated to every file of the stores, the
// commit journal's only with journal.
func (d *frontDoor) bytesOnDisk(journal bool) (int64, error) {
	var total int64
	for i := range d.stores {
		err := filepath.WalkDir(d.cfg.storeDir(i), func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || (!journal && e.Name() == journalFile) {
				return err
			}
			fi, err := e.Info()
			if err != nil {
				return err
			}
			if st, ok := fi.Sys().(*syscall.Stat_t); ok {
				total += st.Blocks * 512
			} else {
				total += fi.Size()
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// engineTotals sums the storage counters of every store.
type engineTotals struct {
	flushes, compactions, gets, runReads, cacheHits, cacheMisses int64
}

func (d *frontDoor) engine() engineTotals {
	var t engineTotals
	for _, st := range d.stores {
		e := st.EngineStats()
		h, m, _ := st.CacheStats()
		t.flushes += e.Flushes
		t.compactions += e.Compactions
		t.gets += e.Gets
		t.runReads += e.RunReads
		t.cacheHits += h
		t.cacheMisses += m
	}
	return t
}

func (a engineTotals) minus(b engineTotals) engineTotals {
	return engineTotals{a.flushes - b.flushes, a.compactions - b.compactions, a.gets - b.gets,
		a.runReads - b.runReads, a.cacheHits - b.cacheHits, a.cacheMisses - b.cacheMisses}
}

// recoverStores reopens the stores of a crashed stack and returns them with
// the wall time the reopen took.
func recoverStores(cfg doorConfig) ([]*cloud.Durable, time.Duration, error) {
	start := time.Now()
	var stores []*cloud.Durable
	for i := 0; i < cfg.members; i++ {
		st, err := cloud.OpenDurable(cfg.storeDir(i), cloud.DefaultDurableOptions())
		if err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, 0, fmt.Errorf("perfbench: reopen store %d: %w", i, err)
		}
		stores = append(stores, st)
	}
	return stores, time.Since(start), nil
}

// readerOver returns a service reading the recovered stores the way the
// front door would: the store itself, or a quorum read over the members.
func readerOver(cfg doorConfig, stores []*cloud.Durable) (cloud.Service, func(), error) {
	if len(stores) == 1 {
		return stores[0], func() {}, nil
	}
	members := make([]cloud.Service, len(stores))
	for i, st := range stores {
		members[i] = st
	}
	r, err := cloud.NewReplicated(members, cloud.ReplicatedOptions{
		WriteQuorum: cfg.quorum, ReadQuorum: cfg.quorum})
	if err != nil {
		return nil, nil, err
	}
	return r, func() { r.Close() }, nil
}

// countingListener counts accepted connections and the bytes that cross
// them in both directions.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
	bytes    atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted.Add(1)
	return &countingConn{Conn: c, n: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
