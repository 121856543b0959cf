package main

// The four workloads and the steps every run shares: set-up (timed, and
// repeated where it is cheap), a measured phase, storage and runtime
// counters, then a crash, a timed reopen and a check that every
// acknowledged write survived it.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"trustedcells/internal/cloud"
	"trustedcells/internal/sim"
)

const (
	// sloP99 is the fleet-write capacity SLO on p99 latency from due time;
	// sloErrPct the failed-or-shed share it tolerates.
	sloP99    = 100 * time.Millisecond
	sloErrPct = 1.0
	// sloLate is the median lateness of a ladder step beyond which the
	// generator's backlog counts as growing.
	sloLate = 10 * time.Millisecond
	// refRate is the fixed fleet-write rate, in requests per second, at
	// which its latency metrics are taken (16 documents per request).
	refRate = 600.0
	// sliceDur is the length of one traced or untraced slice of a traced
	// run; the slices alternate so both see the same store.
	sliceDur = time.Second
)

type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"fleet-write", "100k zipf(1.2) cells, 90% PutBlobs(16x256B) / 10% GetBlobs(16), open loop over 2 tenant connections: reference-rate latency and SLO capacity", runFleetWrite},
	{"cold-read", "300k sealed docs (~130 MB, >6x the 16 MiB block cache), 95% uniform GetBlobs(16) / 5% PutBlobs, closed loop on 2 connections: the storage read path", runColdRead},
	{"cell-owner", "one core.Cell with rules and a usage policy: IngestBatch(32x1KiB), owner/third-party ReadBatch(32), denied ReadBatch(8), keyword search; 5 cells x 800 cycles", runCellOwner},
	{"replicated-slow-member", "cloud.Replicated over 3 durable members, W=R=2, member 2 behind a constant 2 ms; 80% PutBlobs(16) / 20% GetBlobs, closed loop: fan-out, stripe locks, quorum wait", runReplicated},
}

// env is one invocation of the benchmark.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // working directory of this run
	outDir  string // where the trace is written
	clients int    // load goroutines = client connections
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run reports.
type outcome struct {
	metrics    map[string]metric
	attempted  int64
	failed     int64
	violations int
	messages   []string
	report     []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// absorb adds a phase's counts and violations.
func (o *outcome) absorb(st *runStats) {
	o.attempted += st.attempted.Load()
	o.failed += st.failed.Load()
	n, msgs := st.Violations()
	o.violations += n
	o.messages = append(o.messages, msgs...)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ---------------------------------------------------------------------------
// Shared run skeleton
// ---------------------------------------------------------------------------

// system is a set-up front door with the loader that puts load on it.
type system struct {
	door  *frontDoor
	fleet *fleetLoader
	cell  *cellLoader
}

// userBytes is the plaintext size of every acknowledged document so far.
func (s *system) userBytes() int64 {
	if s.fleet != nil {
		return s.fleet.userBytes.Load()
	}
	return s.cell.userBytes()
}

// setUp builds the system reps times, timing each, and keeps the last; it
// returns the median set-up time in seconds.
func setUp(e *env, cfg doorConfig, reps int, build func(d *frontDoor) (*system, error)) (*system, float64, error) {
	var times []float64
	var sys *system
	for r := 0; r < reps; r++ {
		c := cfg
		c.dir = filepath.Join(e.dir, fmt.Sprintf("setup%d", r))
		start := time.Now()
		door, err := openDoor(c)
		if err != nil {
			return nil, 0, err
		}
		s, err := build(door)
		if err != nil {
			door.shutdown(false)
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if r < reps-1 {
			if err := door.shutdown(false); err != nil {
				return nil, 0, err
			}
			if err := os.RemoveAll(c.dir); err != nil {
				return nil, 0, err
			}
			continue
		}
		sys = s
	}
	return sys, median(times), nil
}

// probe samples runtime counters across a measured phase.
type probe struct {
	allocs    uint64
	gcCPU     float64
	totalCPU  float64
	ioWrites  int64
	userBytes int64
	sys       *system
	engine    engineTotals
	netBytes  int64
	steal     int64
	ticks     int64
	heapPeak  uint64 // written by the sampler until wg.Wait returns
	stop      chan struct{}
	wg        sync.WaitGroup
}

var probeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds", liveHeap}

// liveHeap is the heap the last garbage collection found reachable; its
// peak over a phase measures what the workload keeps, independent of how
// much garbage the collector let accumulate between cycles.
const liveHeap = "/gc/heap/live:bytes"

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(probeMetrics))
	for i, n := range probeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindFloat64:
		return v.Float64()
	case metrics.KindUint64:
		return float64(v.Uint64())
	}
	return 0
}

// startProbe snapshots the counters and starts the heap sampler.
func startProbe(sys *system) *probe {
	runtime.GC()
	s := readRuntime()
	p := &probe{allocs: s[0].Value.Uint64(), gcCPU: sampleFloat(s[1].Value),
		totalCPU: sampleFloat(s[2].Value), ioWrites: procWriteBytes(), userBytes: sys.userBytes(),
		engine: sys.door.engine(), netBytes: sys.door.ln.bytes.Load(), stop: make(chan struct{}), sys: sys}
	p.heapPeak = s[3].Value.Uint64()
	p.steal, p.ticks = procStat()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		sample := []metrics.Sample{{Name: liveHeap}}
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > p.heapPeak {
					p.heapPeak = v
				}
			}
		}
	}()
	return p
}

// probeResult is the change of every counter over a phase.
type probeResult struct {
	allocs     float64
	gcPct      float64
	ioWrites   int64
	userBytes  int64
	engine     engineTotals
	netBytes   int64
	heapPeakMB float64
	stealPct   float64 // share of the machine's CPU time the host stole
}

func (p *probe) finish() probeResult {
	close(p.stop)
	p.wg.Wait()
	s := readRuntime()
	r := probeResult{
		allocs:    float64(s[0].Value.Uint64() - p.allocs),
		ioWrites:  procWriteBytes() - p.ioWrites,
		userBytes: p.sys.userBytes() - p.userBytes,
		engine:    p.sys.door.engine().minus(p.engine),
		netBytes:  p.sys.door.ln.bytes.Load() - p.netBytes,
	}
	if cpu := sampleFloat(s[2].Value) - p.totalCPU; cpu > 0 {
		r.gcPct = 100 * (sampleFloat(s[1].Value) - p.gcCPU) / cpu
	}
	r.heapPeakMB = float64(p.heapPeak) / (1 << 20)
	if steal, ticks := procStat(); ticks > p.ticks {
		r.stealPct = 100 * float64(steal-p.steal) / float64(ticks-p.ticks)
	}
	return r
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat reads the machine's stolen and total CPU ticks from the first
// line of /proc/stat, or zeros where that is unavailable.
func procStat() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// procWriteBytes reads the bytes this process caused to be written to
// storage (write_bytes of /proc/self/io), or 0 where that is unavailable.
func procWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var v int64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &v); err == nil {
			return v
		}
	}
	return 0
}

// Recovery scenario, the same for every workload: checkpoint the stores,
// write a fixed tail of acknowledged documents (recoveryTail batches of 16
// × 256 B per writer, under a tenant of its own) so it sits in the commit
// journal, then crash and time the reopen. This runs recoveryCycles times
// and reports the median; afterwards every acknowledged document of the run
// and of every tail is read back from the recovered stores and verified.
const (
	recoveryTail   = 256
	recoveryCycles = 3
	tailTenant     = 9
)

func finishRun(e *env, sys *system, st *runStats, o *outcome) error {
	cfg := sys.door.cfg
	if err := sys.door.checkpoint(); err != nil {
		return err
	}
	views := make([]cloud.Service, e.clients)
	prefixes := make([]string, e.clients)
	for i := range views {
		prefixes[i] = tenantPrefix(tailTenant)
	}
	tail, err := newFleetLoader(fleetMix{cells: 10_000, batch: 16, payload: 256}, e.seed+1, views, prefixes, nil)
	if err != nil {
		return err
	}
	// writeTail writes one tail through a tenant view of backend.
	writeTail := func(backend cloud.Service) error {
		reg := cloud.NewTenants(backend)
		if err := reg.Define(tenantName(tailTenant), cloud.TenantQuota{}); err != nil {
			return err
		}
		view, err := reg.View(tenantName(tailTenant))
		if err != nil {
			return err
		}
		for i := range views {
			views[i] = view
		}
		tail.writeBurst(recoveryTail, st)
		return nil
	}
	if err := writeTail(sys.door.adm); err != nil {
		return err
	}
	if err := sys.door.shutdown(true); err != nil {
		return err
	}
	var took []float64
	var stores []*cloud.Durable
	var replayed int
	for c := 0; c < recoveryCycles; c++ {
		var dt time.Duration
		if stores, dt, err = recoverStores(cfg); err != nil {
			return err
		}
		took = append(took, ms(dt))
		replayed = 0
		for _, s := range stores {
			replayed += s.RecoveryStats().JournalRecords
		}
		if c == recoveryCycles-1 {
			break
		}
		reader, done, err := readerOver(cfg, stores)
		if err == nil {
			err = writeTail(reader)
			done()
		}
		for _, s := range stores {
			s.Crash()
		}
		if err != nil {
			return err
		}
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	reader, done, err := readerOver(cfg, stores)
	if err != nil {
		return err
	}
	defer done()
	checked := tail.verifyAll(reader, st)
	if sys.fleet != nil {
		checked += sys.fleet.verifyAll(reader, st)
	} else {
		n, err := sys.cell.verifyCloud(reader, st)
		if err != nil {
			return err
		}
		checked += n
	}
	if e.trace {
		o.set("cloud.durable.recovery_ms", median(took), "ms")
	}
	o.note("recovery: crash + reopen of %d store(s), %d journal records replayed: %.1f ms (median of %v ms); %d acknowledged documents verified",
		len(stores), replayed, median(took), took, checked)
	return nil
}

// ---------------------------------------------------------------------------
// Measured phases
// ---------------------------------------------------------------------------

// latencyMetrics reports the read median of a phase and prints the write
// median and both tails.
func latencyMetrics(o *outcome, st *runStats) {
	o.set("read_p50_ms", st.p50Ms(false), "ms")
	o.note("latency: write p50 %.4f ms, p99 %.3f ms (%d samples); read p50 %.4f ms, p99 %.3f ms (%d samples)",
		st.p50Ms(true), ms(st.write.Quantile(0.99)), st.write.Count(),
		st.p50Ms(false), ms(st.read.Quantile(0.99)), st.read.Count())
	o.note("generator: late p99 %.3f ms, most requests outstanding %d", ms(st.late.Quantile(0.99)), st.backlogMax.Load())
}

// endToEnd fills the metrics every workload reports from an untraced run.
// capacity, when above 0, is fleet-write's SLO capacity in documents per
// second.
func endToEnd(o *outcome, sys *system, st *runStats, pr probeResult, setupS, capacity float64) error {
	o.set("setup_s", setupS, "s")
	o.set("cpu_us_per_doc", st.cpuUsPerDoc(), "us")
	if capacity > 0 {
		o.set("capacity_docs_s", capacity, "docs/s")
	}
	latencyMetrics(o, st)
	o.note("memory: live heap peaked at %.1f MiB", pr.heapPeakMB)
	o.note("throughput: %d documents in %.3f s, %.0f docs/s, %.3f us of process CPU per document; the host stole %.2f%% of the machine's CPU time",
		st.docs.Load(), st.elapsed.Seconds(), st.docsPerSec(), st.cpuUsPerDoc(), pr.stealPct)
	// Checkpointed, every acknowledged document sits in runs; the commit
	// journal's pre-zeroed extent is a fixed cost, not amplification.
	if err := sys.door.checkpoint(); err != nil {
		return err
	}
	disk, err := sys.door.bytesOnDisk(false)
	if err != nil {
		return err
	}
	user := sys.userBytes()
	o.set("space_amp", float64(disk)/float64(user), "ratio")
	o.note("space: %d bytes in runs and metadata for %d acknowledged plaintext bytes", disk, user)
	return nil
}

// tracedPhase alternates untraced and traced slices of load over total,
// after one untraced warm-up slice whose numbers are dropped.
func tracedPhase(tr *Tracer, total time.Duration, load func(d time.Duration, st *runStats)) (off, on *runStats) {
	off, on = &runStats{}, &runStats{}
	load(sliceDur, &runStats{})
	for k := 0; time.Duration(k+1)*sliceDur < total; k++ {
		tr.SetOn(k%2 == 1)
		if k%2 == 1 {
			load(sliceDur, on)
		} else {
			load(sliceDur, off)
		}
	}
	tr.SetOn(false)
	return off, on
}

// layerMetrics fills the per-layer metrics of a traced run.
func layerMetrics(o *outcome, sys *system, tr *Tracer, off, on *runStats, pr probeResult, w int, fixedRate bool) {
	spans := tr.Spans()
	b := Analyze(spans, w)
	o.report = append(o.report, "per-layer self time per request (traced slices):")
	o.report = append(o.report, b.Table()...)
	docs := float64(on.docs.Load() + off.docs.Load())
	perDoc := func(v float64) float64 {
		if docs == 0 {
			return 0
		}
		return v / docs
	}
	// The cell's own counters exist on cell-owner only, which overwrites
	// these.
	for _, n := range []string{"core.cache_page_writes_per_doc", "core.cache_flushes",
		"core.cache_compactions", "datamodel.scanned_per_match"} {
		o.set(n, 0, "count")
	}
	o.set("core.search_p50_ms", 0, "ms")
	o.set("gen.throughput_docs_s", off.docsPerSec(), "docs/s")
	o.set("gen.late_p99_ms", ms(off.late.Quantile(0.99)), "ms")
	o.set("gen.write_p50_ms", off.p50Ms(true), "ms")
	o.set("gen.write_p99_ms", ms(off.write.Quantile(0.99)), "ms")
	o.set("gen.read_p99_ms", ms(off.read.Quantile(0.99)), "ms")
	o.set("gen.inflight_max", float64(max(off.backlogMax.Load(), on.backlogMax.Load())), "count")
	o.set("cell.ingest_self_ms", b.MeanSelfMs(layerCell, opPut), "ms")
	o.set("cell.read_self_ms", b.MeanSelfMs(layerCell, opGet), "ms")
	o.set("crypto.seal_us_per_doc", b.PerDocUs(layerSeal, opPut), "us")
	o.set("crypto.open_us_per_doc", b.PerDocUs(layerOpen, opGet), "us")
	o.set("cloud.frame.put_self_ms", b.MeanSelfMs(layerFrame, opPut), "ms")
	o.set("cloud.frame.get_self_ms", b.MeanSelfMs(layerFrame, opGet), "ms")
	o.set("cloud.frame.bytes_per_doc", perDoc(float64(pr.netBytes)), "bytes")
	adm := append(append([]int64(nil), b.Self[layerKey{layerAdmission, opPut}]...), b.Self[layerKey{layerAdmission, opGet}]...)
	o.set("cloud.admission.self_us", meanMs(adm)*1000, "us")
	o.set("cloud.admission.shed", float64(sys.door.adm.AdmissionStats().Shed), "count")
	durPut, durGet := b.Dur[layerKey{layerDurable, opPut}], b.Dur[layerKey{layerDurable, opGet}]
	if sys.door.repl != nil {
		// Members other than the slow one are the durable stores themselves.
		durPut, durGet = nil, nil
		for _, s := range spans {
			if s.Layer == layerMember && s.Member != sys.door.cfg.slowMember {
				if s.Name == opPut {
					durPut = append(durPut, s.End-s.Start)
				} else {
					durGet = append(durGet, s.End-s.Start)
				}
			}
		}
	}
	o.set("cloud.durable.put_ms", meanMs(durPut), "ms")
	var putHist sim.LatencyRecorder
	for _, d := range durPut {
		putHist.Record(time.Duration(d))
	}
	o.set("cloud.durable.put_p999_ms", ms(putHist.Quantile(0.999)), "ms")
	o.set("cloud.durable.get_ms", meanMs(durGet), "ms")
	e := pr.engine
	o.set("storage.flushes", float64(e.flushes), "count")
	o.set("storage.compactions", float64(e.compactions), "count")
	hitPct := 0.0
	if e.cacheHits+e.cacheMisses > 0 {
		hitPct = 100 * float64(e.cacheHits) / float64(e.cacheHits+e.cacheMisses)
	}
	o.set("storage.cache_hit_pct", hitPct, "%")
	runReads := 0.0
	if e.gets > 0 {
		runReads = float64(e.runReads) / float64(e.gets)
	}
	o.set("storage.run_reads_per_get", runReads, "count")
	disk, _ := sys.door.bytesOnDisk(true)
	o.set("storage.bytes_on_disk", float64(disk), "bytes")
	wpu := 0.0
	if pr.userBytes > 0 {
		wpu = float64(pr.ioWrites) / float64(pr.userBytes)
	}
	o.set("storage.write_bytes_per_user_byte", wpu, "ratio")
	o.note("storage: %d bytes written to the device for %d acknowledged plaintext bytes", pr.ioWrites, pr.userBytes)
	for i := 0; i < maxMembers; i++ {
		o.set(fmt.Sprintf("cloud.replicated.member_put_ms.%d", i), meanMs(b.MemberPut[i]), "ms")
	}
	o.set("cloud.replicated.self_ms", meanMs(b.WthAckSelf), "ms")
	var hints, repairs int64
	if sys.door.repl != nil {
		rs := sys.door.repl.ReplicationStats()
		hints, repairs = rs.HintsQueued, rs.ReadRepairs
	}
	o.set("cloud.replicated.hints_queued", float64(hints), "count")
	o.set("cloud.replicated.read_repairs", float64(repairs), "count")
	o.set("runtime.heap_peak_mb", pr.heapPeakMB, "MiB")
	o.set("runtime.alloc_bytes_per_doc", perDoc(pr.allocs), "bytes")
	o.set("runtime.gc_cpu_pct", pr.gcPct, "%")
	// Tracing cost: the drop in throughput of traced against untraced
	// slices. At a fixed offered rate (open loop) throughput cannot show it,
	// so there the rise in median latency stands in.
	offP50, onP50 := off.all.Quantile(0.5), on.all.Quantile(0.5)
	overhead := 0.0
	if fixedRate {
		overhead = 100 * float64(onP50-offP50) / float64(offP50)
	} else if t := off.docsPerSec(); t > 0 {
		overhead = 100 * (t - on.docsPerSec()) / t
	}
	o.set("trace.overhead_pct", overhead, "%")
	sumPct := 0.0
	if b.MeanE2E > 0 {
		sumPct = 100 * b.SelfSum() / b.MeanE2E
	}
	// Every span's time is charged once, so the sum equals the end-to-end
	// mean unless spans were lost or mis-parented.
	if b.Requests == 0 || math.Abs(sumPct-100) > 10 {
		o.violations++
		o.messages = append(o.messages, fmt.Sprintf("self times sum to %.1f%% of mean end-to-end latency over %d traced requests", sumPct, b.Requests))
	}
	o.note("trace: untraced %.0f docs/s p50 %.4f ms, traced %.0f docs/s p50 %.4f ms, overhead %.2f%%; self times sum to %.2f%% of the mean latency",
		off.docsPerSec(), ms(offP50), on.docsPerSec(), ms(onP50), overhead, sumPct)
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

func fleetDoor(e *env) doorConfig {
	return doorConfig{members: 1, slowMember: -1, tenants: e.clients}
}

// runFleet is the skeleton of the three fleet workloads. measure runs the
// untraced phase and returns fleet-write's capacity (0 elsewhere);
// tracedLoad runs one slice of the traced phase.
func runFleet(e *env, cfg doorConfig, mix fleetMix, preloadPerCell, reps int, openLoopRun bool,
	measure func(sys *system, st *runStats, o *outcome) (float64, error),
	tracedLoad func(sys *system, d time.Duration, st *runStats)) (*outcome, error) {
	var tr *Tracer
	if e.trace {
		tr = NewTracer(e.clients)
		reps = 1
	}
	cfg.tr = tr
	sys, setupS, err := setUp(e, cfg, reps, func(door *frontDoor) (*system, error) {
		prefixes := make([]string, e.clients)
		for i := range prefixes {
			prefixes[i] = tenantPrefix(i)
		}
		drv, err := newFleetLoader(mix, e.seed, door.clients, prefixes, tr)
		if err != nil {
			return nil, err
		}
		s := &system{door: door, fleet: drv}
		if preloadPerCell > 0 {
			views := make([]cloud.Service, e.clients)
			for i := range views {
				if views[i], err = door.view(i); err != nil {
					return nil, err
				}
			}
			if err := drv.preload(views, preloadPerCell); err != nil {
				return nil, err
			}
			for _, st := range door.stores {
				if err := st.Flush(); err != nil {
					return nil, err
				}
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.note("set-up: %.3f s (median of %d)", setupS, reps)
	pr := startProbe(sys)
	if !e.trace {
		st := &runStats{}
		capacity, err := measure(sys, st, o)
		if err != nil {
			return nil, err
		}
		if err := endToEnd(o, sys, st, pr.finish(), setupS, capacity); err != nil {
			return nil, err
		}
		o.absorb(st)
	} else {
		if err := sys.door.checkpoint(); err != nil {
			return nil, err
		}
		off, on := tracedPhase(tr, e.seconds, func(d time.Duration, st *runStats) { tracedLoad(sys, d, st) })
		layerMetrics(o, sys, tr, off, on, pr.finish(), cfg.quorum, openLoopRun)
		o.absorb(off)
		o.absorb(on)
	}
	return o, closeRun(e, sys, tr, o)
}

// closeRun checks the connection count, crashes and recovers the stores,
// verifies every acknowledged write and writes the trace.
func closeRun(e *env, sys *system, tr *Tracer, o *outcome) error {
	if err := assertConnections(sys.door); err != nil {
		return err
	}
	st := &runStats{}
	if err := finishRun(e, sys, st, o); err != nil {
		return err
	}
	o.absorb(st)
	if tr != nil {
		return writeTrace(e, tr)
	}
	return nil
}

// refSeconds is the length of fleet-write's fixed-rate phase; the capacity
// ladder gets the rest of the run. The phase starts on a fresh store, and
// at refRate the commit journal first fills about 11 s in, so the phase
// holds the first round of memtable flushes but no checkpoint.
const refSeconds = 8

func runFleetWrite(e *env) (*outcome, error) {
	mix := fleetMix{cells: 100_000, batch: 16, payload: 256, readFrac: 0.10, zipfS: 1.2}
	cfg := fleetDoor(e)
	return runFleet(e, cfg, mix, 0, 3, true,
		func(sys *system, st *runStats, o *outcome) (float64, error) {
			ref := min(refSeconds*time.Second, e.seconds/2)
			openLoop(e.clients, refRate, ref, st, sys.fleet.request)
			o.note("reference rate %.0f req/s (%.0f docs/s) for %v", refRate, refRate*16, ref)
			steps := 0
			lad := ladder{workers: e.clients, start: refRate * 1.5, budget: e.seconds - ref, step: ladderStep,
				target: func() (requestFn, func() error, error) {
					c := cfg
					c.dir = filepath.Join(e.dir, fmt.Sprintf("step%d", steps))
					steps++
					return freshFleet(e, c, mix, int64(steps))
				}}
			best, rungs, err := lad.search()
			for _, s := range rungs {
				o.note("  ladder %7.0f req/s: %8.0f docs/s, p99 %8.3f ms, err %.2f%%, late p50 %.3f ms, backlog max %d -> %v",
					s.rate, s.stats.docsPerSec(), ms(s.p99), s.errPct, ms(s.late), s.stats.backlogMax.Load(), s.pass)
				o.absorb(s.stats)
			}
			if err != nil {
				return 0, err
			}
			if best == nil {
				o.note("capacity: no ladder step met the SLO")
				return 0, nil
			}
			o.note("capacity: %.0f docs/s at %.0f req/s offered (SLO p99 <= %v, error <= %.0f%%, no growing backlog)",
				best.stats.docsPerSec(), best.rate, sloP99, sloErrPct)
			return best.stats.docsPerSec(), nil
		},
		func(sys *system, d time.Duration, st *runStats) {
			openLoop(e.clients, refRate, d, st, sys.fleet.request)
		})
}

// freshFleet starts a front door on an empty store in cfg.dir with a fleet
// of its own, for one ladder step; the release shuts it down and deletes
// the store.
func freshFleet(e *env, cfg doorConfig, mix fleetMix, step int64) (requestFn, func() error, error) {
	door, err := openDoor(cfg)
	if err != nil {
		return nil, nil, err
	}
	prefixes := make([]string, e.clients)
	for i := range prefixes {
		prefixes[i] = tenantPrefix(i)
	}
	drv, err := newFleetLoader(mix, e.seed*1000+step, door.clients, prefixes, nil)
	if err != nil {
		door.shutdown(false)
		return nil, nil, err
	}
	return drv.request, func() error {
		err := assertConnections(door)
		if e := door.shutdown(false); err == nil {
			err = e
		}
		if e := os.RemoveAll(cfg.dir); err == nil {
			err = e
		}
		return err
	}, nil
}

// closedRun warms the system up, checkpoints it and runs the closed loop
// for the rest of the run.
func closedRun(e *env, sys *system, st *runStats) (float64, error) {
	closedLoop(e.clients, warmup(e), &runStats{}, sys.fleet.request)
	if err := sys.door.checkpoint(); err != nil {
		return 0, err
	}
	closedLoop(e.clients, e.seconds-warmup(e), st, sys.fleet.request)
	return 0, nil
}

func runColdRead(e *env) (*outcome, error) {
	mix := fleetMix{cells: 300_000 / 16, batch: 16, payload: 256, readFrac: 0.95, uniformRead: true}
	// Three set-ups, not setupReps: each one preloads 300k documents.
	return runFleet(e, fleetDoor(e), mix, 16, 3, false,
		func(sys *system, st *runStats, o *outcome) (float64, error) { return closedRun(e, sys, st) },
		func(sys *system, d time.Duration, st *runStats) { closedLoop(e.clients, d, st, sys.fleet.request) })
}

func runReplicated(e *env) (*outcome, error) {
	cfg := doorConfig{members: 3, slowMember: 2, slowLatency: 2 * time.Millisecond, quorum: 2, tenants: e.clients}
	mix := fleetMix{cells: 100_000, batch: 16, payload: 256, readFrac: 0.20, zipfS: 1.2}
	return runFleet(e, cfg, mix, 0, setupReps, false,
		func(sys *system, st *runStats, o *outcome) (float64, error) { return closedRun(e, sys, st) },
		func(sys *system, d time.Duration, st *runStats) { closedLoop(e.clients, d, st, sys.fleet.request) })
}

func warmup(e *env) time.Duration { return e.seconds / 10 }

// cellCycles is the fixed op count of cell-owner, whatever --seconds says:
// the cell's cost grows with its vault, so a fixed time would measure a
// different vault size on a faster build.
func cellCycles(e *env) int { return 800 }

// cellReps is how many independent cells an untraced cell-owner run
// drives, each for cellCycles cycles; every end-to-end metric but setup_s
// is the median over them. setup_s is the median of setupReps set-ups of
// the first cell.
const cellReps = 5

// setupReps is how many times a run builds its system to time the set-up.
const setupReps = 5

func runCellOwner(e *env) (*outcome, error) {
	if e.trace {
		return runCellOwnerTraced(e)
	}
	o := &outcome{}
	per := map[string][]float64{}
	units := map[string]string{}
	var sys *system
	var setupS float64
	for r := 0; r < cellReps; r++ {
		if sys != nil {
			if err := sys.door.shutdown(false); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(sys.door.cfg.dir); err != nil {
				return nil, err
			}
		}
		// Each cell's set-ups and stores live in a directory of their own.
		e := *e
		e.dir = filepath.Join(e.dir, fmt.Sprintf("cell%d", r))
		reps := 1
		if r == 0 {
			reps = setupReps
		}
		var err error
		var took float64
		cfg := doorConfig{members: 1, slowMember: -1, tenants: 1}
		sys, took, err = setUp(&e, cfg, reps, func(door *frontDoor) (*system, error) {
			c, err := newCellLoader(e.seed*cellReps+int64(r), door.clients[0], nil)
			if err != nil {
				return nil, err
			}
			return &system{door: door, cell: c}, nil
		})
		if err != nil {
			return nil, err
		}
		if r == 0 {
			setupS = took
		}
		door, c := sys.door, sys.cell
		if err := door.checkpoint(); err != nil {
			return nil, err
		}
		pr := startProbe(sys)
		st := &runStats{}
		begin, cpu := time.Now(), processCPU()
		for k := 0; k < cellCycles(&e); k++ {
			c.cycle(st)
		}
		st.elapsed, st.cpu = time.Since(begin), processCPU()-cpu
		one := &outcome{}
		if err := endToEnd(one, sys, st, pr.finish(), setupS, 0); err != nil {
			return nil, err
		}
		for n, m := range one.metrics {
			per[n] = append(per[n], m.Value)
			units[n] = m.Unit
		}
		o.note("cell %d: set-up %.3f s (median of %d), %d cycles, %.0f docs/s, search p50 %.3f ms over %d searches",
			r, took, reps, cellCycles(&e), st.docsPerSec(), ms(st.search.Quantile(0.5)), st.search.Count())
		for _, line := range one.report {
			o.note("cell %d: %s", r, line)
		}
		o.absorb(st)
	}
	for n, v := range per {
		o.set(n, median(v), units[n])
	}
	return o, closeRun(e, sys, nil, o)
}

// runCellOwnerTraced drives one cell, alternating untraced and traced
// cycles.
func runCellOwnerTraced(e *env) (*outcome, error) {
	tr := NewTracer(1)
	cfg := doorConfig{members: 1, slowMember: -1, tenants: 1, tr: tr}
	sys, setupS, err := setUp(e, cfg, 1, func(door *frontDoor) (*system, error) {
		c, err := newCellLoader(e.seed*cellReps, door.clients[0], tr)
		if err != nil {
			return nil, err
		}
		return &system{door: door, cell: c}, nil
	})
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	o.note("set-up: %.3f s; %d cycles", setupS, cellCycles(e))
	c := sys.cell
	if err := sys.door.checkpoint(); err != nil {
		return nil, err
	}
	_, _, pageWrites0, _, _ := c.cell.TEE().Meter().Snapshot()
	pr := startProbe(sys)
	cycles := cellCycles(e)
	off, on := &runStats{}, &runStats{}
	for k := 0; k < cycles; k++ {
		tr.SetOn(k%2 == 1)
		part := off
		if k%2 == 1 {
			part = on
		}
		start := time.Now()
		c.cycle(part)
		part.elapsed += time.Since(start)
	}
	tr.SetOn(false)
	layerMetrics(o, sys, tr, off, on, pr.finish(), 0, false)
	_, _, pageWrites, _, _ := c.cell.TEE().Meter().Snapshot()
	o.set("core.cache_page_writes_per_doc", float64(pageWrites-pageWrites0)/float64(len(c.docs)), "count")
	cs := c.cell.CacheStats()
	o.set("core.cache_flushes", float64(cs.Flushes), "count")
	o.set("core.cache_compactions", float64(cs.Compactions), "count")
	searchP50 := off.search.Quantile(0.5)
	o.set("core.search_p50_ms", ms(searchP50), "ms")
	scanned := 0.0
	if c.matched > 0 {
		scanned = float64(c.scanned) / float64(c.matched)
	}
	o.set("datamodel.scanned_per_match", scanned, "count")
	o.absorb(off)
	o.absorb(on)
	return o, closeRun(e, sys, tr, o)
}

// assertConnections checks the generator discipline: no more client
// connections than processors.
func assertConnections(door *frontDoor) error {
	if n := door.ln.accepted.Load(); n > int64(runtime.NumCPU()) {
		return fmt.Errorf("perfbench: %d connections for %d processors", n, runtime.NumCPU())
	}
	return nil
}

func writeTrace(e *env, tr *Tracer) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	return tr.WriteFile(filepath.Join(e.outDir, "spans.jsonl"))
}
