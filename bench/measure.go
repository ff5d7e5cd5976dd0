package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/xmltree"
)

// minEpochs is how many worlds an untraced run measures at the least,
// whatever --seconds says.
const minEpochs = 2

// env is what a run needs from outside the process: the repository and, for
// tcp_chain, the daemon built from it.
type env struct {
	root   string
	spec   *spec
	mqpd   string
	buildS float64
	procs  int // GOMAXPROCS as the process started
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(root, buildDir), 0o755); err != nil {
		return nil, err
	}
	return &env{root: root, spec: sp, procs: runtime.GOMAXPROCS(0)}, nil
}

// daemonBin builds cmd/mqpd on first use.
func (e *env) daemonBin() (string, error) {
	if e.mqpd == "" {
		bin, took, err := buildMqpd(e.root)
		if err != nil {
			return "", err
		}
		e.mqpd, e.buildS = bin, took.Seconds()
	}
	return e.mqpd, nil
}

func (e *env) build(name string, seed int64, sz sizes) (world, error) {
	switch name {
	case "point_hot":
		return buildPointHot(seed, sz)
	case "area_fanout":
		return buildGarageSale(name, seed, sz, false)
	case "churn_mixed":
		return buildGarageSale(name, seed, sz, true)
	case "bulk_join":
		return buildBulkJoin(seed, sz)
	case "tcp_chain":
		bin, err := e.daemonBin()
		if err != nil {
			return nil, err
		}
		return buildTCPChain(e.root, bin, seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// setUp builds the workload from the state a new process starts in (heap
// collected, sync.Pools and the identical-frame cache empty) and warms it up
// with the workload's fixed number of passes over its queries. It returns
// the world and how long that took. For tcp_chain set-up is spawning the
// daemons and waiting for them, not compiling them.
func (e *env) setUp(name string, seed int64, sz sizes) (world, float64, error) {
	// A simnet workload runs every hop on the client goroutine; one P keeps
	// the collector on that same processor, so that its cost shows in the
	// rates instead of depending on what else the second core is doing, and
	// makes what the heap holds at a given query repeat from run to run.
	// tcp_chain's client needs its connection goroutines beside it.
	if name == "tcp_chain" {
		runtime.GOMAXPROCS(e.procs)
		if _, err := e.daemonBin(); err != nil {
			return nil, 0, err
		}
	} else {
		runtime.GOMAXPROCS(1)
	}
	fresh()
	start := time.Now()
	w, err := e.build(name, seed, sz)
	if err != nil {
		return nil, 0, err
	}
	if _, err := runUnchecked(w, sz.loads[name].warmPasses); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return w, time.Since(start).Seconds(), nil
}

// run is the outcome of one benchmark run of one workload.
type run struct {
	metrics           metrics
	samples           map[string]int // sample count behind a median, where there is one
	attempted, failed int
}

// runEndToEnd is the untraced run. It measures epochs until dur has passed:
// an epoch sets a world up, drives it through the workload's fixed number of
// batches, reads its memory and tears it down. Every world is therefore
// measured over the same number of queries however long the run is, and a
// run yields one set-up time and one memory reading per epoch.
func (e *env) runEndToEnd(name string, seed int64, dur time.Duration, sz sizes) (*run, error) {
	ld := sz.loads[name]
	p := &phase{}
	var setups, mems []float64
	var wire int64
	epoch := func() (err error) {
		w, took, err := e.setUp(name, seed, sz)
		if err != nil {
			return err
		}
		defer closeWorld(w, &err)
		setups = append(setups, took)
		wire0 := w.wireBytes()
		for b := 0; b < ld.batches; b++ {
			if err := p.batch(w, ld.passes); err != nil {
				return err
			}
		}
		wire += w.wireBytes() - wire0
		mem, err := w.memMB(float64(cap(p.lats)*8) / (1 << 20))
		if err != nil {
			return err
		}
		mems = append(mems, mem)
		return nil
	}
	begin := time.Now()
	for n := 0; n < minEpochs || time.Since(begin) < dur; n++ {
		if err := epoch(); err != nil {
			return nil, err
		}
	}
	r := &run{attempted: p.attempted, failed: p.failed, samples: map[string]int{
		"qps": len(p.rates), "lat_p50_us": len(p.lats), "setup_s": len(setups), "mem_mb": len(mems)}}
	r.metrics = metrics{
		"setup_s":           median(setups),
		"qps":               median(p.rates),
		"lat_p50_us":        median(p.lats),
		"hops_per_query":    ratio(float64(p.hops), float64(p.queriesOK())),
		"wire_kb_per_query": ratio(float64(wire)/1024, float64(p.attempted)),
		"mem_mb":            median(mems),
	}
	return r, nil
}

// runTraced is the traced run, on one world: pairs of batches, the first of
// each pair untraced and the second with spans recorded around every hop,
// then a replay of what the traced batches captured through each layer's
// public functions. Its length is the sizes' tracePairs, not --seconds.
func (e *env) runTraced(name string, seed int64, sz sizes, traceOut string) (_ *run, err error) {
	w, _, err := e.setUp(name, seed, sz)
	if err != nil {
		return nil, err
	}
	defer closeWorld(w, &err)
	ld := sz.loads[name]
	tr := newTracer()
	plain, traced := &phase{}, &phase{}
	// The first batch's worth of queries goes unchecked by the oracle and
	// with no collection forced since the world was built: allocation, CPU
	// and pause figures that are the system's and not the benchmark's, and
	// how fast the heap of a peer that nobody collects for grows.
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	heap0 := heapMB()
	runtime.ReadMemStats(&ms0)
	cpu0 := selfCPU()
	ops, err := runUnchecked(w, ld.passes)
	if err != nil {
		return nil, err
	}
	cpu := selfCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	heapGrowthMB := heapMB() - heap0

	var overhead []float64
	before := w.counters()
	for pair := 0; pair < sz.tracePairs; pair++ {
		// This one world lives for nine batches. Every one of them starts
		// from emptied caches and a collected heap, so that they fit in
		// memory and the two of a pair run under the same conditions.
		fresh()
		if err := plain.batch(w, ld.passes); err != nil {
			return nil, err
		}
		fresh()
		w.trace(tr)
		err := traced.batch(w, ld.passes)
		w.trace(nil)
		if err != nil {
			return nil, err
		}
		overhead = append(overhead, ratio(traced.rates[pair], plain.rates[pair]))
	}
	after := w.counters()

	st := newStageStats(tr)
	m := metrics{}
	for _, d := range e.spec.PerLayer {
		m[d.Name] = 0
	}
	w.layerMetrics(m, before, after, plain.attempted+traced.attempted, plain)
	if err := w.replayStages(e, tr, st, m, seed); err != nil {
		return nil, err
	}

	m["route.partial_ratio"] = ratio(float64(plain.partial+traced.partial), float64(plain.attempted+traced.attempted))
	m["peer.allocs_per_query"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(ops))
	m["peer.alloc_kb_per_query"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024, float64(ops))
	m["peer.heap_growth_kb_per_query"] = max(ratio(heapGrowthMB*1024, float64(ops)), 0)
	m["client.lat_p90_us"] = quantile(plain.lats, 0.90)
	m["client.lat_p99_us"] = quantile(plain.lats, 0.99)
	m["client.cpu_us_per_query"] = ratio(float64(cpu)/1e3, float64(ops))
	m["client.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	m["client.fail_ratio"] = ratio(float64(plain.failed+traced.failed), float64(plain.attempted+traced.attempted))
	m["trace.overhead_ratio"] = median(overhead)
	for role, self := range tr.self {
		m["peer.hop_self_us."+role] = median(self)
	}
	for name, us := range st.us {
		if _, listed := m[name]; listed {
			m[name] = median(us)
		}
	}
	m["xmltree.decode_mb_s"] = ratio(float64(st.decodedBytes), st.sum("xmltree.decode_cold_us"))
	m["algebra.frame_kb"] = ratio(float64(st.frameBytes)/1024, float64(st.frames))
	m["engine.items_per_ms"] = ratio(float64(st.reduceItems)*1e3, st.sum("engine.reduce_us"))

	r := &run{metrics: m, attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
		samples: map[string]int{"client.lat_p90_us": len(plain.lats), "client.lat_p99_us": len(plain.lats),
			"trace.overhead_ratio": len(overhead)}}
	for name, us := range st.us {
		r.samples[name] = len(us)
	}
	for role, self := range tr.self {
		r.samples["peer.hop_self_us."+role] = len(self)
	}
	if traceOut != "" {
		if err := tr.writeJSONL(traceOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// closeWorld tears w down and reports a failure to do so unless an earlier
// error is already on its way out.
func closeWorld(w world, err *error) {
	if cerr := w.close(); *err == nil {
		*err = cerr
	}
}

// runUnchecked runs passes over the query list (with the workload's writes)
// without asking the oracle, and returns the number of operations: the
// warm-up that ends set-up.
func runUnchecked(w world, passes int) (int, error) {
	every := w.writeEvery()
	ops := 0
	for pass := 0; pass < passes; pass++ {
		for qi := range w.queries() {
			if every > 0 && ops%every == 0 {
				if _, err := w.write(); err != nil {
					return ops, err
				}
			}
			ops++
			if _, err := w.do(qi); err != nil {
				return ops, fmt.Errorf("query %d: %w", qi, err)
			}
		}
	}
	return ops, nil
}

// --- counters of the simnet worlds -------------------------------------------

// counters is a snapshot of the counts the program keeps, summed over peers.
type counters struct {
	cacheHits, cacheMisses int64
	msgs, requests, links  int64
	wire                   int64
	scHits, scMisses       uint64
	byRefBytes             int64
	cpu                    time.Duration // daemons' CPU time, tcp_chain only
}

func (w *simWorld) counters() counters {
	var c counters
	for _, p := range w.peers {
		cs := p.CacheStats()
		c.cacheHits, c.cacheMisses = c.cacheHits+cs.Hits, c.cacheMisses+cs.Misses
		c.byRefBytes += p.BlobNetStats().ByRefBytes
	}
	nm := w.net.Metrics()
	c.msgs, c.requests, c.links, c.wire = nm.Messages, nm.Requests, nm.LinksOpened, nm.Bytes
	if sc := w.client.Shortcuts(); sc != nil {
		s := sc.Stats()
		c.scHits, c.scMisses = s.Hits, s.Misses
	}
	return c
}

// layerMetrics fills in what the program's own counters say about the n
// queries between two snapshots.
func (w *simWorld) layerMetrics(m metrics, a, b counters, n int, _ *phase) {
	m["mqp.plancache_hit_ratio"] = ratio(float64(b.cacheHits-a.cacheHits),
		float64(b.cacheHits-a.cacheHits+b.cacheMisses-a.cacheMisses))
	m["route.shortcut_hit_ratio"] = ratio(float64(b.scHits-a.scHits),
		float64(b.scHits-a.scHits+b.scMisses-a.scMisses))
	m["peer.by_ref_byte_ratio"] = ratio(float64(b.byRefBytes-a.byRefBytes),
		float64(b.wire-a.wire+b.byRefBytes-a.byRefBytes))
	m["simnet.msgs_per_query"] = ratio(float64(b.msgs-a.msgs), float64(n))
	m["simnet.requests_per_query"] = ratio(float64(b.requests-a.requests), float64(n))
	m["simnet.links_opened"] = float64(b.links)
	var logical, resident int64
	stuck := 0
	for _, p := range w.peers {
		stuck += len(p.StuckErrors())
		if s := p.BlobStore(); s != nil {
			logical, resident = logical+s.Stats().LogicalBytes, resident+s.Stats().Bytes
		}
	}
	m["peer.stuck"] = float64(stuck)
	m["blobstore.dedup_ratio"] = ratio(float64(logical), float64(resident))
	if c := w.churn; c != nil {
		m["peer.setitems_us"] = median(micros(c.setItems))
		m["peer.register_with_us"] = median(micros(c.register))
	}
}

func micros(ds []time.Duration) []float64 {
	us := make([]float64, len(ds))
	for i, d := range ds {
		us[i] = float64(d) / 1e3
	}
	return us
}

// replayStages runs every stage of the replay that applies to a simnet
// world and sets trace.reconcile_ratio.
func (w *simWorld) replayStages(_ *env, tr *tracer, st *stageStats, m metrics, seed int64) error {
	overhead := simnetOverhead(st)
	reconcile, err := w.replay(tr, st, overhead)
	if err != nil {
		return err
	}
	m["trace.reconcile_ratio"] = median(reconcile)
	reduceStage(st, w.qs, w.colls)
	registerStage(st, w)
	if w.cfgs[w.client.Addr()].Blobs != nil {
		internStage(st, w.blobItems())
	}
	if w.name == "point_hot" {
		p50, err := poolP50(seed)
		if err != nil {
			return err
		}
		m["peer.pool_p50_us"] = p50
	}
	return nil
}

// blobItems is every collection a blob-enabled world installed.
func (w *simWorld) blobItems() [][]*xmltree.Node {
	var out [][]*xmltree.Node
	for addr, p := range w.peers {
		if c, ok := p.Collection("/data"); ok && w.cfgs[addr].Blobs != nil {
			out = append(out, c.Items)
		}
	}
	return out
}

// --- counters of tcp_chain ---------------------------------------------------------

func (w *tcpWorld) counters() counters {
	var c counters
	for _, d := range w.daemons {
		if st, err := d.procStat(); err == nil {
			c.cpu += st.cpu
		}
	}
	return c
}

func (w *tcpWorld) layerMetrics(m metrics, a, b counters, n int, plain *phase) {
	m["mqpd.cpu_us_per_query"] = ratio(float64(b.cpu-a.cpu)/1e3, float64(n))
	m["mqpd.hop_us"] = ratio(median(plain.lats)*float64(plain.queriesOK()), float64(plain.hops))
	for _, d := range w.daemons {
		if st, err := d.procStat(); err == nil {
			m["mqpd.rss_mb."+d.name] = st.rssMB
		}
	}
}

func (w *tcpWorld) replayStages(e *env, tr *tracer, st *stageStats, m metrics, _ int64) error {
	if err := wireStages(st, tr, w.qs[0].plan); err != nil {
		return err
	}
	reconcile, err := w.replay(tr, st, time.Duration(st.median("wire.send_frame_us")*1e3))
	if err != nil {
		return err
	}
	m["trace.reconcile_ratio"] = median(reconcile)
	m["mqpd.build_s"] = e.buildS
	reduceStage(st, w.qs, nil)
	return nil
}
