package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/algebra"
	"repro/internal/blobstore"
	"repro/internal/catalog"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/mqp"
	"repro/internal/peer"
	"repro/internal/provenance"
	"repro/internal/route"
	"repro/internal/simnet"
	"repro/internal/wire"
	"repro/internal/workload"
	"repro/internal/xmltree"
)

// The stage replay feeds inputs captured from a workload (the bodies the
// traced run saw, and the world's items, predicates and registrations)
// through each layer's public functions, one timed call at a time. Its
// medians are the layer metrics; the sum of a hop's stages, set against the
// self time the trace measured for that hop, is trace.reconcile_ratio.

// maxExtras bounds the hops that also get the stages which are not part of a
// hop's own sum (cold step, route.Select, EncodeFrame, provenance).
const maxExtras = 600

// The replay loops run with the collector off and collect by hand every
// replayCollectEvery inputs, between stages: the traced run's captures are a
// few hundred MB of live heap, and a collector marking that on the one
// processor the stages run on made them read up to half again as long as the
// same work inside a live hop.
const replayCollectEvery = 64

// collectorOff turns automatic collection off until the returned function is
// called.
func collectorOff() (restore func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// maxWarmFrameBytes bounds the frames kept for the warm-decode stage, so
// that they all fit the frame cache at once.
const maxWarmFrameBytes = 1 << 20

// stageStats collects stage timings in microseconds by metric name.
type stageStats struct {
	us map[string][]float64
	tr *tracer
	// decodedBytes and frameBytes/frames feed decode_mb_s and frame_kb.
	decodedBytes, frameBytes, frames int
	reduceItems                      int
}

func newStageStats(tr *tracer) *stageStats {
	return &stageStats{us: map[string][]float64{}, tr: tr}
}

// time runs fn as one stage sample, recorded as a child span of parent.
func (s *stageStats) time(parent *span, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	s.us[name] = append(s.us[name], float64(d)/1e3)
	if s.tr != nil {
		s.tr.stage(parent, name, start, d)
	}
	return d
}

func (s *stageStats) median(name string) float64 { return median(s.us[name]) }

func (s *stageStats) sum(name string) float64 {
	t := 0.0
	for _, v := range s.us[name] {
		t += v
	}
	return t
}

// replayProc builds a processor that does at addr what the peer there does,
// from the peer's exported catalog and collections.
func (w *simWorld) replayProc(addr string, cacheSize int) (*mqp.Processor, error) {
	cfg, p := w.cfgs[addr], w.peers[addr]
	pcfg := mqp.Config{
		Self: addr, Catalog: p.Catalog(),
		FetchLocal: func(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
			c, ok := p.Collection(pathExp)
			if !ok {
				return nil, 0, fmt.Errorf("replay %s: no collection %q", addr, pathExp)
			}
			return c.Items, c.StalenessMin, nil
		},
		SizeOf: func(pathExp string) int {
			c, ok := p.Collection(pathExp)
			if !ok {
				return -1
			}
			return len(c.Items)
		},
		Policy: mqp.ForwardOnlyPolicy{}, PushSelect: cfg.PushSelect, Key: cfg.Key,
		PlanCacheSize: cacheSize, Shortcuts: p.Shortcuts(),
	}
	if cfg.Authoritative {
		pcfg.Authority = cfg.Area
	}
	if cfg.Blobs != nil {
		pcfg.InternDoc = cfg.Blobs.Canonicalize
	}
	return mqp.New(pcfg)
}

// resolveBlobs turns payload references in a captured body back into the
// documents the receiving peer's store holds for them.
func resolveBlobs(store *blobstore.Store, body *xmltree.Node) (*xmltree.Node, error) {
	return algebra.ResolveBlobs(body, func(s string) (*xmltree.Node, error) {
		fp, ok := blobstore.ParseFP(s)
		if !ok {
			return nil, fmt.Errorf("bad fingerprint %q", s)
		}
		doc, ok := store.Get(fp)
		if !ok {
			return nil, fmt.Errorf("fingerprint %s no longer resident", s)
		}
		return doc, nil
	}, nil)
}

// replay runs the captured hops of a simnet world through the stages. It
// returns, for every hop it could replay, the hop's summed stage time over
// the self time the trace measured for it.
func (w *simWorld) replay(tr *tracer, st *stageStats, sendOverhead time.Duration) (reconcile []float64, err error) {
	// The replayed decode is the cold one; the warm one is timed at the end.
	xmltree.SetFrameCacheLimit(0)
	defer xmltree.SetFrameCacheLimit(xmltree.DefaultFrameCacheBytes)
	defer collectorOff()()

	cold, warm := map[string]*mqp.Processor{}, map[string]*mqp.Processor{}
	for addr, cfg := range w.cfgs {
		if cold[addr], err = w.replayProc(addr, 0); err != nil {
			return nil, err
		}
		if warm[addr], err = w.replayProc(addr, cfg.PlanCacheSize); err != nil {
			return nil, err
		}
	}
	decodeIn := func(st *stageStats, c capture) (*algebra.Plan, time.Duration, error) {
		body, d := c.body, time.Duration(0)
		if store := w.cfgs[c.addr].Blobs; store != nil {
			var err error
			d += st.time(c.span, "blobstore.resolve_us", func() { body, err = resolveBlobs(store, body) })
			if err != nil {
				return nil, 0, err
			}
		}
		var plan *algebra.Plan
		var err error
		d += st.time(c.span, "algebra.unmarshal_us", func() { plan, err = algebra.Unmarshal(body) })
		return plan, d, err
	}
	isPlanHop := func(c capture, plan *algebra.Plan) bool {
		return c.kind == peer.KindMQP && !(plan.Target == c.addr && plan.IsConstant())
	}
	// Warm the caching processors the way the timed phases warmed the peers:
	// one untimed pass over the same plans.
	for i, c := range tr.captures {
		if i%replayCollectEvery == 0 {
			runtime.GC()
		}
		if plan, _, err := decodeIn(newStageStats(nil), c); err == nil && isPlanHop(c, plan) {
			_, _ = warm[c.addr].StepCtx(&mqp.StepContext{Now: c.at}, plan) // a failing step fails again below
		}
	}

	type urnAt struct{ addr, urn string }
	var urns []urnAt
	var frames []string
	frameBytes := 0
	for i, c := range tr.captures {
		if i%replayCollectEvery == 0 {
			runtime.GC()
		}
		if c.kind != peer.KindMQP && c.kind != peer.KindResult {
			continue // registrations are timed by catalog.register_us
		}
		plan, sum, err := decodeIn(st, c)
		if err != nil {
			continue // a payload evicted since; the hop is left out of both sums
		}
		if !isPlanHop(c, plan) {
			// A result arriving at its target: the receiver only unmarshals.
			reconcile = append(reconcile, ratio(float64(sum), float64(c.span.Self)))
			continue
		}
		if i < maxExtras {
			w.replayExtras(st, c, cold[c.addr])
			for _, u := range plan.Root.URNs() {
				urns = append(urns, urnAt{c.addr, u})
			}
		}
		var out mqp.Outcome
		sum += st.time(c.span, "mqp.step_cached_us", func() {
			out, err = warm[c.addr].StepCtx(&mqp.StepContext{Now: c.at}, plan)
		})
		if err != nil {
			continue // the world has moved on since the capture (churn)
		}
		if out.Partial {
			plan = route.Partial(plan)
		}
		var doc *xmltree.Node
		sum += st.time(c.span, "algebra.marshal_us", func() { doc = algebra.Marshal(plan) })
		var s string
		sum += st.time(c.span, "xmltree.serialize_us", func() { s = doc.String() })
		sum += st.time(c.span, "xmltree.decode_cold_us", func() { _, err = xmltree.DecodeString(s) })
		if err != nil {
			return nil, fmt.Errorf("replay at %s: %w", c.addr, err)
		}
		st.decodedBytes += len(s)
		if frameBytes+len(s) <= maxWarmFrameBytes {
			frames, frameBytes = append(frames, s), frameBytes+len(s)
		}
		reconcile = append(reconcile, ratio(float64(sum+sendOverhead), float64(c.span.Self)))
	}

	// catalog.Resolve on the catalogs that resolved these URNs, cache off
	// and then primed.
	for _, on := range []bool{false, true} {
		name := "catalog.resolve_us"
		if on {
			name = "catalog.resolve_cached_us"
		}
		for _, p := range w.peers {
			p.Catalog().EnableCache(on)
		}
		for pass := 0; pass < 2; pass++ {
			for _, u := range urns {
				cat := w.peers[u.addr].Catalog()
				if pass == 0 && on {
					_, _ = cat.Resolve(u.urn) // priming; unknown URNs are timed all the same
				} else if pass == 1 {
					st.time(nil, name, func() { _, _ = cat.Resolve(u.urn) })
				}
			}
		}
	}
	warmDecode(st, frames)
	return reconcile, nil
}

// replayExtras times the stages that are inside a step or beside the hop's
// own path: the step with no plan cache, route.Select, the streaming encoder
// and the provenance trail.
func (w *simWorld) replayExtras(st *stageStats, c capture, cold *mqp.Processor) {
	body := c.body
	if store := w.cfgs[c.addr].Blobs; store != nil {
		var err error
		if body, err = resolveBlobs(store, body); err != nil {
			return
		}
	}
	plan, err := algebra.Unmarshal(body)
	if err != nil {
		return
	}
	trailStages(st, c.span, plan, func(server string) []byte { return w.cfgs[server].Key }, w.cfgs[c.addr].Key, c.addr)
	stepExtras(st, c.span, plan, cold, c.addr, c.at)
}

// trailStages times Verify on the trail a captured plan carries and Append
// of one more visit to it.
func trailStages(st *stageStats, parent *span, plan *algebra.Plan, keys provenance.Keyring, key []byte, self string) {
	t, err := provenance.FromPlan(plan)
	if err != nil || len(t.Visits) == 0 || key == nil {
		return
	}
	st.time(parent, "provenance.verify_us", func() { _, _ = t.Verify(keys) })
	// FromPlan built this trail for us alone, so growing it touches nothing
	// the plan holds.
	st.time(parent, "provenance.append_us", func() {
		t.Append(provenance.Visit{Server: self, Action: provenance.ActionForward}, key)
	})
}

// stepExtras times a cache-less step, then route.Select and EncodeFrame on
// the plan that step produced.
func stepExtras(st *stageStats, parent *span, plan *algebra.Plan, cold *mqp.Processor, self string, at time.Duration) {
	var out mqp.Outcome
	var err error
	st.time(parent, "mqp.step_us", func() { out, err = cold.StepCtx(&mqp.StepContext{Now: at}, plan) })
	if err != nil {
		return
	}
	if !out.Done {
		st.time(parent, "route.select_us", func() { route.Select(plan, self, out.NextHops) })
	}
	enc := xmltree.GetFrameEncoder()
	st.time(parent, "algebra.encode_frame_us", func() { algebra.EncodeFrame(plan, enc) })
	st.frameBytes += enc.Len()
	st.frames++
	enc.Release()
}

// warmDecode times DecodeString on frames the frame cache already holds.
func warmDecode(st *stageStats, frames []string) {
	xmltree.SetFrameCacheLimit(xmltree.DefaultFrameCacheBytes) // back on, after the cold replay turned it off
	for _, s := range frames {
		_, _ = xmltree.DecodeString(s) // decoded fine once already
	}
	for _, s := range frames {
		st.time(nil, "xmltree.decode_warm_us", func() { _, _ = xmltree.DecodeString(s) })
	}
}

// reduceStage times engine.Reduce on select and join nodes built from the
// workload's own items and predicates: the reference plans where they carry
// their data inline, otherwise each collection under a query's predicate.
func reduceStage(st *stageStats, qs []query, colls []chaos.Collection) {
	var nodes []*algebra.Node
	if len(colls) == 0 {
		for _, q := range qs {
			nodes = append(nodes, q.ref.Root.Children[0].Clone())
		}
	}
	for i, c := range colls {
		nodes = append(nodes, algebra.Select(qs[i%len(qs)].pred, algebra.Data(c.Items...)))
	}
	for _, n := range nodes {
		for _, leaf := range n.Leaves() {
			st.reduceItems += len(leaf.Docs)
		}
		st.time(nil, "engine.reduce_us", func() { _, _ = engine.Reduce(n) })
	}
}

// registerStage times Catalog.Register of every registration the world's
// catalogs hold, into one fresh catalog.
func registerStage(st *stageStats, w *simWorld) {
	cat := catalog.New(w.ns, "bench:1")
	n := 0
	for _, p := range w.peers {
		for _, reg := range p.Catalog().Registrations() {
			if n++; n > maxExtras {
				return
			}
			st.time(nil, "catalog.register_us", func() { _ = cat.Register(reg) })
		}
	}
}

// internStage times Store.Intern on the world's items, first as new content
// and then as content already resident.
func internStage(st *stageStats, colls [][]*xmltree.Node) {
	store := blobstore.New()
	for pass := 0; pass < 2; pass++ {
		for _, items := range colls {
			for _, it := range items {
				st.time(nil, "blobstore.intern_us", func() { store.Intern(it) })
			}
		}
	}
}

// nopPeer accepts everything and does nothing.
type nopPeer string

func (p nopPeer) Addr() string                                   { return string(p) }
func (p nopPeer) Deliver(*simnet.Network, *simnet.Message) error { return nil }
func (p nopPeer) Serve(*simnet.Network, *simnet.Message) (*xmltree.Node, error) {
	return nil, nil
}

// simnetOverhead times Send of a tiny frozen body to a peer that does
// nothing: lookup, pricing, accounting and the delivery call.
func simnetOverhead(st *stageStats) time.Duration {
	net := simnet.New()
	net.Add(nopPeer("a:1"))
	net.Add(nopPeer("b:1"))
	body := xmltree.Elem("x").Freeze()
	const per = 100
	for i := 0; i < 200; i++ {
		start := time.Now()
		for j := 0; j < per; j++ {
			_ = net.Send(&simnet.Message{From: "a:1", To: "b:1", Kind: "nop", Body: body}) // both peers exist
		}
		st.us["simnet.send_overhead_us"] = append(st.us["simnet.send_overhead_us"],
			float64(time.Since(start))/1e3/per)
	}
	return time.Duration(st.median("simnet.send_overhead_us") * 1e3)
}

// poolP50 replays point_hot against a server with a one-worker pool, the
// path no gated workload covers, and returns the median latency in
// microseconds.
func poolP50(seed int64) (float64, error) {
	w, err := buildPointHotWorkers(seed, 1)
	if err != nil {
		return 0, err
	}
	defer w.close()
	var lats []float64
	for i := 0; i < 4000; i++ {
		q := &w.qs[i%len(w.qs)]
		start := time.Now()
		if err := w.net.Send(&simnet.Message{From: w.client.Addr(), To: w.entry, Kind: peer.KindMQP, Body: q.body}); err != nil {
			return 0, err
		}
		deadline := start.Add(queryTimeout)
		for {
			if _, ok := w.client.TakeResult(); ok {
				break
			}
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("worker-pool replay: no result within %v", queryTimeout)
			}
			runtime.Gosched()
		}
		lats = append(lats, float64(time.Since(start))/1e3)
	}
	return median(lats), nil
}

// --- tcp_chain ----------------------------------------------------------------

// mqpdProc builds the processor cmd/mqpd builds from its flags.
func mqpdProc(addr string, aliases map[string]string, items []*xmltree.Node, cacheSize int) (*mqp.Processor, error) {
	cat := catalog.New(workload.GarageSaleNamespace(), addr)
	for urn, target := range aliases {
		cat.AddAlias(urn, target)
	}
	return mqp.New(mqp.Config{
		Self: addr, Catalog: cat,
		FetchLocal: func(_ *mqp.StepContext, _ string, pathExp string) ([]*xmltree.Node, int, error) {
			if pathExp != "/data" || items == nil {
				return nil, 0, fmt.Errorf("no collection %q", pathExp)
			}
			return items, 0, nil
		},
		PushSelect: true, Key: []byte("mqpd-" + addr), PlanCacheSize: cacheSize,
	})
}

// replay walks every captured submitted frame through in-process copies of
// the three daemons' hop loops, stage by stage, and through the client's
// receive path. It returns, for every query, the summed stage time over the
// latency the client measured. The frames between daemons cannot be seen
// from outside; the replay is where they are sized.
func (w *tcpWorld) replay(tr *tracer, st *stageStats, sendFrame time.Duration) (reconcile []float64, err error) {
	xmltree.SetFrameCacheLimit(0)
	defer xmltree.SetFrameCacheLimit(xmltree.DefaultFrameCacheBytes)
	defer collectorOff()()
	aliases := map[string]string{
		cdsURN:    "http://" + w.daemons[1].addr + "/data",
		tracksURN: "http://" + w.daemons[2].addr + "/data",
	}
	var cold, warm [3]*mqp.Processor
	for i, items := range [][]*xmltree.Node{nil, w.data.sales, w.data.listings} {
		al := aliases
		if i > 0 {
			al = nil
		}
		if cold[i], err = mqpdProc(w.daemons[i].addr, al, items, 0); err != nil {
			return nil, err
		}
		if warm[i], err = mqpdProc(w.daemons[i].addr, al, items, 128); err != nil {
			return nil, err
		}
	}
	keys := func(server string) []byte { return []byte("mqpd-" + server) }
	var frames []string
	frameBytes := 0
	for pass := 0; pass < 2; pass++ {
		// The first pass is untimed: it warms the caching processors.
		use := st
		if pass == 0 {
			use = newStageStats(nil)
		}
		for qi, c := range tr.captures {
			if qi%replayCollectEvery == 0 {
				runtime.GC()
			}
			frame := c.frame
			var sum time.Duration
			for hop := 0; ; hop++ {
				var doc *xmltree.Node
				sum += use.time(c.span, "xmltree.decode_cold_us", func() { doc, err = xmltree.Decode(frame) })
				if err != nil {
					return nil, err
				}
				use.decodedBytes += len(frame)
				if pass == 1 && frameBytes+len(frame) <= maxWarmFrameBytes {
					frames, frameBytes = append(frames, string(frame)), frameBytes+len(frame)
				}
				var plan *algebra.Plan
				sum += use.time(c.span, "algebra.unmarshal_us", func() { plan, err = algebra.Unmarshal(doc) })
				if err != nil {
					return nil, err
				}
				if hop == 3 {
					break // the client: receive, decode, unmarshal
				}
				if pass == 1 && qi < maxExtras {
					if p2, err := algebra.Unmarshal(doc); err == nil {
						trailStages(use, c.span, p2, keys, keys(w.daemons[hop].addr), w.daemons[hop].addr)
						stepExtras(use, c.span, p2, cold[hop], w.daemons[hop].addr, 0)
					}
				}
				var out mqp.Outcome
				sum += use.time(c.span, "mqp.step_cached_us", func() { out, err = warm[hop].Step(plan) })
				if err != nil {
					return nil, err
				}
				switch {
				case out.Partial:
					plan = route.Partial(plan)
				case !out.Done && out.NextHop != w.daemons[hop+1].addr:
					return nil, fmt.Errorf("replay: %s forwards to %s, not down the chain", w.daemons[hop].name, out.NextHop)
				}
				enc := xmltree.GetFrameEncoder()
				sum += use.time(c.span, "algebra.encode_frame_us", func() { algebra.EncodeFrame(plan, enc) })
				use.frameBytes += enc.Len()
				use.frames++
				frame = enc.AppendString(nil)
				enc.Release()
				sum += sendFrame
				if out.Done || out.Partial {
					hop = 2 // next stop is the client
				}
			}
			if pass == 1 {
				reconcile = append(reconcile, ratio(float64(sum), float64(c.span.End-c.span.Start)))
			}
		}
	}
	warmDecode(st, frames)
	return reconcile, nil
}

// wireStages times the transport alone against a sink in this process: a
// frame sent on a warm link, a request/reply round trip, a cold link with
// its handshake, and ReadFrame over captured bytes.
func wireStages(st *stageStats, tr *tracer, plan *algebra.Plan) error {
	pong := xmltree.Elem("pong").Freeze()
	sink, err := wire.Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		if doc.Name == "ping" {
			return pong, nil
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	defer sink.Close()
	ping := func(e *xmltree.FrameEncoder) { e.Raw("<ping/>") }
	pool := wire.NewLinkPool()
	defer pool.Close()
	if _, _, err := pool.Call(sink.Addr(), ping); err != nil {
		return err
	}
	for i := 0; i < 1000; i++ {
		st.time(nil, "wire.send_frame_us", func() {
			err = pool.SendFrame(sink.Addr(), func(e *xmltree.FrameEncoder) { algebra.EncodeFrame(plan, e) })
		})
		if err != nil {
			return err
		}
		// The reply comes after the sink has read the frame before it, so
		// the next send never queues behind a backlog.
		st.time(nil, "wire.call_rtt_us", func() { _, _, err = pool.Call(sink.Addr(), ping) })
		if err != nil {
			return err
		}
	}
	for i := 0; i < 50; i++ {
		fresh := wire.NewLinkPool()
		st.time(nil, "wire.dial_us", func() { _, _, err = fresh.Call(sink.Addr(), ping) })
		fresh.Close()
		if err != nil {
			return err
		}
	}
	for _, c := range tr.captures {
		buf := make([]byte, 4, 4+len(c.frame))
		binary.BigEndian.PutUint32(buf, uint32(len(c.frame)))
		buf = append(buf, c.frame...)
		st.time(nil, "wire.read_frame_us", func() { _, _, err = wire.ReadFrame(bytes.NewReader(buf)) })
		if err != nil {
			return err
		}
	}
	return nil
}
