// Command loadgen measures the concurrent peer runtime: it drives one
// in-process worker-pool peer with a closed-loop multi-query workload and
// reports sustained throughput, result latency percentiles, and
// prepared-plan cache effectiveness.
//
// The harness is deliberately minimal: an inline simnet (concurrent-safe
// delivery), one server peer configured with Workers and a prepared-plan
// cache, and a collector peer that receives results. Client goroutines
// submit plans drawn from a small set of query shapes — the many-clients,
// few-distinct-queries pattern the plan cache exists for — throttled by a
// token semaphore sized to the server's queue so the loop measures steady
// state, not admission-rejection churn.
//
// Run: go run ./cmd/loadgen [-duration 3s] [-workers N] [-out BENCH_runtime.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/hierarchy"
	"repro/internal/namespace"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/xmltree"
)

const (
	serverAddr = "server:9020"
	clientAddr = "client:9020"
	// latencySampleEvery picks which submissions carry a wall-clock stamp
	// for latency measurement (the rest reuse prototype bodies).
	latencySampleEvery = 64
)

// collector is the client side of the loop: a bare simnet.Peer that
// receives results, measures end-to-end latency (submit wall-clock nanos
// ride in the plan ID), and returns the plan's token to the semaphore.
type collector struct {
	sem chan struct{}

	mu        sync.Mutex
	latencies []int64 // ns
	completed int64
	partials  map[string]int64 // partial-reason ("" = routing partial) -> count
}

func (c *collector) Addr() string { return clientAddr }

func (c *collector) Deliver(_ *simnet.Network, msg *simnet.Message) error {
	plan, err := algebra.Unmarshal(msg.Body)
	if err != nil {
		return fmt.Errorf("loadgen: bad result: %w", err)
	}
	lat := int64(0)
	if i := strings.LastIndexByte(plan.ID, '-'); i >= 0 {
		if start, err := strconv.ParseInt(plan.ID[i+1:], 10, 64); err == nil {
			lat = time.Now().UnixNano() - start
		}
	}
	c.mu.Lock()
	if plan.PartialResult() {
		if c.partials == nil {
			c.partials = map[string]int64{}
		}
		c.partials[plan.PartialReason()]++
	} else {
		c.completed++
		if lat > 0 {
			c.latencies = append(c.latencies, lat)
		}
	}
	c.mu.Unlock()
	select {
	case c.sem <- struct{}{}:
	default:
	}
	return nil
}

func (c *collector) Serve(_ *simnet.Network, req *simnet.Message) (*xmltree.Node, error) {
	return nil, fmt.Errorf("loadgen: collector serves nothing (got %s)", req.Kind)
}

// report is the BENCH_runtime.json document.
type report struct {
	DurationSec float64 `json:"duration_sec"`
	Workers     int     `json:"workers"`
	QueueDepth  int     `json:"queue_depth"`
	Submitted   int64   `json:"submitted"`
	Completed   int64   `json:"completed"`
	Partials    int64   `json:"partials"`
	Rejected    int64   `json:"rejected_admission"`
	PlansPerSec float64 `json:"plans_per_sec"`
	P50Micros   float64 `json:"latency_p50_us"`
	P99Micros   float64 `json:"latency_p99_us"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	CacheRate   float64 `json:"cache_hit_rate"`
	Messages    int64   `json:"net_messages"`
	Bytes       int64   `json:"net_bytes"`
}

func buildWorld(workers, queueDepth, cacheSize int, sem chan struct{}) (*simnet.Network, *collector, error) {
	loc := hierarchy.New("Location")
	loc.MustAdd("USA/OR/Portland")
	merch := hierarchy.New("Merchandise")
	merch.MustAdd("Music/CDs")
	ns, err := namespace.New(loc, merch)
	if err != nil {
		return nil, nil, err
	}
	area := ns.MustParseArea("[USA/OR/Portland, Music/CDs]")

	net := simnet.New()
	srv, err := peer.New(peer.Config{
		Addr: serverAddr, Net: net, NS: ns,
		Area: area, Authoritative: true,
		PushSelect: true,
		// No signing key: provenance trails are off, as in a production
		// deployment that does not audit routing. The chaos harness covers
		// the signed path; this harness measures the processing pipeline.
		Workers:       workers,
		QueueDepth:    queueDepth,
		PlanCacheSize: cacheSize,
	})
	if err != nil {
		return nil, nil, err
	}
	items := make([]*xmltree.Node, 0, 16)
	for i := 0; i < 16; i++ {
		items = append(items, xmltree.MustParse(fmt.Sprintf(
			"<sale><cd>Album %02d</cd><price>%d</price></sale>", i, 3+i*2)))
	}
	srv.AddCollection(peer.Collection{
		Name: "cds", PathExp: "/data[id=1]", Area: area, Items: items,
	})
	// The server is its own (authoritative) index: registering with itself
	// puts the collection where plan binding looks for it.
	if err := srv.RegisterWith(serverAddr, catalog.RoleBase); err != nil {
		return nil, nil, err
	}
	srv.Catalog().AddAlias("urn:ForSale:Portland-CDs", namespace.EncodeURN(area))

	col := &collector{sem: sem}
	net.Add(col)
	return net, col, nil
}

// shape is one distinct query in the workload: a pre-marshaled, frozen
// prototype body submitted verbatim (the common case — a client resending a
// known query), plus a builder for timestamped one-off instances used to
// sample end-to-end latency. Every instance of a shape has the same
// fingerprint, so a warmed cache serves all of them from one prepared entry.
type shape struct {
	proto *xmltree.Node
	build func(id string) *algebra.Plan
}

// planShapes returns the distinct query shapes the clients cycle through:
// selections over the catalog-resolved URN with different predicates.
func planShapes() []shape {
	// Selective predicates (a few matching items each), the common shape of
	// interactive point queries.
	preds := []string{
		"price < 7", "price < 9", "price < 11", "price < 13",
		"price > 25", "price > 27", "price > 29", "price > 31",
	}
	shapes := make([]shape, 0, len(preds))
	for i, pr := range preds {
		pred := algebra.MustParsePredicate(pr)
		build := func(id string) *algebra.Plan {
			sel := algebra.Select(pred, algebra.URN("urn:ForSale:Portland-CDs"))
			return algebra.NewPlan(id, clientAddr, algebra.Display(sel))
		}
		// The prototype is frozen: immutable, safely shared by every client
		// goroutine, serialized once (Freeze memoizes the wire form).
		proto := algebra.Marshal(build(fmt.Sprintf("lgproto%d", i))).Freeze()
		shapes = append(shapes, shape{proto: proto, build: build})
	}
	return shapes
}

func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3 // ns -> µs
}

func main() {
	duration := flag.Duration("duration", 3*time.Second, "measurement duration")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "server worker-pool size")
	cacheSize := flag.Int("plan-cache", 256, "server prepared-plan cache entries")
	smoke := flag.Bool("smoke", false, "CI smoke mode: short run, relaxed reporting")
	memMode := flag.Bool("mem", false, "payload-store memory bench: dedup-heavy workload, store off vs on (writes BENCH_mem.json)")
	out := flag.String("out", "", "report path ('-' for stdout only; defaults per mode)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	flag.Parse()
	if *out == "" {
		*out = "BENCH_runtime.json"
		if *memMode {
			*out = "BENCH_mem.json"
		}
	}
	if *memMode {
		runMemBench(*out, *smoke)
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *smoke {
		*duration = 300 * time.Millisecond
	}

	queueDepth := 4 * *workers
	// Tokens cap in-flight plans below queue+workers, so steady state sheds
	// (almost) nothing and the loop measures processing, not rejection.
	inflight := queueDepth + *workers/2
	sem := make(chan struct{}, inflight)
	for i := 0; i < inflight; i++ {
		sem <- struct{}{}
	}

	net, col, err := buildWorld(*workers, queueDepth, *cacheSize, sem)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	srv := net.Peer(serverAddr).(*peer.Peer)
	defer srv.Close()

	shapes := planShapes()
	var submitted, seq atomic.Int64
	stop := make(chan struct{})
	time.AfterFunc(*duration, func() { close(stop) })

	clients := *workers
	if clients < 2 {
		clients = 2
	}
	var wg sync.WaitGroup
	wg.Add(clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-sem:
				}
				n := seq.Add(1)
				sh := shapes[int(n)%len(shapes)]
				body := sh.proto
				if n%latencySampleEvery == 0 {
					// Latency sample: a one-off instance carrying its submit
					// wall-clock in the ID, paying the full build+marshal
					// cost a fresh query would.
					id := fmt.Sprintf("lg%d-%d", n, time.Now().UnixNano())
					body = algebra.Marshal(sh.build(id))
				}
				if err := net.Send(&simnet.Message{
					From: clientAddr, To: serverAddr,
					Kind: peer.KindMQP, Body: body,
				}); err != nil {
					log.Fatalf("loadgen: submit: %v", err)
				}
				submitted.Add(1)
			}
		}()
	}
	wg.Wait()
	// Let in-flight plans drain so completion accounting is stable.
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		col.mu.Lock()
		done := col.completed
		var parts int64
		for _, v := range col.partials {
			parts += v
		}
		col.mu.Unlock()
		if done+parts >= submitted.Load() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	col.mu.Lock()
	lats := append([]int64(nil), col.latencies...)
	completed := col.completed
	var partials, rejected int64
	for reason, v := range col.partials {
		partials += v
		if reason == "admission" {
			rejected = v
		}
	}
	col.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	cs := srv.CacheStats()
	m := net.Metrics()
	rep := report{
		DurationSec: elapsed.Seconds(),
		Workers:     *workers,
		QueueDepth:  queueDepth,
		Submitted:   submitted.Load(),
		Completed:   completed,
		Partials:    partials,
		Rejected:    rejected,
		PlansPerSec: float64(completed) / elapsed.Seconds(),
		P50Micros:   percentile(lats, 0.50),
		P99Micros:   percentile(lats, 0.99),
		CacheHits:   cs.Hits,
		CacheMisses: cs.Misses,
		CacheRate:   cs.HitRate(),
		Messages:    m.Messages,
		Bytes:       m.Bytes,
	}
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	fmt.Println(string(doc))
	if *out != "-" {
		if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
	}
	if completed == 0 {
		log.Fatal("loadgen: no plans completed")
	}
}
