package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/algebra"
	"repro/internal/provenance"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

// buildDir holds everything building and running leave behind; .gitignore
// names it.
const buildDir = ".bench_build"

// buildMqpd compiles cmd/mqpd into the build directory and reports how long
// that took. The go command's cache makes every build after the first a
// relink.
func buildMqpd(root string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(root, buildDir, "mqpd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mqpd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/mqpd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// proc is a child process: an mqpd daemon, or a run of the benchmark itself
// that a full set started.
type proc struct {
	cmd *exec.Cmd
	// sig is what stops the child: a daemon is killed, a benchmark run is
	// asked to end so that it can stop its own daemons.
	sig     syscall.Signal
	exited  chan struct{} // closed once Wait has returned
	waitErr error         // what Wait returned; read after exited is closed
}

// children is every child this process has started and not yet reaped, and
// every per-run directory not yet removed, so that a signal handler can clean
// up whatever the main goroutine is doing.
var children = struct {
	sync.Mutex
	m    map[*proc]bool
	dirs map[string]bool
}{m: map[*proc]bool{}, dirs: map[string]bool{}}

// start starts cmd as a registered child.
func start(cmd *exec.Cmd, sig syscall.Signal) (*proc, error) {
	// If the benchmark dies without running its handlers, the kernel stops
	// the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, sig: sig, exited: make(chan struct{})}
	children.Lock()
	children.m[p] = true
	children.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// wait blocks until the child has ended by itself and been reaped.
func (p *proc) wait() error {
	<-p.exited
	children.Lock()
	delete(children.m, p)
	children.Unlock()
	return p.waitErr
}

// stop ends the child and waits until it has been reaped.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(p.sig) // already exited is fine
	_ = p.wait()                    // the exit status of a stopped child says nothing
}

// stopChildren stops and reaps every live child and removes their files.
func stopChildren() {
	children.Lock()
	ps := make([]*proc, 0, len(children.m))
	for p := range children.m {
		ps = append(ps, p)
	}
	dirs := children.dirs
	children.dirs = map[string]bool{}
	children.Unlock()
	for _, p := range ps {
		p.stop()
	}
	for dir := range dirs {
		os.RemoveAll(dir)
	}
}

// daemon is one mqpd child process.
type daemon struct {
	*proc
	name, addr string
	log        *os.File
}

// startDaemon starts mqpd with only its documented flags; stderr goes to a
// file in dir.
func startDaemon(bin, dir, name, addr string, args ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, name+".stderr"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	p, err := start(cmd, syscall.SIGKILL)
	if err != nil {
		logf.Close()
		return nil, err
	}
	return &daemon{proc: p, name: name, addr: addr, log: logf}, nil
}

// ready waits until the daemon accepts connections, failing fast if it
// exits first.
func (d *daemon) ready(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			logged, _ := os.ReadFile(d.log.Name())
			return fmt.Errorf("mqpd %s exited during start-up:\n%s", d.name, logged)
		default:
		}
		conn, err := net.DialTimeout("tcp", d.addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("mqpd %s not accepting on %s after %v", d.name, d.addr, timeout)
}

// stop kills the daemon and waits until it has been reaped.
func (d *daemon) stop() {
	d.proc.stop()
	d.log.Close()
}

// procStat is what /proc knows about a daemon: its resident set and the CPU
// time it has used.
type procStat struct {
	rssMB float64
	cpu   time.Duration
}

func (d *daemon) procStat() (ps procStat, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return ps, err
			}
			ps.rssMB = kb / 1024
		}
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks of 10 ms.
	f := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	ps.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	return ps, nil
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// tcpWorld is the Fig. 3 join through three mqpd processes on loopback TCP,
// wired as the cmd/mqpd doc comment wires them: an alias server that binds
// the two URNs, a CD server and a track-listing server. The client is what
// cmd/mqpquery is: a wire.Listen for the result and a LinkPool.SendFrame for
// the plan. None of internal/peer runs.
type tcpWorld struct {
	data    joinData
	dir     string
	daemons []*daemon // alias, cds, tracks
	srv     *wire.Server
	pool    *wire.LinkPool
	results chan *algebra.Plan
	qs      []query
	seq     int
	// wire counts the client's two edge frames per query; the result side is
	// counted on the server's connection goroutine.
	wire atomic.Int64
	tr   *tracer
}

// queryTimeout is how long the client waits for a result before the query
// counts as failed.
const queryTimeout = 5 * time.Second

func writeCollection(path string, items []*xmltree.Node) error {
	doc := xmltree.Elem("items")
	for _, it := range items {
		doc.Add(it.Share())
	}
	return os.WriteFile(path, []byte(doc.String()), 0o644)
}

func buildTCPChain(root, bin string, seed int64, sz sizes) (_ *tcpWorld, err error) {
	dir, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	children.Lock()
	children.dirs[dir] = true
	children.Unlock()
	w := &tcpWorld{data: genJoinData(seed, sz), dir: dir, results: make(chan *algebra.Plan, 1)}
	defer func() {
		if err != nil {
			w.close() // the first error is the one to report
		}
	}()
	cdsFile, tracksFile := filepath.Join(dir, "cds.xml"), filepath.Join(dir, "tracks.xml")
	if err := writeCollection(cdsFile, w.data.sales); err != nil {
		return nil, err
	}
	if err := writeCollection(tracksFile, w.data.listings); err != nil {
		return nil, err
	}
	addrs, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	for _, d := range []struct {
		name string
		args []string
	}{
		{"alias", []string{"-alias", cdsURN + "=http://" + addrs[1] + "/data",
			"-alias", tracksURN + "=http://" + addrs[2] + "/data"}},
		{"cds", []string{"-collection", "/data=" + cdsFile}},
		{"tracks", []string{"-collection", "/data=" + tracksFile}},
	} {
		dm, err := startDaemon(bin, dir, d.name, addrs[len(w.daemons)], d.args...)
		if err != nil {
			return nil, err
		}
		w.daemons = append(w.daemons, dm)
	}
	for _, d := range w.daemons {
		if err := d.ready(10 * time.Second); err != nil {
			return nil, err
		}
	}
	w.srv, err = wire.Listen("127.0.0.1:0", func(doc *xmltree.Node) (*xmltree.Node, error) {
		got, err := algebra.Unmarshal(doc)
		if err != nil {
			return nil, err
		}
		w.wire.Add(int64(doc.ByteSize()) + linkHeader)
		select {
		case w.results <- got:
		default: // a result nobody waits for any more
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	w.pool = wire.NewLinkPool()
	for i, pred := range w.data.preds {
		id := fmt.Sprintf("tcp_chain-%d", i)
		w.qs = append(w.qs, query{plan: joinPlan(id, w.srv.Addr(), pred), ref: w.data.joinRef(id, pred), pred: pred})
	}
	return w, nil
}

// linkHeader is the MUX2 per-frame header: length and correlation id.
const linkHeader = 12

func (w *tcpWorld) queries() []query { return w.qs }
func (w *tcpWorld) trace(tr *tracer) { w.tr = tr }
func (w *tcpWorld) wireBytes() int64 { return w.wire.Load() }
func (w *tcpWorld) writeEvery() int  { return 0 }
func (w *tcpWorld) write() (time.Duration, error) {
	return 0, errors.New("tcp_chain has no writes")
}

func (w *tcpWorld) do(qi int) (result, error) {
	q := &w.qs[qi]
	w.seq++
	q.plan.ID = fmt.Sprintf("tcp_chain-%d-%d", qi, w.seq)
	var root *span
	if w.tr != nil {
		root = w.tr.begin("query", w.srv.Addr(), roleClient, "submit")
		defer w.tr.end(root)
	}
	start := time.Now()
	err := w.pool.SendFrame(w.daemons[0].addr, func(e *xmltree.FrameEncoder) {
		algebra.EncodeFrame(q.plan, e)
		w.wire.Add(int64(e.Len()) + linkHeader)
		if w.tr != nil && len(w.tr.captures) < maxCaptures {
			w.tr.captures = append(w.tr.captures, capture{span: root, frame: e.AppendString(nil)})
		}
	})
	if err != nil {
		return result{lat: time.Since(start)}, err
	}
	timeout := time.NewTimer(queryTimeout)
	defer timeout.Stop()
	for {
		select {
		case res := <-w.results:
			if res.ID != q.plan.ID {
				continue // the late answer to a query that timed out
			}
			lat := time.Since(start)
			hops, err := trailHops(res)
			return result{plan: res, hops: hops, lat: lat}, err
		case err := <-w.srv.Errors():
			return result{lat: time.Since(start)}, err
		case <-timeout.C:
			return result{lat: time.Since(start)}, fmt.Errorf("plan %q: no result within %v", q.plan.ID, queryTimeout)
		case <-w.daemons[0].exited:
			return result{lat: time.Since(start)}, errors.New("mqpd alias exited")
		case <-w.daemons[1].exited:
			return result{lat: time.Since(start)}, errors.New("mqpd cds exited")
		case <-w.daemons[2].exited:
			return result{lat: time.Since(start)}, errors.New("mqpd tracks exited")
		}
	}
}

// trailHops counts link traversals from the provenance trail: one per
// server the plan stopped at, plus the link back to the client.
func trailHops(p *algebra.Plan) (int, error) {
	t, err := provenance.FromPlan(p)
	if err != nil {
		return 0, err
	}
	stops, last := 0, ""
	for _, v := range t.Visits {
		if v.Server != last {
			stops++
			last = v.Server
		}
	}
	return stops + 1, nil
}

func (w *tcpWorld) expected(qi int) (map[string]int, error) {
	q := &w.qs[qi]
	if q.want == nil {
		want, err := centralAnswer(q.ref)
		if err != nil {
			return nil, err
		}
		q.want = want
	}
	return q.want, nil
}

// memMB is the summed resident set of the three daemons; the benchmark's
// own heap is no part of it.
func (w *tcpWorld) memMB(float64) (float64, error) {
	total := 0.0
	for _, d := range w.daemons {
		ps, err := d.procStat()
		if err != nil {
			return 0, err
		}
		total += ps.rssMB
	}
	return total, nil
}

func (w *tcpWorld) close() error {
	if w.pool != nil {
		w.pool.Close()
	}
	var err error
	if w.srv != nil {
		err = w.srv.Close()
	}
	for _, d := range w.daemons {
		d.stop()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	children.Lock()
	delete(children.dirs, w.dir)
	children.Unlock()
	return err
}
