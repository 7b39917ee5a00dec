package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hbc"
	"hbc/internal/serve"
)

const (
	// closedQueue is hbcserve's admission queue behind the closed loop, its
	// flag default. Two callers can never fill it.
	closedQueue = 16
	// openQueue is the queue behind the open loop: serve.Config's default.
	// At 16, a 60 ms stall of a shared machine backs 17 arrivals up and
	// sheds the next; those sheds repeat with the neighbours, not with the
	// code. At 64 only a backlog that keeps growing is shed.
	openQueue = 64
	// closedClients is the closed-loop client count: two callers on two
	// keep-alive connections, so one request always waits behind another on
	// the single shard.
	closedClients = 2
	// openRate is the open-loop arrival rate, about half of what two closed
	// clients reach on the 2-core reference box.
	openRate = 300.0
	// openSenders bounds the open loop's in-flight requests. It must exceed
	// openQueue+1 or the backlog would build in the client instead of in
	// hbcserve's queue and nothing could ever be shed; the senders sleep on
	// the network, so they do not compete for the two cores.
	openSenders = 80
	// deadlineMs is every request's X-Deadline-Ms.
	deadlineMs = "2000"
	tenants    = 2
)

// proc is one child process under test.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	out     bytes.Buffer
	started time.Time
	exited  chan struct{}
}

// startProc starts bin listening on a free loopback port. Pdeathsig makes
// the child die with the benchmark even when the benchmark is killed.
func startProc(name, bin string, args ...string) (*proc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	p := &proc{name: name, url: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = &p.out, &p.out
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p.started = time.Now()
	go func() {
		_ = p.cmd.Wait() // the exit state is read from ProcessState in stop
		close(p.exited)
	}()
	return p, nil
}

// probeClient makes the benchmark's own control requests (/readyz,
// /metrics) on throw-away connections, so none sits idle in a server that
// is about to be checked for leaks.
var probeClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

// waitReady polls /readyz until it answers 200.
func (p *proc) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it was ready:\n%s", p.name, p.out.String())
		default:
		}
		resp, err := probeClient.Get(p.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 20s:\n%s", p.name, p.out.String())
}

// stop sends SIGTERM and requires a clean exit: status 0, which for
// hbcserve also means a finished drain and zero leaked goroutines. It
// returns the child's peak resident set in MB.
func (p *proc) stop() (peakRSSmb float64, err error) {
	// hbcserve answers /readyz before it installs its signal handler; a
	// SIGTERM in that gap kills it outright. No stack is stopped this young
	// in practice, but a failed drain must never be the benchmark's doing.
	time.Sleep(time.Until(p.started.Add(200 * time.Millisecond)))
	peakRSSmb = pidPeakRSSmb(p.cmd.Process.Pid)
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return 0, fmt.Errorf("%s did not exit within 20s of SIGTERM:\n%s", p.name, p.out.String())
	}
	if code := p.cmd.ProcessState.ExitCode(); code != 0 {
		return peakRSSmb, fmt.Errorf("%s exited with status %d, not a clean drain:\n%s", p.name, code, p.out.String())
	}
	return peakRSSmb, nil
}

// kill ends the child on a failure path, without judging how it exits.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// serveFiles makes the process's scratch directory and builds hbcserve and
// hbcroute into its bin/, once per process however many serving runs follow.
func (e *env) serveFiles() error {
	if e.scratch != "" {
		return nil
	}
	work, err := e.workDir()
	if err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	bin := filepath.Join(scratch, "bin") + string(filepath.Separator)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hbcserve", "./cmd/hbcroute")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(scratch)
		return fmt.Errorf("go build hbcserve hbcroute: %w\n%s", err, out)
	}
	e.scratch = scratch
	return nil
}

func (e *env) binary(name string) string { return filepath.Join(e.scratch, "bin", name) }

// privateKernelDir copies the five kernels byte for byte into a directory
// of their own. hbcserve walks its -kernels directory recursively, so given
// kernels/ it would also serve the loadable fixtures under kernels/bad.
func privateKernelDir(e *env, srcs []*kernelSrc) (string, error) {
	dir, err := os.MkdirTemp(e.scratch, "kernels-")
	if err != nil {
		return "", err
	}
	for _, k := range srcs {
		if err := os.WriteFile(filepath.Join(dir, k.name+".hbk"), k.src, 0o644); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// serveStack is the processes of one serving workload.
type serveStack struct {
	serve, route         *proc
	serveReady, rtrReady time.Duration
}

// startStack starts hbcserve (one shard of NumCPU workers) and, for the
// routed workload, hbcroute in front of it, waiting for each /readyz.
func startStack(e *env, kernelDir string, queue int, withRouter bool) (*serveStack, error) {
	s := &serveStack{}
	t0 := time.Now()
	var err error
	s.serve, err = startProc("hbcserve", e.binary("hbcserve"),
		"-kernels", kernelDir, "-shards", "1", "-workers", strconv.Itoa(runtime.NumCPU()),
		"-queue", strconv.Itoa(queue), "-heartbeat", heartbeat.String(), "-drain-linger", "0")
	if err != nil {
		return nil, err
	}
	if err := s.serve.waitReady(); err != nil {
		s.kill()
		return nil, err
	}
	s.serveReady = time.Since(t0)
	if withRouter {
		t1 := time.Now()
		s.route, err = startProc("hbcroute", e.binary("hbcroute"),
			"-backends", "b0="+s.serve.url, "-seed", strconv.FormatInt(e.seed, 10))
		if err == nil {
			err = s.route.waitReady()
		}
		if err != nil {
			s.kill()
			return nil, err
		}
		s.rtrReady = time.Since(t1)
	}
	return s, nil
}

func (s *serveStack) procs() []*proc {
	if s.route != nil {
		return []*proc{s.route, s.serve}
	}
	return []*proc{s.serve}
}

// stop stops the router first, then the server, and reports every unclean
// exit. It returns each process's peak RSS by name.
func (s *serveStack) stop() (map[string]float64, error) {
	rss := map[string]float64{}
	var errs []error
	for _, p := range s.procs() {
		mb, err := p.stop()
		rss[p.name] = mb
		errs = append(errs, err)
	}
	return rss, errors.Join(errs...)
}

func (s *serveStack) kill() {
	for _, p := range s.procs() {
		if p != nil {
			p.kill()
		}
	}
}

// front is where the workload's clients send: the router when there is one.
func (s *serveStack) front() string {
	if s.route != nil {
		return s.route.url
	}
	return s.serve.url
}

func (s *serveStack) cpuProcs() []cpuProc {
	ps := []cpuProc{{name: "client"}}
	for _, p := range s.procs() {
		ps = append(ps, cpuProc{name: p.name, pid: p.cmd.Process.Pid})
	}
	return ps
}

// scrape reads a process's /metrics.
func scrape(base string) (map[string]float64, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}

// runReply is the part of hbcserve's success body the benchmark reads.
type runReply struct {
	Kernel   string   `json:"kernel"`
	QueuedMs float64  `json:"queued_ms"`
	RunMs    float64  `json:"run_ms"`
	Value    *float64 `json:"value"`
}

// caller is one HTTP client with its own connections.
type caller struct {
	http    *http.Client
	kernels []string
	refs    []reference
}

func newCaller(conns int, kernels []string, refs []reference) *caller {
	return &caller{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
			Timeout:   10 * time.Second,
		},
		kernels: kernels, refs: refs,
	}
}

// post sends one POST /run/{kernel}, reads the whole reply, and returns the
// round trip's start and end.
func (c *caller) post(base string, k int, tenant string) (reply runReply, status int, t0, t1 time.Time, err error) {
	req, err := http.NewRequest(http.MethodPost, base+"/run/"+c.kernels[k], nil)
	if err != nil {
		return reply, 0, t0, t1, err
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("X-Deadline-Ms", deadlineMs)
	t0 = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply, 0, t0, time.Now(), err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 = time.Now()
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &reply)
	}
	return reply, resp.StatusCode, t0, t1, err
}

// correct is the serving workloads' output check: status 200, the echoed
// kernel name, and the root reduction equal to the serial elision's.
func (c *caller) correct(k int, reply runReply, status int, err error) bool {
	if err != nil || status != http.StatusOK || reply.Kernel != c.kernels[k] {
		return false
	}
	var got float64
	if reply.Value != nil {
		got = *reply.Value
	}
	return c.refs[k].checkValue(got) == nil
}

// request sends one invocation and records it. Spans: request -> route ->
// {queue, run} through the router, request -> http -> {queue, run} direct;
// the inner two come from the reply's queued_ms and run_ms.
func (c *caller) request(base, hop string, inv int64, k int, tenant string, due time.Time, tr *tracer) rec {
	sent := time.Now()
	reply, status, t0, t1, err := c.post(base, k, tenant)
	ok := c.correct(k, reply, status, err)
	done := time.Now()
	if status == http.StatusOK && err == nil {
		root := tr.add(inv, -1, "request", k, sent, done)
		mid := tr.add(inv, root, hop, k, t0, t1)
		tr.addInside(inv, mid, k,
			"queue", time.Duration(reply.QueuedMs*float64(time.Millisecond)),
			"run", time.Duration(reply.RunMs*float64(time.Millisecond)))
	}
	return rec{kernel: k, ok: ok, wrong: !ok && err == nil && status == http.StatusOK, traced: tr != nil, status: status,
		lat: done.Sub(due), late: sent.Sub(due)}
}

// closedLoad runs closedClients closed-loop callers against the stack for
// dur. With paired set, each caller follows every routed request with a
// direct one for the same kernel, which is how the traced run isolates the
// router hop.
func closedLoad(s *serveStack, callers []*caller, seed int64, start time.Time, dur time.Duration, paired bool, tracers []*tracer) []rec {
	out := make([][]rec, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(i int, c *caller) {
			defer wg.Done()
			mix := newMixer(seed+int64(i), len(c.kernels))
			tenant := fmt.Sprintf("t%d", i%tenants)
			var tr *tracer
			if tracers != nil {
				tr = tracers[i]
			}
			hop := "http"
			if s.route != nil {
				hop = "route"
			}
			for n := int64(0); time.Since(start) < dur; n++ {
				k := mix.next()
				inv := int64(i)<<32 + 2*n
				out[i] = append(out[i], c.request(s.front(), hop, inv, k, tenant, time.Now(), tr.on(n)))
				if paired && s.route != nil {
					r := c.request(s.serve.url, "http", inv+1, k, tenant, time.Now(), tr.on(n))
					r.direct = true
					out[i] = append(out[i], r)
				}
			}
		}(i, c)
	}
	wg.Wait()
	var recs []rec
	for _, r := range out {
		recs = append(recs, r...)
	}
	return recs
}

// arrival is one scheduled open-loop request.
type arrival struct {
	due    time.Duration
	kernel int
	tenant string
}

// poissonSchedule draws exponential gaps at openRate for dur.
func poissonSchedule(seed int64, dur time.Duration, nk int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	mix := newMixer(seed^0x5eed, nk)
	var out []arrival
	for t := 0.0; ; {
		t += rng.ExpFloat64() / openRate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{due: due, kernel: mix.next(), tenant: fmt.Sprintf("t%d", rng.Intn(tenants))})
	}
}

// openLoad sends the schedule regardless of how the server keeps up: one
// dispatcher releases each arrival at its due time to openSenders senders.
// Latency runs from the due time, so a stall is charged to every request it
// delays.
func openLoad(base string, c *caller, sched []arrival, start time.Time, tracers []*tracer) []rec {
	// Buffered to the whole schedule: the dispatcher must never block on a
	// busy sender, or the loop would close.
	due := make(chan int, len(sched))
	out := make([][]rec, openSenders)
	var wg sync.WaitGroup
	for i := 0; i < openSenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var tr *tracer
			if tracers != nil {
				tr = tracers[i]
			}
			for n := range due {
				a := sched[n]
				out[i] = append(out[i], c.request(base, "http", int64(n), a.kernel, a.tenant, start.Add(a.due), tr.on(int64(n))))
			}
		}(i)
	}
	for n, a := range sched {
		time.Sleep(time.Until(start.Add(a.due)))
		due <- n
	}
	close(due)
	wg.Wait()
	var recs []rec
	for _, r := range out {
		recs = append(recs, r...)
	}
	return recs
}

// promCounters reads from hbcserve's /metrics the counters libStack reads
// from the public API. Shard 0 is the only shard.
func promCounters(m map[string]float64, kernels []string) counters {
	const shard = "hbc_shard0_"
	g := func(name string) int64 { return int64(m[shard+"sched_"+name]) }
	c := counters{sched: hbc.SchedStats{
		Spawned: g("spawned_total"), Steals: g("steals_total"), StealNanos: g("steal_search_ns_total"),
		Parks: g("parks_total"), Wakes: g("wakes_total"),
		TaskPoolHits: g("task_pool_hits_total"), TaskPoolMisses: g("task_pool_misses_total"),
	}}
	run := shard + "run_"
	c.promotions = int64(sumSuffix(m, run, "_promotions_total"))
	c.outer = int64(sumSuffix(m, run, "_promotions_level_0_total"))
	c.forked = int64(sumSuffix(m, run, "_tasks_forked_total"))
	c.leftovers = int64(sumSuffix(m, run, "_leftover_runs_total"))
	c.polls = int64(sumSuffix(m, run, "_pulse_polls_total"))
	c.detected = int64(sumSuffix(m, run, "_pulse_detected_total"))
	c.missed = int64(sumSuffix(m, run, "_pulse_missed_total"))
	for _, k := range kernels {
		c.lagNs += int64(m[run+k+"_pulse_lag_mean_ns"] * m[run+k+"_pulse_detected_total"])
		c.lagMax = append(c.lagMax, time.Duration(m[run+k+"_pulse_lag_max_ns"]))
	}
	return c
}

// measureDispatch times serve.Pool.Do in-process with hbcserve's pool
// configuration and one caller, and returns the p50 of what Do adds around
// the queue wait and the run it reports: admission, hand-off to the shard
// and the wake of the caller.
func measureDispatch(srcs []*kernelSrc, seed int64, budget time.Duration) (float64, error) {
	pool := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: runtime.NumCPU(), QueueDepth: closedQueue, Heartbeat: heartbeat})
	defer pool.Close()
	for _, k := range srcs {
		if err := pool.Register(k.name, serve.KernelAuto(k.path)); err != nil {
			return 0, err
		}
	}
	pool.Start()
	mix := newMixer(seed, len(srcs))
	var extra []float64
	deadline := time.Now().Add(budget)
	for n := 0; n < 10 || time.Now().Before(deadline); n++ {
		k := srcs[mix.next()]
		t0 := time.Now()
		res, err := pool.Do(context.Background(), serve.Request{Kernel: k.name, Tenant: "t0"})
		total := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("Pool.Do %s: %w", k.name, err)
		}
		extra = append(extra, us(total-res.Queued-res.Run))
	}
	return median(extra), nil
}

// serveTrial is one freshly started stack with its callers, serial
// baselines taken and warm-up done.
type serveTrial struct {
	w       workload
	stack   *serveStack
	setupS  float64
	serial  []time.Duration
	callers []*caller
}

// startServeTrial starts the processes and sends each kernel once (timed
// together: that is setup_s), runs the serial elisions while the servers
// idle, and warms the stack up with the workload's own traffic.
func startServeTrial(e *env, w workload, srcs []*kernelSrc, kernelDir string, seed int64, warmup, probe time.Duration, paired bool) (*serveTrial, error) {
	t0 := time.Now()
	queue := closedQueue
	if w.open {
		queue = openQueue
	}
	stack, err := startStack(e, kernelDir, queue, w.router)
	if err != nil {
		return nil, err
	}
	t := &serveTrial{w: w, stack: stack, serial: make([]time.Duration, len(srcs))}
	// The callers share refs, which is filled below, after set-up is timed
	// and before any reply is checked against it.
	refs := make([]reference, len(srcs))
	if w.open {
		t.callers = []*caller{newCaller(openSenders, w.kernels, refs)}
	} else {
		for i := 0; i < closedClients; i++ {
			t.callers = append(t.callers, newCaller(1, w.kernels, refs))
		}
	}
	for k := range srcs {
		if _, status, _, _, err := t.callers[0].post(stack.front(), k, "t0"); err != nil || status != http.StatusOK {
			t.kill()
			return nil, fmt.Errorf("first request for %s: status %d, %v", srcs[k].name, status, err)
		}
	}
	t.setupS = time.Since(t0).Seconds()
	for k, src := range srcs {
		refs[k] = measureSerial(src, probe)
		t.serial[k] = refs[k].serialP50
	}
	t.load(seed, warmup, paired, nil)(time.Now())
	return t, nil
}

// load returns the workload's traffic for dur as a measureWindow load.
func (t *serveTrial) load(seed int64, dur time.Duration, paired bool, tracers []*tracer) func(time.Time) []rec {
	if t.w.open {
		sched := poissonSchedule(seed, dur, len(t.serial))
		return func(start time.Time) []rec { return openLoad(t.stack.front(), t.callers[0], sched, start, tracers) }
	}
	return func(start time.Time) []rec { return closedLoad(t.stack, t.callers, seed, start, dur, paired, tracers) }
}

func (t *serveTrial) closeConns() {
	for _, c := range t.callers {
		c.http.CloseIdleConnections()
	}
}

// stop drains the stack and reports an unclean exit.
func (t *serveTrial) stop() (map[string]float64, error) {
	t.closeConns()
	return t.stack.stop()
}

func (t *serveTrial) kill() {
	t.closeConns()
	t.stack.kill()
}

// runServe runs one serving workload: the untraced trials, or the traced
// run that yields the per-layer metrics.
func runServe(e *env, w workload, traced bool) (*result, error) {
	srcs, err := loadKernels(e.root, w.kernels)
	if err != nil {
		return nil, err
	}
	if err := e.serveFiles(); err != nil {
		return nil, err
	}
	kernelDir, err := privateKernelDir(e, srcs)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name, traced: traced, metrics: map[string]float64{}}

	if !traced {
		var ts []trial
		for i := 0; i < trials; i++ {
			seed := (e.seed*trials + int64(i)) * 10
			t, err := startServeTrial(e, w, srcs, kernelDir, seed, e.warmup/trials, e.probe, false)
			if err != nil {
				return nil, err
			}
			dur := e.window / trials
			win := measureWindow(dur, t.stack.cpuProcs(), t.load(seed+1, dur, false, nil))
			res.count(win.recs)
			if _, err := t.stop(); err != nil {
				res.problems = append(res.problems, err.Error())
			}
			ts = append(ts, trial{win: win, serial: t.serial, setupS: []float64{t.setupS}})
		}
		res.metrics = endToEndOf(ts)
		return res, nil
	}

	// Traced run, on one stack, with a longer serial probe: one trial has no
	// median to lean on. Whatever fails below, no child outlives it.
	seed := e.seed * 10
	t, err := startServeTrial(e, w, srcs, kernelDir, seed, e.warmup, 4*e.probe, true)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			t.kill()
		}
	}()
	stack, serial := t.stack, t.serial
	dur := e.window * 6 / 10
	promBefore, err := scrape(stack.serve.url)
	if err != nil {
		return nil, err
	}
	var rtrBefore map[string]float64
	if stack.route != nil {
		if rtrBefore, err = scrape(stack.route.url); err != nil {
			return nil, err
		}
	}
	tracers := make([]*tracer, closedClients)
	if w.open {
		tracers = make([]*tracer, openSenders)
	}
	epoch := time.Now()
	for i := range tracers {
		tracers[i] = newTracer(epoch, i, (1<<16)/len(tracers))
	}
	win := measureWindow(dur, stack.cpuProcs(), t.load(seed+1, dur, true, tracers))
	promAfter, err := scrape(stack.serve.url)
	if err != nil {
		return nil, err
	}
	m := res.metrics
	if stack.route != nil {
		rtrAfter, err := scrape(stack.route.url)
		if err != nil {
			return nil, err
		}
		d := promDelta(rtrBefore, rtrAfter)
		m["router.retries_per_req"] = share(d["hbc_router_retries_total"], d["hbc_router_requests_total"])
		m["router.hedges_per_req"] = share(d["hbc_router_hedges_total"], d["hbc_router_requests_total"])
		m["router.ready_ms"] = ms(stack.rtrReady)
	}
	res.count(win.recs)
	m["hbcserve.ready_ms"] = ms(stack.serveReady)
	stopped = true
	rss, err := t.stop()
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for name, mb := range rss {
		m["proc.peak_rss_mb."+name] = mb
	}
	m["proc.peak_rss_mb.bench"] = selfPeakRSSmb()

	// In-process probes of the layers the binaries do not time themselves,
	// taken once the processes are gone so they do not share the cores.
	probe, err := setupLib(runtime.NumCPU(), srcs, backendGen, nil)
	if err != nil {
		return nil, err
	}
	probe.close()
	m["frontend.parse_compile_ms"] = ms(probe.times.parseCompile)
	m["analysis.facts_ms"] = ms(probe.times.facts)
	m["hbc.compile_load_ms"] = ms(probe.times.compileLoad)
	if m["serve.dispatch_us_p50"], err = measureDispatch(srcs, e.seed, e.window/10); err != nil {
		return nil, err
	}

	d := promDelta(promBefore, promAfter)
	runs := d["hbc_serve_completed_total"]
	counterMetrics(m, promCounters(promBefore, w.kernels), promCounters(promAfter, w.kernels), runs)
	m["serve.shed_share"] = share(d["hbc_serve_shed_total"], d["hbc_serve_admitted_total"]+d["hbc_serve_shed_total"])
	m["serve.expired_share"] = share(d["hbc_serve_expired_total"], d["hbc_serve_admitted_total"])
	foreign := d["hbc_serve_tenant_foreign_pops_total"]
	m["serve.foreign_pop_share"] = share(foreign, foreign+d["hbc_serve_tenant_affine_pops_total"])

	st := collectSpans(tracers)
	m["serve.queue_wait_ms_p50"] = quantile(st.dur["queue"], 0.5)
	m["serve.queue_wait_ms_p90"] = quantile(st.dur["queue"], 0.9)
	m["serve.run_ms_p50"] = quantile(st.dur["run"], 0.5)
	m["serve.run_ms_p90"] = quantile(st.dur["run"], 0.9)
	m["hbcserve.http_overhead_ms_p50"] = quantile(st.self["http"], 0.5)
	m["hbcserve.http_overhead_ms_p90"] = quantile(st.self["http"], 0.9)
	if stack.route != nil {
		m["router.hop_ms_p50"] = quantile(st.self["route"], 0.5) - m["hbcserve.http_overhead_ms_p50"]
		m["router.hop_ms_p90"] = quantile(st.self["route"], 0.9) - m["hbcserve.http_overhead_ms_p90"]
	}
	for k, src := range srcs {
		m["hbc.run_us_p50."+src.name] = 1e3 * median(st.runByKernel[k])
	}
	if w.open {
		var late []float64
		for _, r := range win.recs {
			late = append(late, ms(r.late))
		}
		m["client.late_ms_p90"] = quantile(late, 0.9)
	}
	clientMetrics(m, win, srcs, serial)

	res.tracers = tracers
	if res.tracePath, err = e.tracePath(w.name); err != nil {
		return nil, err
	}
	if err := writeChromeTrace(res.tracePath, w.kernels, tracers); err != nil {
		return nil, err
	}
	return res, nil
}
