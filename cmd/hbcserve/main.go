// Command hbcserve is the multi-tenant kernel-serving daemon: it loads a
// directory of .hbk kernels, compiles each once per shard of a warm team
// pool (internal/serve), and serves kernel executions over HTTP/JSON with
// admission control, per-tenant fair queuing, per-request deadlines, load
// shedding, and graceful drain.
//
// Usage:
//
//	hbcserve -kernels kernels                       # serve on :8077
//	hbcserve -shards 4 -workers 2 -queue 64
//
// API:
//
//	POST /run/{kernel}   run a kernel; headers: X-Tenant (fair-queuing key),
//	                     X-Deadline-Ms (request deadline), X-Idempotency-Key
//	                     (dedupe retries against the completed-run cache).
//	                     200 with a JSON body on success; 413 when the body
//	                     exceeds -max-body; 429 + Retry-After when shed; 503
//	                     while draining; 504 past deadline; 500 on a kernel
//	                     panic (typed, contained to this request).
//	GET  /kernels        list loaded kernels
//	GET  /healthz        liveness: "ok" (200) or "draining" (503) — flips the
//	                     moment a drain begins, before in-flight work finishes
//	GET  /readyz         readiness: 200 only while the pool can usefully take
//	                     another request; 503 with a reason once the admission
//	                     queue is saturated or a drain has begun, so a router
//	                     stops routing BEFORE requests are shed
//	GET  /metrics        Prometheus text exposition (pool + every shard)
//	GET  /vars           the same registry as expvar-style JSON
//
// On SIGINT/SIGTERM the server stops admitting (healthz flips to 503 and
// stays reachable for -drain-linger so load balancers notice), finishes
// in-flight and queued requests within -drain-timeout, closes every team,
// then verifies against a final registry snapshot that no goroutine leaked
// (written to -final-snapshot when set). Exit status 0 means a clean drain
// and zero leaked goroutines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hbc"
	_ "hbc/gen/kernels" // registry for serve.KernelAuto's generated path
	"hbc/internal/serve"
	"hbc/internal/telemetry"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8077", "listen address")
		kernelDir = flag.String("kernels", "kernels", "directory of .hbk kernels to load")
		shards    = flag.Int("shards", 2, "team shards (also the in-flight limit)")
		workers   = flag.Int("workers", 0, "workers per shard (0 = NumCPU/shards)")
		topoSpec  = flag.String("topology", "", "pool worker-group hierarchy for topology-aware shard placement (e.g. 2x4; empty = flat)")
		queue     = flag.Int("queue", 16, "admission queue depth")
		defDL     = flag.Duration("default-deadline", time.Second, "deadline for requests that specify none")
		maxDL     = flag.Duration("max-deadline", 30*time.Second, "upper clamp on requested deadlines")
		heartbeat = flag.Duration("heartbeat", 100*time.Microsecond, "heartbeat period")
		drainLing = flag.Duration("drain-linger", time.Second, "keep /healthz serving 503 at least this long before exiting")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain; in-flight runs are cancelled past it")
		finalSnap = flag.String("final-snapshot", "", "write the final post-drain registry snapshot (expvar JSON) to this file")
		leakGrace = flag.Duration("leak-grace", 3*time.Second, "how long to wait for goroutines to settle before the leak check")
		maxBody   = flag.Int64("max-body", 1<<20, "request body byte limit; oversized POSTs get 413")
	)
	flag.Parse()

	// Install the signal handler before anything can answer /readyz: a
	// SIGTERM sent as soon as the server is ready must start a drain, not
	// kill the process. Notify starts os/signal's permanent watcher
	// goroutine, so the leak-check baseline captured next includes it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	// Goroutine baseline for the post-drain leak check, captured before any
	// serving machinery exists.
	baseline := runtime.NumGoroutine()

	reg := telemetry.NewRegistry()
	reg.Register("proc", func(emit func(string, float64)) {
		g := runtime.NumGoroutine()
		emit("goroutines", float64(g))
		leaked := g - baseline
		if leaked < 0 {
			leaked = 0
		}
		emit("leaked_goroutines", float64(leaked))
	})

	topo, err := hbc.ParseTopology(*topoSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcserve:", err)
		os.Exit(2)
	}
	nshards := *shards
	if topo.Groups() > 1 {
		// With a topology given, one shard per leaf group is the placement
		// that keeps tenants inside a group; an explicit -shards still wins.
		explicit := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "shards" {
				explicit = true
			}
		})
		if !explicit {
			nshards = 0
		}
	}
	pool := serve.NewPool(serve.Config{
		Shards:          nshards,
		WorkersPerShard: *workers,
		Topology:        topo,
		QueueDepth:      *queue,
		DefaultDeadline: *defDL,
		MaxDeadline:     *maxDL,
		Heartbeat:       *heartbeat,
		Registry:        reg,
	})

	loaded, skipped := loadKernels(pool, *kernelDir)
	if len(loaded) == 0 {
		fmt.Fprintf(os.Stderr, "hbcserve: no loadable kernels in %s\n", *kernelDir)
		os.Exit(2)
	}
	fmt.Printf("hbcserve: loaded %d kernel(s) %v on %d shard(s) x %d worker(s)",
		len(loaded), loaded, pool.Shards(), pool.ShardWorkers())
	if skipped > 0 {
		fmt.Printf(", skipped %d", skipped)
	}
	fmt.Println()
	pool.Start()

	mux := newMux(pool, reg, *maxBody)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcserve:", err)
		os.Exit(2)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Printf("hbcserve: serving on http://%s (POST /run/{kernel})\n", ln.Addr())

	select {
	case s := <-sig:
		fmt.Printf("hbcserve: %v — draining\n", s)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "hbcserve: server error:", err)
		os.Exit(1)
	}

	// Drain protocol: flip health first (the pool rejects new work from the
	// same instant), keep /healthz answering 503 for the linger window, then
	// finish in-flight work and close the teams.
	code := 0
	drainStart := time.Now()
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(*drainTO)
		defer cancel()
		drainDone <- pool.Drain(ctx)
	}()
	if err := <-drainDone; err != nil {
		fmt.Fprintf(os.Stderr, "hbcserve: forced drain: %v\n", err)
		code = 1
	}
	if rest := *drainLing - time.Since(drainStart); rest > 0 {
		time.Sleep(rest)
	}
	shutCtx, cancel := contextWithTimeout(5 * time.Second)
	_ = srv.Shutdown(shutCtx)
	cancel()

	// Leak check against the final registry snapshot: every pool goroutine
	// (shard loops, workers, heartbeat sources, HTTP serve loop) must be
	// gone before we call the drain clean.
	leaked := awaitSettle(baseline, *leakGrace)
	snap := reg.ExpvarJSON()
	if *finalSnap != "" {
		if err := os.WriteFile(*finalSnap, []byte(snap+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "hbcserve: writing final snapshot:", err)
			code = 1
		}
	}
	if leaked > 0 {
		fmt.Fprintf(os.Stderr, "hbcserve: %d goroutine(s) leaked past drain (baseline %d)\n", leaked, baseline)
		code = 1
	}
	fmt.Printf("hbcserve: drained in %v, %d goroutine(s) leaked\n",
		time.Since(drainStart).Round(time.Millisecond), leaked)
	os.Exit(code)
}

// awaitSettle waits up to grace for the goroutine count to return to the
// baseline and returns how many remain above it.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func awaitSettle(baseline int, grace time.Duration) int {
	deadline := time.Now().Add(grace)
	for {
		leaked := runtime.NumGoroutine() - baseline
		if leaked <= 0 || time.Now().After(deadline) {
			if leaked < 0 {
				leaked = 0
			}
			return leaked
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newMux builds the server's route table. Split from main so the handler
// behaviors (readiness split, body bounding, idempotency passthrough) are
// testable with httptest against an in-process pool.
func newMux(pool *serve.Pool, reg *telemetry.Registry, maxBody int64) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run/{kernel}", func(w http.ResponseWriter, r *http.Request) {
		handleRun(pool, w, r, maxBody)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if pool.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if ok, reason := pool.Ready(); !ok {
			http.Error(w, reason, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /kernels", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"kernels": pool.Kernels()})
	})
	telH := reg.Handler()
	mux.Handle("GET /metrics", telH)
	mux.Handle("GET /vars", telH)
	return mux
}

// runResponse is the success body of POST /run/{kernel}.
type runResponse struct {
	Kernel   string  `json:"kernel"`
	Tenant   string  `json:"tenant"`
	Shard    int     `json:"shard"`
	QueuedMs float64 `json:"queued_ms"`
	RunMs    float64 `json:"run_ms"`
	Value    any     `json:"value,omitempty"`
	Deduped  bool    `json:"deduped,omitempty"`
}

type errResponse struct {
	Error        string  `json:"error"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
}

func handleRun(pool *serve.Pool, w http.ResponseWriter, r *http.Request, maxBody int64) {
	// Bound the body before anything else touches it. Today's run requests
	// carry no payload the handler consumes, but the connection still
	// transports whatever the client sent — without the cap an oversized
	// POST is read in full (keep-alive drains the body on reuse). Past the
	// cap MaxBytesReader poisons the connection and we answer 413.
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errResponse{
				Error: fmt.Sprintf("request body exceeds %d byte limit", tooBig.Limit),
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "reading request body: " + err.Error()})
		return
	}

	kernel := r.PathValue("kernel")
	tenant := r.Header.Get("X-Tenant")
	var deadline time.Duration
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseFloat(h, 64)
		if err != nil || ms <= 0 {
			writeJSON(w, http.StatusBadRequest, errResponse{Error: "invalid X-Deadline-Ms"})
			return
		}
		deadline = time.Duration(ms * float64(time.Millisecond))
	}

	res, err := pool.Do(r.Context(), serve.Request{
		Kernel:   kernel,
		Tenant:   tenant,
		Deadline: deadline,
		IdemKey:  r.Header.Get("X-Idempotency-Key"),
	})
	if err != nil {
		var over *serve.ErrOverloaded
		var pe *hbc.PanicError
		switch {
		case errors.As(err, &over):
			// Retry-After is whole seconds per RFC 9110; round up so the
			// hint never understates the wait.
			secs := int64((over.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeJSON(w, http.StatusTooManyRequests, errResponse{
				Error:        "overloaded",
				RetryAfterMs: float64(over.RetryAfter) / float64(time.Millisecond),
			})
		case errors.Is(err, serve.ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "draining"})
		case errors.Is(err, serve.ErrUnknownKernel):
			writeJSON(w, http.StatusNotFound, errResponse{Error: err.Error()})
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			writeJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded"})
		case errors.As(err, &pe):
			writeJSON(w, http.StatusInternalServerError, errResponse{Error: "kernel panic: " + pe.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusOK, runResponse{
		Kernel:   kernel,
		Tenant:   tenant,
		Shard:    res.Shard,
		QueuedMs: float64(res.Queued) / float64(time.Millisecond),
		RunMs:    float64(res.Run) / float64(time.Millisecond),
		Value:    res.Value,
		Deduped:  res.Deduped,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// loadKernels registers every loadable .hbk file directly inside dir —
// subdirectories such as a known-bad fixture corpus are not searched —
// returning the names loaded and the count skipped (parse/vet/compile
// failures are reported and skipped). Registration goes through
// serve.KernelAuto, so kernels with a current generated artifact
// (gen/kernels) serve on the specialized backend automatically.
func loadKernels(pool *serve.Pool, dir string) (loaded []string, skipped int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbcserve:", err)
		return nil, 0
	}
	for _, d := range entries {
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".hbk") {
			continue
		}
		path := filepath.Join(dir, d.Name())
		name := strings.TrimSuffix(d.Name(), ".hbk")
		if err := pool.Register(name, serve.KernelAuto(path)); err != nil {
			fmt.Fprintf(os.Stderr, "hbcserve: skipping %s: %v\n", path, err)
			skipped++
			continue
		}
		loaded = append(loaded, name)
	}
	return loaded, skipped
}
