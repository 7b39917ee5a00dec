package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbc"
	"hbc/internal/loopnest"
	"hbc/internal/serve"
	"hbc/internal/telemetry"
)

// testPool builds a started pool with one tiny summing kernel registered, on
// a mux with the given body limit, ready for httptest drives.
func testPool(t *testing.T, cfg serve.Config, maxBody int64) (*serve.Pool, *httptest.Server) {
	t.Helper()
	nest := &hbc.Nest{Name: "sum", Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 100 },
		Body: func(_ any, _ []int64, lo, hi int64, acc any) {
			s := acc.(*float64)
			for i := lo; i < hi; i++ {
				*s++
			}
		},
		Reduce: loopnest.SumFloat64(),
	}}
	prog, err := hbc.Compile(nest, hbc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(cfg)
	err = pool.Register("sum", func(_ int, team *hbc.Team) (serve.Runnable, error) {
		return team.Load(prog, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	srv := httptest.NewServer(newMux(pool, telemetry.NewRegistry(), maxBody))
	t.Cleanup(func() {
		srv.Close()
		pool.Close()
	})
	return pool, srv
}

// TestOversizedBodyRejected413 is the regression test for request-body
// bounding: a POST past -max-body must be answered with 413 and a JSON
// error, not read in full, and a small body must still succeed.
func TestOversizedBodyRejected413(t *testing.T) {
	_, srv := testPool(t, serve.Config{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 8, DefaultDeadline: 10 * time.Second,
	}, 1024)

	big := strings.NewReader(strings.Repeat("x", 64<<10))
	resp, err := http.Post(srv.URL+"/run/sum", "application/octet-stream", big)
	if err != nil {
		t.Fatalf("oversized POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized POST status = %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("413 Content-Type = %q, want JSON", ct)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body not JSON: %v", err)
	}
	if !strings.Contains(e.Error, "1024") {
		t.Fatalf("413 error %q does not name the limit", e.Error)
	}

	resp2, err := http.Post(srv.URL+"/run/sum", "application/octet-stream", strings.NewReader("small"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("small POST status = %d, want 200", resp2.StatusCode)
	}
}

// TestReadyzSplitFromHealthz pins the liveness/readiness split: a saturated
// pool keeps /healthz at 200 (the process is fine) while /readyz answers 503
// with the saturation reason, and a drain flips both.
func TestReadyzSplitFromHealthz(t *testing.T) {
	release := make(chan struct{})
	gate := &hbc.Nest{Name: "gate", Root: &hbc.Loop{
		Name:   "i",
		Bounds: func(any, []int64) (int64, int64) { return 0, 1 },
		Body:   func(_ any, _ []int64, lo, hi int64, _ any) { <-release },
	}}
	prog, err := hbc.Compile(gate, hbc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.Config{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 1, DefaultDeadline: 20 * time.Second,
	})
	err = pool.Register("gate", func(_ int, team *hbc.Team) (serve.Runnable, error) {
		return team.Load(prog, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pool.Start()
	srv := httptest.NewServer(newMux(pool, telemetry.NewRegistry(), 1<<20))
	defer srv.Close()
	defer pool.Close()
	defer close(release)

	status := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if s := status("/readyz"); s != http.StatusOK {
		t.Fatalf("fresh /readyz = %d, want 200", s)
	}

	// One in-flight plus a full queue of one: the next request would be shed.
	// The second request goes out only once the shard has popped the first;
	// sent together, both can reach the depth-1 queue and the second is shed.
	go pool.Do(context.Background(), serve.Request{Kernel: "gate"})
	waitFor(t, func() bool { return pool.Stats().Inflight == 1 })
	go pool.Do(context.Background(), serve.Request{Kernel: "gate"})
	waitFor(t, func() bool { return pool.Stats().QueueDepth == 1 })

	if s := status("/healthz"); s != http.StatusOK {
		t.Fatalf("saturated /healthz = %d, want 200 (still live)", s)
	}
	if s := status("/readyz"); s != http.StatusServiceUnavailable {
		t.Fatalf("saturated /readyz = %d, want 503", s)
	}

	go pool.Drain(context.Background())
	waitFor(t, func() bool { return pool.Draining() })
	if s := status("/healthz"); s != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", s)
	}
	if s := status("/readyz"); s != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", s)
	}
}

// TestIdempotencyHeaderPassthrough checks the HTTP surface of the dedup
// contract: two POSTs with the same X-Idempotency-Key return the same value
// and the second is marked deduped.
func TestIdempotencyHeaderPassthrough(t *testing.T) {
	_, srv := testPool(t, serve.Config{
		Shards: 1, WorkersPerShard: 1, QueueDepth: 8, DefaultDeadline: 10 * time.Second,
	}, 1<<20)

	post := func(key string) (float64, bool) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/run/sum", nil)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST status = %d, want 200", resp.StatusCode)
		}
		var body struct {
			Value   float64 `json:"value"`
			Deduped bool    `json:"deduped"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Value, body.Deduped
	}

	v1, d1 := post("key-A")
	v2, d2 := post("key-A")
	if d1 {
		t.Fatal("first keyed request reported deduped")
	}
	if !d2 {
		t.Fatal("second request with the same key was not deduped")
	}
	if v1 != v2 {
		t.Fatalf("deduped value %v differs from original %v", v2, v1)
	}
	if _, d := post(""); d {
		t.Fatal("keyless request reported deduped")
	}
}

// TestLoadKernelsSkipsSubdirectories pins the flat -kernels contract: only
// .hbk files directly inside the directory are served, so a fixture corpus
// in a subdirectory (kernels/bad) is never loaded, even when its kernels
// compile.
func TestLoadKernelsSkipsSubdirectories(t *testing.T) {
	dir := t.TempDir()
	kernel := func(name string) []byte {
		return []byte("kernel " + name + "\nlet n = 64\narray out float[n]\n\nparallel for i = 0 .. n {\n    out[i] = 1.0\n}\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "a.hbk"), kernel("a"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "bad"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad", "b.hbk"), kernel("b"), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := serve.NewPool(serve.Config{Shards: 1, WorkersPerShard: 1})
	defer pool.Close()
	loaded, skipped := loadKernels(pool, dir)
	if len(loaded) != 1 || loaded[0] != "a" || skipped != 0 {
		t.Fatalf("loadKernels = %v (skipped %d), want [a] (skipped 0)", loaded, skipped)
	}
}

// waitFor polls cond up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
