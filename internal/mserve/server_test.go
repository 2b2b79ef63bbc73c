package mserve

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/memutil"
)

// startServer brings up a server on a unix socket and tears it down with
// the test. Returns the server and the socket path.
func startServer(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Registry == nil {
		r, err := OpenRegistry(t.TempDir())
		if err != nil {
			t.Fatalf("open registry: %v", err)
		}
		cfg.Registry = r
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	sock := filepath.Join(t.TempDir(), "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s, sock
}

func dial(t *testing.T, sock string) *Client {
	t.Helper()
	cl, err := Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	cl.SetTimeout(5 * time.Second)
	return cl
}

func TestServerEndToEnd(t *testing.T) {
	_, sock := startServer(t, Config{})
	cl := dial(t, sock)

	// Nothing deployed yet: health not-ok, inference refused.
	ok, _, _, err := cl.Health()
	if err != nil || ok {
		t.Fatalf("health on empty server: ok=%v err=%v", ok, err)
	}
	if _, _, err := cl.Infer([]float64{1, 2, 3, 4}); !errors.Is(err, ErrRemote) {
		t.Fatalf("infer on empty server: %v", err)
	}

	// Deploy a network over the wire and serve it.
	model := nnModelBytes(t, 42, 4)
	v, err := cl.Deploy(KindNN, "readahead-nn", model)
	if err != nil || v != 1 {
		t.Fatalf("deploy: v=%d err=%v", v, err)
	}
	ok, version, inDim, err := cl.Health()
	if err != nil || !ok || version != 1 || inDim != 4 {
		t.Fatalf("health: ok=%v v=%d indim=%d err=%v", ok, version, inDim, err)
	}
	class, version, err := cl.Infer([]float64{0.1, 0.2, 0.3, 0.4})
	if err != nil || version != 1 || class < 0 || class > 3 {
		t.Fatalf("infer: class=%d v=%d err=%v", class, version, err)
	}
	// Wrong width is an application error; the connection survives.
	if _, _, err := cl.Infer([]float64{1, 2}); !errors.Is(err, ErrRemote) {
		t.Fatalf("short infer: %v", err)
	}

	flat := make([]float64, 16*4)
	for i := range flat {
		flat[i] = rand.New(rand.NewSource(1)).Float64()
	}
	classes, version, err := cl.BatchInfer(flat, 16, 4)
	if err != nil || len(classes) != 16 || version != 1 {
		t.Fatalf("batch: n=%d v=%d err=%v", len(classes), version, err)
	}

	// Rollback with a single version must fail cleanly...
	if _, err := cl.Rollback(); !errors.Is(err, ErrRemote) {
		t.Fatalf("rollback single version: %v", err)
	}
	// ...and succeed after a second deploy.
	if _, err := cl.Deploy(KindDTree, "readahead-dtree", constTreeBytes(t, 3, 4)); err != nil {
		t.Fatalf("deploy v2: %v", err)
	}
	if class, version, err = cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil || version != 2 || class != 3 {
		t.Fatalf("post-deploy infer: class=%d v=%d err=%v", class, version, err)
	}
	if v, err := cl.Rollback(); err != nil || v != 1 {
		t.Fatalf("rollback: v=%d err=%v", v, err)
	}
	if _, version, err = cl.Infer([]float64{0.1, 0.2, 0.3, 0.4}); err != nil || version != 1 {
		t.Fatalf("post-rollback infer: v=%d err=%v", version, err)
	}

	// Stats reflect the traffic and the collection pipeline keeps up.
	st := waitDrained(t, cl)
	if st.ActiveVersion != 1 || st.Deploys != 2 || st.Rollbacks != 1 {
		t.Fatalf("stats control plane: %+v", st)
	}
	if st.Inferences != 4 || st.Rows != 19 {
		t.Fatalf("stats traffic: inferences=%d rows=%d", st.Inferences, st.Rows)
	}
	if st.Dropped != 0 || st.BufferCap == 0 {
		t.Fatalf("stats pipeline: %+v", st)
	}
	if st.Errors == 0 || st.Conns != 1 {
		t.Fatalf("stats conns/errors: %+v", st)
	}
}

// waitDrained polls Stats until the collection pipeline has processed
// everything collected, so counter assertions are race-free.
func waitDrained(t *testing.T, cl *Client) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Processed == st.Collected {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("pipeline never drained: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHotSwapUnderLoad is the subsystem's acceptance test: four clients
// drive continuous batched inference while a new model version is
// deployed mid-flight. It asserts zero failed inferences, zero dropped
// collection events, that post-swap predictions come from the new
// version, and that no reader ever travels backwards in versions.
func TestHotSwapUnderLoad(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	// v1 predicts class 1 for every input; v2 predicts class 2.
	if _, err := reg.Put(KindDTree, "const-1", constTreeBytes(t, 1, 4)); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	s, sock := startServer(t, Config{Registry: reg, CollectCapacity: 1 << 15})

	const (
		workers = 4
		rows    = 8
		warmup  = 50 // requests per worker before the swap
	)
	var (
		wg        sync.WaitGroup
		failures  atomic.Uint64
		warmedUp  sync.WaitGroup
		swapped   = make(chan struct{})
		firstFail atomic.Value
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		firstFail.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	warmedUp.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial("unix", sock)
			if err != nil {
				warmedUp.Done()
				fail("worker %d dial: %v", w, err)
				return
			}
			defer cl.Close()
			cl.SetTimeout(5 * time.Second)
			rng := rand.New(rand.NewSource(int64(w)))
			flat := make([]float64, rows*4)
			lastVersion := uint64(0)
			deadline := time.Now().Add(20 * time.Second)
			warmupDone := false
			for i := 0; ; i++ {
				for j := range flat {
					flat[j] = rng.Float64()
				}
				classes, version, err := cl.BatchInfer(flat, rows, 4)
				if err != nil {
					fail("worker %d req %d: %v", w, i, err)
					break
				}
				if version < lastVersion {
					fail("worker %d: version ran backwards %d -> %d", w, lastVersion, version)
					break
				}
				lastVersion = version
				want := uint16(version) // const-tree class == version number here
				for _, c := range classes {
					if c != want {
						fail("worker %d: class %d from version %d", w, c, version)
					}
				}
				if i == warmup {
					warmupDone = true
					warmedUp.Done()
				}
				if version == 2 && i > warmup {
					break // saw the swap take effect
				}
				if time.Now().After(deadline) {
					fail("worker %d: never saw version 2", w)
					break
				}
			}
			if !warmupDone {
				warmedUp.Done()
			}
		}(w)
	}

	go func() {
		warmedUp.Wait() // all workers are mid-traffic
		if _, err := s.Deploy(KindDTree, "const-2", constTreeBytes(t, 2, 4)); err != nil {
			fail("deploy v2: %v", err)
		}
		close(swapped)
	}()
	wg.Wait()
	<-swapped

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed inferences during hot swap; first: %v", n, firstFail.Load())
	}

	// The swap must not have cost a single collection event.
	cl := dial(t, sock)
	st := waitDrained(t, cl)
	if st.Dropped != 0 {
		t.Fatalf("swap dropped %d collection events", st.Dropped)
	}
	if st.ActiveVersion != 2 {
		t.Fatalf("active version %d after swap", st.ActiveVersion)
	}
	served := s.ServedByVersion()
	if served[1] == 0 || served[2] == 0 {
		t.Fatalf("served-by-version tally missing a version: %v", served)
	}
	if st.Collected != st.Processed || st.Collected == 0 {
		t.Fatalf("collection pipeline lost events: %+v", st)
	}
}

func TestServerConnLimit(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	if _, err := reg.Put(KindDTree, "m", constTreeBytes(t, 0, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	_, sock := startServer(t, Config{Registry: reg, MaxConns: 1})

	c1 := dial(t, sock)
	if _, _, _, err := c1.Health(); err != nil {
		t.Fatalf("first conn health: %v", err)
	}
	c2 := dial(t, sock)
	_, _, _, err = c2.Health()
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("second conn: %v", err)
	}
	// Releasing the first connection frees the slot (asynchronously).
	c1.Close()
	ok := false
	for i := 0; i < 100 && !ok; i++ {
		c3, err := Dial("unix", sock)
		if err == nil {
			if _, _, _, err = c3.Health(); err == nil {
				ok = true
			}
			c3.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("slot never freed after close")
	}
}

func TestServerArenaAdmission(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	if _, err := reg.Put(KindDTree, "m", constTreeBytes(t, 0, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	arena := memutil.NewArena("mserve-test")
	// Room for the collection ring (1024×16 B) plus exactly one
	// connection charge: the second connection must be refused.
	arena.Reserve(1024*16 + 1024)
	_, sock := startServer(t, Config{
		Registry:        reg,
		Arena:           arena,
		ConnBytes:       1024,
		CollectCapacity: 1024,
	})

	c1 := dial(t, sock)
	if _, _, _, err := c1.Health(); err != nil {
		t.Fatalf("first conn: %v", err)
	}
	c2 := dial(t, sock)
	_, _, _, err = c2.Health()
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "reservation") {
		t.Fatalf("second conn: %v", err)
	}
	st, err := c1.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.ArenaRejects != 1 || st.ArenaLive == 0 {
		t.Fatalf("arena stats: %+v", st)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatalf("open registry: %v", err)
	}
	if _, err := reg.Put(KindDTree, "m", constTreeBytes(t, 0, 4)); err != nil {
		t.Fatalf("put: %v", err)
	}
	s, err := NewServer(Config{Registry: reg})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	sock := filepath.Join(t.TempDir(), "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()

	cl := dial(t, sock)
	if _, _, err := cl.Infer([]float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("infer: %v", err)
	}

	start := time.Now()
	s.Shutdown(5 * time.Second)
	if d := time.Since(start); d > 4*time.Second {
		t.Fatalf("shutdown took %v with an idle connection", d)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if _, err := Dial("unix", sock); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
