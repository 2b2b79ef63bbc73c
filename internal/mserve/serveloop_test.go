package mserve

import (
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dtrace"
)

// These tests pin the connection loop's contract: every complete frame one
// read brings is answered in order, frames may arrive in any split, the
// deadlines armed once per tick still bound idle connections and client
// round trips, and the steady-state loop allocates nothing.

// rawConn dials the server without a Client, for tests that control the
// bytes on the wire.
func rawConn(t *testing.T, sock string) net.Conn {
	t.Helper()
	c, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// treeServer starts a server deploying treeBytes, whose class for the
// vector {k-1.5, 0, 0, 0} is k.
func treeServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, sock := startServer(t, cfg)
	if _, err := s.Deploy(KindDTree, "tree", treeBytes(t, 4)); err != nil {
		t.Fatal(err)
	}
	return s, sock
}

func classVector(k int) []float64 { return []float64{float64(k) - 1.5, 0, 0, 0} }

// readClasses reads n MsgInfer responses and returns their classes.
func readClasses(t *testing.T, c net.Conn, n int) []int {
	t.Helper()
	var fr frameReader
	out := make([]int, n)
	for i := range out {
		h, payload, err := fr.next(c)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if h.Type != MsgInfer {
			t.Fatalf("response %d: type %d (%s)", i, h.Type, payload)
		}
		class, _, err := ParseInferResp(payload)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		out[i] = int(class)
	}
	return out
}

func TestServeLoopPipelinedFrames(t *testing.T) {
	s, sock := treeServer(t, Config{})
	c := rawConn(t, sock)
	want := []int{2, 0, 3}
	var req []byte
	for _, k := range want {
		req = AppendFrame(req, MsgInfer, AppendInferReq(nil, 0, classVector(k)))
	}
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	got := readClasses(t, c, len(want))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("responses %v, want %v in request order", got, want)
		}
	}
	if n := s.Stats().Inferences; n != 3 {
		t.Fatalf("Stats.Inferences = %d, want 3", n)
	}
	// One small Write on a unix socket arrives in one read, so the last
	// frame's queue span holds its wait behind the two before it.
	traces := s.Traces()
	if len(traces) != 3 {
		t.Fatalf("%d traces, want 3", len(traces))
	}
	if q := traces[2].Spans[1]; q.Stage != dtrace.StageQueue || q.Value <= 0 {
		t.Fatalf("third pipelined frame's queue span %+v, want a positive wait", q)
	}

	// A corrupt frame closes the connection, but the frames before it in
	// the same read are still answered.
	c = rawConn(t, sock)
	bad := AppendFrame(nil, MsgInfer, AppendInferReq(nil, 0, classVector(1)))
	bad[len(bad)-1] ^= 0xFF
	if _, err := c.Write(append(req[:2*len(bad):2*len(bad)], bad...)); err != nil {
		t.Fatal(err)
	}
	if got := readClasses(t, c, 2); got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("answers before a corrupt frame: %v, want %v", got, want[:2])
	}
	if n, err := c.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("after a corrupt frame: read %d, %v; want EOF", n, err)
	}
}

func TestServeLoopByteAtATime(t *testing.T) {
	_, sock := treeServer(t, Config{})
	c := rawConn(t, sock)
	req := AppendFrame(nil, MsgInfer, AppendInferReq(nil, 0, classVector(1)))
	req = AppendFrame(req, MsgInfer, AppendInferReq(nil, 0, classVector(3)))
	for i := range req {
		if _, err := c.Write(req[i : i+1]); err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		time.Sleep(50 * time.Microsecond) // let the server read each byte on its own
	}
	if got := readClasses(t, c, 2); got[0] != 1 || got[1] != 3 {
		t.Fatalf("classes %v, want [1 3]", got)
	}
}

// TestServeLoopIdleClose: with ReadTimeout = WriteTimeout = 100ms a busy
// connection outlives the timeouts, and the server closes an idle one
// between 50 and 100 ms after the last request finished, or after the
// connection opened if none came.
func TestServeLoopIdleClose(t *testing.T) {
	const timeout = 100 * time.Millisecond
	const slack = 400 * time.Millisecond // scheduling on a loaded host
	_, sock := treeServer(t, Config{ReadTimeout: timeout, WriteTimeout: timeout})
	req := AppendFrame(nil, MsgInfer, AppendInferReq(nil, 0, classVector(0)))
	for _, busy := range []bool{false, true} {
		begin := time.Now()
		c := rawConn(t, sock)
		before := begin
		for busy && time.Since(begin) < 3*timeout {
			before = time.Now()
			if _, err := c.Write(req); err != nil {
				t.Fatal(err)
			}
			readClasses(t, c, 1)
		}
		after := time.Now()
		if n, err := c.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("busy=%v: idle read = %d, %v; want EOF", busy, n, err)
		}
		closed := time.Now()
		if d := closed.Sub(before); d < timeout/2 {
			t.Errorf("busy=%v: closed %v after the last request began, want >= %v", busy, d, timeout/2)
		}
		if d := closed.Sub(after); d > timeout+slack {
			t.Errorf("busy=%v: closed %v after the last request finished, want <= %v", busy, d, timeout)
		}
	}
}

// TestShutdownUnblocksIdleHandler: a handler that has re-armed its
// deadlines and then gone idle is nudged off its read by Shutdown at once,
// not when its minute-long read deadline expires.
func TestShutdownUnblocksIdleHandler(t *testing.T) {
	const rearm = 10 * time.Millisecond
	s, sock := treeServer(t, Config{ReadTimeout: time.Minute, WriteTimeout: 2 * rearm})
	cl := dial(t, sock)
	for start := time.Now(); time.Since(start) < 5*rearm; {
		if _, _, err := cl.Infer(classVector(2)); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	s.Shutdown(time.Minute)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown took %v with an idle connection", d)
	}
}

// TestClientTimeoutBound: a round trip to a peer that never answers fails
// within the client's timeout, and not before half of it.
func TestClientTimeoutBound(t *testing.T) {
	const timeout = 100 * time.Millisecond
	sock := filepath.Join(t.TempDir(), "mute.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c // held open, never answered
		}
		close(accepted)
	}()
	cl, err := Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(timeout)
	start := time.Now()
	_, _, _, err = cl.Health()
	d := time.Since(start)
	if c, ok := <-accepted; ok {
		c.Close()
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Health against a mute peer: %v, want a deadline error", err)
	}
	if d < timeout/2 || d > timeout+400*time.Millisecond {
		t.Fatalf("round trip failed after %v, want within [%v, %v + slack]", d, timeout/2, timeout)
	}
}

// TestClientSetTimeoutZeroClearsDeadline: SetTimeout(0) must clear the
// deadline the previous timeout armed, or the connection dies of it later.
func TestClientSetTimeoutZeroClearsDeadline(t *testing.T) {
	_, sock := treeServer(t, Config{})
	cl := dial(t, sock)
	cl.SetTimeout(50 * time.Millisecond)
	if _, _, _, err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	cl.SetTimeout(0)
	time.Sleep(100 * time.Millisecond)
	if _, _, _, err := cl.Health(); err != nil {
		t.Fatalf("request after SetTimeout(0): %v", err)
	}
}

// TestServeLoopAllocFree gates the whole single-row round trip: client
// encode and read, the server's read loop, dispatch, collection and
// response write, over a real unix socket with the server in this
// process. AllocsPerRun counts every goroutine's allocations.
func TestServeLoopAllocFree(t *testing.T) {
	s, sock := startServer(t, Config{})
	if _, err := s.Deploy(KindNN, "m", nnModelBytes(t, 3, 4)); err != nil {
		t.Fatal(err)
	}
	cl := dial(t, sock)
	row := []float64{0.1, -0.2, 0.3, 0.4}
	infer := func() {
		if _, _, err := cl.Infer(row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		infer()
	}
	if a := testing.AllocsPerRun(2000, infer); a != 0 {
		t.Errorf("served round trip allocates %.2f/request, want 0", a)
	}
}
