package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/blackbox"
	"repro/internal/mserve"
)

// daemon starts an in-process server the way kml-served runs one: the
// committed readahead model deployed, a black box wired to a sampler,
// some served traffic and one captured time-series point. It returns
// the socket address.
func daemon(t *testing.T) string {
	t.Helper()
	reg, err := mserve.OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := mserve.NewServer(mserve.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := blackbox.Open(blackbox.Config{Path: filepath.Join(t.TempDir(), "kml.blackbox")})
	if err != nil {
		t.Fatal(err)
	}
	sampler := blackbox.NewSampler(bb, s)
	s.SetBlackboxSource(func(sync bool) mserve.BlackboxStatus {
		if sync {
			sampler.Capture(time.Now().UnixNano())
			_ = bb.FinalFlush()
		}
		return bb.Status()
	})
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := bb.Close(); err != nil {
			t.Errorf("blackbox close: %v", err)
		}
	})

	cl, err := mserve.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	model, err := os.ReadFile("../../testdata/models/readahead.kml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Deploy(mserve.KindNN, "readahead", model); err != nil {
		t.Fatal(err)
	}
	_, _, inDim, err := cl.Health()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := cl.Infer(make([]float64, inDim)); err != nil {
			t.Fatal(err)
		}
	}
	s.TimeSeriesRecorder().Tick(time.Now().UnixNano())
	return ln.Addr().String()
}

// ctl runs one kml-ctl invocation and returns its exit code and output.
func ctl(args ...string) (code int, stdout, stderr string) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestSubcommands(t *testing.T) {
	addr := daemon(t)
	for _, tc := range []struct {
		args  []string
		wants []string
	}{
		{[]string{"status"}, []string{
			"status " + addr + " ", "active_version      1\n", "inferences          3\n",
			"mserve_infer_ns count=3 ", "series  1 points @ ",
			"drift mserve_drift ", "learn state=idle ", "0 retrain events\n", "blackbox ",
		}},
		{[]string{"series"}, []string{"counters mserve_rows ", "\npoint ", "\n1 points\n"}},
		{[]string{"learn"}, []string{"learn state=idle ", "0 retrain events\n"}},
		{[]string{"trace"}, []string{"─ infer", "stage breakdown:", "3 traces shown, 3 complete (3 retained by server)\n"}},
		{[]string{"trace", "-slow", "1h"}, []string{"0 traces shown"}},
		{[]string{"probe", "2"}, []string{"joined client↔server, identical TraceID", "─ wire", "2 probes sent, 2 joined across the wire\n"}},
		{[]string{"postmortem"}, []string{"black box ", "records   ", "\nrows ", "slowest decisions", "traces recovered\n"}},
		{[]string{"postmortem", "-raw"}, []string{"counters mserve_rows ", "\n1 points\n"}},
	} {
		args := append([]string{tc.args[0], "-addr", addr}, tc.args[1:]...)
		code, out, errOut := ctl(args...)
		if code != 0 {
			t.Fatalf("kml-ctl %s: exit %d, stderr %q", strings.Join(tc.args, " "), code, errOut)
		}
		for _, want := range tc.wants {
			if !strings.Contains(out, want) {
				t.Errorf("kml-ctl %s lacks %q:\n%s", strings.Join(tc.args, " "), want, out)
			}
		}
	}
	if code, _, errOut := ctl("probe", "-addr", addr); code != 1 || !strings.Contains(errOut, "probe count") {
		t.Errorf("probe without a count: exit %d, stderr %q", code, errOut)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"status", "-bogus"}} {
		code, out, errOut := ctl(args...)
		if code != 2 || out != "" || !strings.Contains(strings.ToLower(errOut), "usage") {
			t.Errorf("kml-ctl %q: exit %d, stdout %q, stderr %q; want exit 2 with usage", args, code, out, errOut)
		}
	}
	addr := filepath.Join(t.TempDir(), "absent.sock")
	if code, _, errOut := ctl("status", "-addr", addr); code != 1 || errOut == "" {
		t.Errorf("status against no daemon: exit %d, stderr %q; want exit 1 with the error", code, errOut)
	}
}
