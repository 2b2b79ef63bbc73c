// Command kml-served is the model-serving daemon: the user-space stand-in
// for the paper's in-kernel inference engine. It owns a versioned model
// registry on disk, serves single and batched inference over the KML wire
// protocol on a unix or TCP socket, and hot-swaps model versions without
// interrupting traffic (deploy/rollback are registry operations plus one
// atomic pointer swap).
//
// Typical use:
//
//	kml-served -addr /run/kml.sock -registry /var/lib/kml -deploy readahead.kml -name readahead-nn
//	kml-served -addr /run/kml.sock -blackbox /var/lib/kml/kml.blackbox
//
// Operators read a running daemon with kml-ctl (status, top, series,
// trace, probe, learn) over the same socket.
//
// With -blackbox the daemon keeps a durable flight recorder: a
// background flusher samples the observability surfaces (metrics,
// time series, traces, learn transitions) into a fixed-size on-disk
// ring every -blackbox-interval, and a crash — panic, SIGQUIT, even
// kill -9 between flushes — leaves a file `kml-ctl postmortem` can
// reconstruct the final minutes from.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/blackbox"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/memutil"
	"repro/internal/mserve"
	"repro/internal/olearn"
	"repro/internal/readahead"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	var (
		network   = flag.String("network", "unix", "listen network: unix or tcp")
		addr      = flag.String("addr", "kml-served.sock", "listen address (socket path or host:port)")
		registry  = flag.String("registry", "kml-registry", "model registry directory")
		deploy    = flag.String("deploy", "", "model file to deploy at startup (optional)")
		kind      = flag.String("kind", "nn", "model kind for -deploy: nn or dtree")
		name      = flag.String("name", "readahead", "model name for -deploy")
		maxConns  = flag.Int("max-conns", 64, "concurrent connection limit")
		reserveMB = flag.Int("reserve-mb", 0, "memory reservation for admission control (0 = unlimited)")
		debugAddr = flag.String("debug-addr", "", "optional HTTP debug listener (host:port) serving /metrics, /traces, /learn, expvar, pprof")
		tsEvery   = flag.Duration("ts-interval", 0, "metric time-series capture interval for MsgTimeSeries / kml-ctl top (0 = 1s default)")
		simN      = flag.Int("sim", 0, "run N decision windows of the simulated readahead loop against the deployed model before serving (0 = off)")
		simWl     = flag.String("sim-workload", "readseq,readrandom", "comma-separated workload phases for -sim")
		normFile  = flag.String("norm", "", "normalizer file for -sim (training-time stats; baselines the drift monitor)")
		driftWin  = flag.Int("drift-window", 0, "drift-monitor window in decisions/requests (0 = default)")
		olearnOn  = flag.Bool("olearn", false, "run the online-learning controller during -sim: drift-triggered retrain, canary deploy, auto-rollback")
		simPoison = flag.Uint64("sim-poison", 0, "poison retrain cycle N during -sim -olearn (mislabels its examples; exercises the canary rollback)")
		learnMZ   = flag.Int64("learn-budget-mz", 0, "drift-trigger shift budget in milli-z for -olearn (0 = default)")
		coalWin   = flag.Duration("coalesce-window", 0, "cross-connection batch gather window, e.g. 100us (0 = coalescing off)")
		coalMax   = flag.Int("coalesce-max", 0, "max rows gathered into one fused batch (0 = default)")
		bbPath    = flag.String("blackbox", "", "durable flight-recorder file; crash forensics via kml-ctl postmortem (empty = off)")
		bbSize    = flag.Int64("blackbox-size", blackbox.DefaultSize, "flight-recorder ring size in bytes")
		bbEvery   = flag.Duration("blackbox-interval", blackbox.DefaultFlushInterval, "flight-recorder capture+flush period (bounds data loss on a hard kill)")
		bbFsync   = flag.Bool("blackbox-fsync", false, "fsync the flight recorder on every flush (survives power loss, not just process death)")
	)
	flag.Parse()

	reg, err := mserve.OpenRegistry(*registry)
	if err != nil {
		fatal(err)
	}
	cfg := mserve.Config{
		Registry: reg, MaxConns: *maxConns, DriftWindow: *driftWin,
		TimeSeriesInterval: *tsEvery,
		CoalesceWindow:     *coalWin,
		CoalesceMax:        *coalMax,
	}
	if *reserveMB > 0 {
		arena := memutil.NewArena("kml-served")
		arena.Reserve(int64(*reserveMB) << 20)
		cfg.Arena = arena
	}
	srv, err := mserve.NewServer(cfg)
	if err != nil {
		fatal(err)
	}

	// finalFlush is the crash hook: capture one last sample and force it
	// to disk. Nil without -blackbox.
	var bb *blackbox.Recorder
	var finalFlush func()
	if *bbPath != "" {
		bb, err = blackbox.Open(blackbox.Config{
			Path: *bbPath, Size: *bbSize,
			FlushInterval: *bbEvery, FsyncEveryFlush: *bbFsync,
		})
		if err != nil {
			fatal(fmt.Errorf("blackbox: %w", err))
		}
		sampler := blackbox.NewSampler(bb, srv)
		finalFlush = func() {
			sampler.Capture(time.Now().UnixNano())
			_ = bb.FinalFlush()
		}
		bb.Start(sampler.Capture)
		srv.SetBlackboxSource(func(sync bool) mserve.BlackboxStatus {
			if sync {
				finalFlush()
			}
			return bb.Status()
		})
		// Best-effort final capture on a main-goroutine panic (SIGKILL is
		// unhookable — there the periodic flush bounds the loss).
		defer func() {
			if p := recover(); p != nil {
				finalFlush()
				panic(p)
			}
		}()
		st := bb.Status()
		fmt.Printf("blackbox %s (ring %d bytes, flush every %s, %d torn at open)\n",
			st.Path, st.RingBytes, *bbEvery, st.TornAtOpen)
	}

	if *deploy != "" {
		data, err := os.ReadFile(*deploy)
		if err != nil {
			fatal(err)
		}
		k, err := parseKind(*kind)
		if err != nil {
			fatal(err)
		}
		v, err := srv.Deploy(k, *name, data)
		if err != nil {
			fatal(fmt.Errorf("deploy %s: %w", *deploy, err))
		}
		fmt.Printf("deployed %s as version %d\n", *deploy, v.Number)
	}

	if *simN > 0 {
		opts := simOptions{
			windows:  *simN,
			phases:   *simWl,
			normFile: *normFile,
			driftWin: *driftWin,
			olearn:   *olearnOn,
			poison:   *simPoison,
			budgetMZ: *learnMZ,
		}
		if err := runSim(srv, reg, opts); err != nil {
			fatal(fmt.Errorf("sim: %w", err))
		}
	}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(fmt.Errorf("debug listener: %w", err))
		}
		// Print the resolved address so `:0` works in scripts.
		fmt.Printf("debug listening on http://%s\n", dln.Addr())
		mux := telemetry.DebugMux(srv.MetricsRegistry(),
			telemetry.DebugEndpoint{Path: "/traces", Render: func(w io.Writer) error {
				return render.Traces(w, srv.Traces())
			}},
			telemetry.DebugEndpoint{Path: "/learn", Render: func(w io.Writer) error {
				return render.Learn(w, []mserve.LearnStatus{srv.LearnStatus()})
			}},
			telemetry.DebugEndpoint{Path: "/timeseries", Render: func(w io.Writer) error {
				return render.SeriesText(w, srv.TimeSeries())
			}},
		)
		go func() { _ = http.Serve(dln, mux) }()
	}

	if *network == "unix" {
		// A previous unclean shutdown leaves the socket file behind.
		_ = os.Remove(*addr)
	}
	ln, err := net.Listen(*network, *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("kml-served listening on %s %s (registry %s)\n", *network, *addr, *registry)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGQUIT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case sig := <-sigs:
		if sig == syscall.SIGQUIT {
			// Crash path: persist the last window, then hand the signal
			// back to the runtime's default handler for the stack dump.
			if finalFlush != nil {
				finalFlush()
			}
			signal.Reset(syscall.SIGQUIT)
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
			select {} // unreachable: the re-raised SIGQUIT kills us
		}
		fmt.Printf("received %s, draining...\n", sig)
		srv.Shutdown(10 * time.Second)
		if err := <-done; err != nil {
			fatal(err)
		}
	case err := <-done:
		if err != nil {
			fatal(err)
		}
	}
	if bb != nil {
		if finalFlush != nil {
			finalFlush()
		}
		if err := bb.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "blackbox close: %v\n", err)
		}
	}
	st := srv.Stats()
	fmt.Printf("served %d inferences (%d rows), %d deploys\n",
		st.Inferences, st.Rows, st.Deploys)
}

// simOptions parameterizes the boot-time simulated decision loop.
type simOptions struct {
	windows  int
	phases   string
	normFile string
	driftWin int
	olearn   bool   // run the online-learning controller alongside the loop
	poison   uint64 // 1-based retrain cycle to poison (0 = none)
	budgetMZ int64  // drift-trigger shift budget (0 = default)
}

// runSim drives the full simulated decision loop — workload → tracer →
// feature pipeline → deployed model → readahead policy → page cache —
// for opts.windows one-second decision windows, switching workload
// phases along the way. Every decision records an end-to-end trace into
// the server's arena (pullable via MsgTraces) and feeds the readahead
// drift monitor, so a freshly booted daemon has real observability to
// show. With opts.olearn the loop also runs the closed-loop controller
// once per window: drift past budget retrains on recent windows in the
// background, deploys through the server and into the tuner's hot-swap
// Deployment, and the canary rolls back regressions.
func runSim(srv *mserve.Server, reg *mserve.Registry, opts simOptions) error {
	kinds, err := parseWorkloads(opts.phases)
	if err != nil {
		return err
	}
	var norm features.Normalizer
	if opts.normFile != "" {
		f, err := os.Open(opts.normFile)
		if err != nil {
			return err
		}
		norm, err = features.LoadNormalizer(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	active, ok := reg.Active()
	if !ok {
		return fmt.Errorf("no deployed model to simulate against")
	}
	inst, err := reg.Instance(active.Number)
	if err != nil {
		return err
	}
	simCfg := sim.Config{Profile: blockdev.NVMe()}
	var policy readahead.Policy // zero: the device's default
	if opts.olearn {
		// A cache much smaller than the dataset, so readahead decisions —
		// not residency — dominate the hit rate the canary judges by.
		simCfg = sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 128, Seed: 7}
		// Contrast policy: scans get deep readahead, everything else
		// shallow. A model that stops recognizing the running scan starves
		// it from 1 window fills — a regression the hit-rate canary can
		// actually see. Both values sit inside the offline training sweep
		// {8..1024}, so the readahead feature stays in-distribution.
		policy = readahead.Policy{256, 8, 8, 8}
	}
	env, err := sim.NewEnv(simCfg)
	if err != nil {
		return err
	}
	dep := mserve.NewDeployment[core.Classifier](inst, active.Number)
	tuner, err := readahead.NewDeployedTuner(env.Dev, dep, norm, readahead.TunerConfig{Policy: policy, Outcome: env.Cache.HitMissCounts})
	if err != nil {
		return err
	}
	tuner.Instrument(srv.MetricsRegistry())
	drift := tuner.InstrumentDrift(srv.MetricsRegistry(), opts.driftWin)
	tuner.EnableTracing(srv.TraceArena())
	env.Tracer.Register(tuner.Hook())

	var ctl *olearn.Controller
	if opts.olearn {
		ctl, err = olearn.New(olearn.Config{
			Server:      srv,
			Drift:       drift,
			Norm:        norm,
			TunerDeploy: dep,
			Trigger:     olearn.TriggerConfig{ShiftBudgetMilliZ: opts.budgetMZ},
			// Small batches and a small keep-latest ring: a boot-time sim
			// has tens of windows, and recent ones should dominate a retrain.
			Train:           readahead.TrainConfig{Epochs: 120, Batch: 8},
			Capacity:        16,
			MinExamples:     8,
			CanaryWindows:   3,
			BaselineWindows: 4,
		})
		if err != nil {
			return err
		}
		if opts.poison > 0 {
			ctl.PoisonRetrain(opts.poison)
		}
		tuner.SetLearner(ctl)
		srv.SetLearnSource(ctl.Status)
	}

	perPhase := (opts.windows + len(kinds) - 1) / len(kinds)
	tuner.MaybeTick(env.Clk.Now()) // arm the first window
	decided := 0
	for _, k := range kinds {
		runner := env.NewRunner(k)
		for w := 0; w < perPhase && decided < opts.windows; w++ {
			deadline := env.Clk.Now() + 1100*time.Millisecond
			for env.Clk.Now() < deadline {
				for i := 0; i < 16 && env.Clk.Now() < deadline; i++ {
					if err := runner.Step(); err != nil {
						return err
					}
				}
				// Drain the collection ring between step batches
				// (MaybeTick flushes every call but decides once per
				// window) so a deep-readahead event storm cannot
				// overflow it.
				tuner.MaybeTick(env.Clk.Now())
			}
			if ctl != nil {
				ctl.Step()
				if ctl.State() == olearn.StateRetraining && !ctl.Settle(2*time.Minute) {
					return fmt.Errorf("retrain did not settle")
				}
			}
			decided++
		}
	}
	tuner.FlushTrace()
	fmt.Printf("sim: %d decision windows across %s, %d traces retained, hit rate %.3f\n",
		decided, opts.phases, srv.TraceArena().Len(), env.Cache.Stats().HitRate())
	if ctl != nil {
		ctl.Step() // settle a transient committed/rolled-back state
		return render.Learn(os.Stdout, []mserve.LearnStatus{ctl.Status()})
	}
	return nil
}

// parseWorkloads maps comma-separated db_bench names to workload kinds.
func parseWorkloads(s string) ([]workload.Kind, error) {
	var kinds []workload.Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, k := range workload.AllKinds() {
			if k.String() == name {
				kinds = append(kinds, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no workloads in %q", s)
	}
	return kinds, nil
}

func parseKind(s string) (mserve.ModelKind, error) {
	switch s {
	case "nn":
		return mserve.KindNN, nil
	case "dtree":
		return mserve.KindDTree, nil
	}
	return 0, fmt.Errorf("unknown model kind %q (want nn or dtree)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
