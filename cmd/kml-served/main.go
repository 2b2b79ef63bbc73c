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
//	kml-served -addr /run/kml.sock -status
//
// With -blackbox the daemon keeps a durable flight recorder: a
// background flusher samples the observability surfaces (metrics,
// time series, traces, learn transitions) into a fixed-size on-disk
// ring every -blackbox-interval, and a crash — panic, SIGQUIT, even
// kill -9 between flushes — leaves a file kml-postmortem can
// reconstruct the final minutes from.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
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
		status    = flag.Bool("status", false, "query a running daemon's stats and exit")
		debugAddr = flag.String("debug-addr", "", "optional HTTP debug listener (host:port) serving /metrics, /traces, /learn, expvar, pprof")
		tsEvery   = flag.Duration("ts-interval", 0, "metric time-series capture interval for MsgTimeSeries / kml-top (0 = 1s default)")
		simN      = flag.Int("sim", 0, "run N decision windows of the simulated readahead loop against the deployed model before serving (0 = off)")
		simWl     = flag.String("sim-workload", "readseq,readrandom", "comma-separated workload phases for -sim")
		normFile  = flag.String("norm", "", "normalizer file for -sim (training-time stats; baselines the drift monitor)")
		driftWin  = flag.Int("drift-window", 0, "drift-monitor window in decisions/requests (0 = default)")
		olearnOn  = flag.Bool("olearn", false, "run the online-learning controller during -sim: drift-triggered retrain, canary deploy, auto-rollback")
		simPoison = flag.Uint64("sim-poison", 0, "poison retrain cycle N during -sim -olearn (mislabels its examples; exercises the canary rollback)")
		learnMZ   = flag.Int64("learn-budget-mz", 0, "drift-trigger shift budget in milli-z for -olearn (0 = default)")
		coalWin   = flag.Duration("coalesce-window", 0, "cross-connection batch gather window, e.g. 100us (0 = coalescing off)")
		coalMax   = flag.Int("coalesce-max", 0, "max rows gathered into one fused batch (0 = default)")
		bbPath    = flag.String("blackbox", "", "durable flight-recorder file; crash forensics via kml-postmortem (empty = off)")
		bbSize    = flag.Int64("blackbox-size", blackbox.DefaultSize, "flight-recorder ring size in bytes")
		bbEvery   = flag.Duration("blackbox-interval", blackbox.DefaultFlushInterval, "flight-recorder capture+flush period (bounds data loss on a hard kill)")
		bbFsync   = flag.Bool("blackbox-fsync", false, "fsync the flight recorder on every flush (survives power loss, not just process death)")
	)
	flag.Parse()

	if *status {
		os.Exit(printStatus(*network, *addr))
	}

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
		// Capture runs from the recorder's flusher goroutine, the sync
		// opcode's connection goroutine, and the crash hooks; the sampler
		// keeps cursors, so serialize it.
		var capMu sync.Mutex
		capture := func(now int64) {
			capMu.Lock()
			sampler.Capture(now)
			capMu.Unlock()
		}
		finalFlush = func() {
			capture(time.Now().UnixNano())
			_ = bb.FinalFlush()
		}
		bb.Start(capture)
		srv.SetBlackboxSource(func(sync bool) mserve.BlackboxStatus {
			if sync {
				finalFlush()
			}
			st := bb.Status()
			return mserve.BlackboxStatus{
				Enabled: true, Records: st.Records, Dropped: st.Dropped,
				Flushes: st.Flushes, RingBytes: st.RingBytes,
				TornAtOpen: st.TornAtOpen, LastFlushNanos: st.LastFlushNanos,
				Path: bb.Path(),
			}
		})
		// Best-effort final capture on a main-goroutine panic (SIGKILL is
		// unhookable — there the periodic flush bounds the loss).
		defer func() {
			if p := recover(); p != nil {
				finalFlush()
				panic(p)
			}
		}()
		fmt.Printf("blackbox %s (ring %d bytes, flush every %s, %d torn at open)\n",
			bb.Path(), bb.RingBytes(), *bbEvery, bb.Status().TornAtOpen)
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
			telemetry.DebugEndpoint{Path: "/traces", Render: srv.WriteTraces},
			telemetry.DebugEndpoint{Path: "/learn", Render: srv.WriteLearn},
			telemetry.DebugEndpoint{Path: "/timeseries", Render: srv.WriteTimeSeries},
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
	fmt.Printf("served %d inferences (%d rows), %d deploys, %d dropped events\n",
		st.Inferences, st.Rows, st.Deploys, st.Dropped)
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
// show. With opts.olearn the loop also runs the closed-loop controller:
// drift past budget retrains on recent windows in the background,
// deploys through the server, and the canary rolls back regressions.
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
	if opts.olearn {
		return runSimOnline(srv, reg, kinds, norm, opts)
	}
	art, err := reg.ActiveArtifact()
	if err != nil {
		return fmt.Errorf("no deployed model to simulate against: %w", err)
	}
	inst, err := art.Instantiate()
	if err != nil {
		return err
	}
	env, err := sim.NewEnv(sim.Config{Profile: blockdev.NVMe()})
	if err != nil {
		return err
	}
	tuner, err := readahead.NewTuner(env.Dev, inst, norm, readahead.TunerConfig{Outcome: env.Cache.HitMissCounts})
	if err != nil {
		return err
	}
	tuner.Instrument(srv.MetricsRegistry(), 64)
	tuner.InstrumentDrift(srv.MetricsRegistry(), opts.driftWin)
	tuner.EnableTracing(srv.TraceArena())
	env.Tracer.Register(tuner.Hook())

	perPhase := (opts.windows + len(kinds) - 1) / len(kinds)
	tuner.MaybeTick(env.Clk.Now()) // arm the first window
	decided := 0
	for _, k := range kinds {
		runner := env.NewRunner(k)
		for w := 0; w < perPhase && decided < opts.windows; w++ {
			deadline := env.Clk.Now() + 1100*time.Millisecond
			for env.Clk.Now() < deadline {
				if err := runner.Step(); err != nil {
					return err
				}
			}
			tuner.MaybeTick(env.Clk.Now())
			decided++
		}
	}
	tuner.FlushTrace()
	fmt.Printf("sim: %d decision windows across %s, %d traces retained, hit rate %.3f\n",
		decided, opts.phases, srv.TraceArena().Len(), env.Cache.Stats().HitRate())
	return nil
}

// runSimOnline is the -olearn variant of runSim: the tuner follows a
// hot-swap Deployment the controller keeps in lockstep with the server's
// registry, so a drift-triggered retrain visibly changes the loop's
// decisions (and a poisoned one visibly regresses and rolls back).
func runSimOnline(srv *mserve.Server, reg *mserve.Registry, kinds []workload.Kind, norm features.Normalizer, opts simOptions) error {
	active, ok := reg.Active()
	if !ok {
		return fmt.Errorf("no deployed model to simulate against")
	}
	inst, err := reg.Instance(active.Number)
	if err != nil {
		return err
	}
	// A cache much smaller than the dataset, so readahead decisions —
	// not residency — dominate the hit rate the canary judges by.
	env, err := sim.NewEnv(sim.Config{Profile: blockdev.NVMe(), Keys: 6000, CachePages: 128, Seed: 7})
	if err != nil {
		return err
	}
	dep := mserve.NewDeployment[core.Classifier](inst, active.Number)
	// Contrast policy: scans get deep readahead, everything else shallow.
	// A model that stops recognizing the running scan starves it from 1
	// window fills — a regression the hit-rate canary can actually see.
	// Both values sit inside the offline training sweep {8..1024}, so
	// the readahead feature stays in-distribution either way.
	policy := readahead.Policy{256, 8, 8, 8}
	tuner, err := readahead.NewDeployedTuner(env.Dev, dep, norm, readahead.TunerConfig{Policy: policy, Outcome: env.Cache.HitMissCounts})
	if err != nil {
		return err
	}
	tuner.Instrument(srv.MetricsRegistry(), 64)
	drift := tuner.InstrumentDrift(srv.MetricsRegistry(), opts.driftWin)
	tuner.EnableTracing(srv.TraceArena())
	env.Tracer.Register(tuner.Hook())

	ctl, err := olearn.New(olearn.Config{
		Server:      srv,
		Drift:       drift,
		Norm:        norm,
		TunerDeploy: dep,
		Trigger:     olearn.TriggerConfig{ShiftBudgetMilliZ: opts.budgetMZ},
		// Small batches and a small keep-latest ring: a boot-time sim has
		// tens of windows, and recent ones should dominate a retrain.
		Train:           readahead.TrainConfig{Epochs: 120, Batch: 8},
		Capacity:        16,
		MinExamples:     8,
		CanaryWindows:   3,
		BaselineWindows: 4,
		Metrics:         srv.MetricsRegistry(),
	})
	if err != nil {
		return err
	}
	if opts.poison > 0 {
		ctl.PoisonRetrain(opts.poison)
	}
	tuner.SetLearner(ctl)
	srv.SetLearnSource(ctl.Status)

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
			ctl.Step()
			if ctl.State() == olearn.StateRetraining && !ctl.Settle(2*time.Minute) {
				return fmt.Errorf("retrain did not settle")
			}
			decided++
		}
	}
	tuner.FlushTrace()
	ctl.Step() // settle a transient committed/rolled-back state
	st := ctl.Status()
	fmt.Printf("sim: %d decision windows across %s, %d traces retained, hit rate %.3f\n",
		decided, opts.phases, srv.TraceArena().Len(), env.Cache.Stats().HitRate())
	fmt.Printf("olearn: state=%s retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d v%d\n",
		mserve.LearnStateName(st.State), st.Retrains, st.Deploys, st.Commits, st.Rollbacks,
		st.TriggerFires, st.LastVersion)
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

func printStatus(network, addr string) int {
	cl, err := mserve.Dial(network, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("active_version      %d\n", st.ActiveVersion)
	fmt.Printf("deploys             %d\n", st.Deploys)
	fmt.Printf("rollbacks           %d\n", st.Rollbacks)
	fmt.Printf("inferences          %d\n", st.Inferences)
	fmt.Printf("rows                %d\n", st.Rows)
	fmt.Printf("errors              %d\n", st.Errors)
	fmt.Printf("conns               %d/%d\n", st.Conns, st.MaxConns)
	fmt.Printf("conn_rejects        %d\n", st.ConnRejects)
	fmt.Printf("arena_rejects       %d\n", st.ArenaRejects)
	fmt.Printf("collected           %d\n", st.Collected)
	fmt.Printf("processed           %d\n", st.Processed)
	fmt.Printf("dropped             %d\n", st.Dropped)
	fmt.Printf("buffer              %d/%d\n", st.BufferLen, st.BufferCap)
	fmt.Printf("arena_live_bytes    %d\n", st.ArenaLive)
	fmt.Printf("arena_peak_bytes    %d\n", st.ArenaPeak)
	fmt.Printf("coalesce_window_ns  %d\n", st.CoalesceWindowNS)
	fmt.Printf("coalesce_max        %d\n", st.CoalesceMaxRows)
	fmt.Printf("coalesce_batches    %d\n", st.CoalesceBatches)
	fmt.Printf("coalesce_rows       %d\n", st.CoalesceRows)
	fmt.Printf("coalesce_mean_batch %.2f\n", st.CoalesceMeanBatch())

	// The richer telemetry surface: latency percentiles per request type
	// and the flight recorder's last served decisions.
	snap, err := cl.Metrics()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, m := range snap.Metrics {
		if m.Kind != mserve.MetricHistogram || m.Hist.Count == 0 {
			continue
		}
		fmt.Printf("%s count=%d p50=%dns p95=%dns p99=%dns\n",
			m.Name, m.Hist.Count,
			m.Hist.Quantile(0.50), m.Hist.Quantile(0.95), m.Hist.Quantile(0.99))
	}
	for _, d := range snap.Decisions {
		fmt.Printf("decision t=%d class=%d rows=%d v%d\n", d.TimeNanos, d.Class, d.Rows, d.Version)
	}
	printDriftSummary(snap)
	printLearnStatus(cl)
	printBlackboxStatus(cl)
	return 0
}

// printBlackboxStatus renders the flight recorder's line, when one is
// attached (a daemon without -blackbox reports the disabled zero value).
func printBlackboxStatus(cl *mserve.Client) {
	st, err := cl.Blackbox(false)
	if err != nil || !st.Enabled {
		return
	}
	fmt.Printf("blackbox %s ring=%d records=%d dropped=%d flushes=%d torn_at_open=%d last_flush=%s\n",
		st.Path, st.RingBytes, st.Records, st.Dropped, st.Flushes, st.TornAtOpen,
		time.Unix(0, st.LastFlushNanos).UTC().Format("15:04:05.000"))
}

// printLearnStatus renders the online-learning controller snapshot, when
// one is wired in (a daemon without -olearn reports the idle zero value).
func printLearnStatus(cl *mserve.Client) {
	st, err := cl.LearnStatus()
	if err != nil {
		// Daemons predating MsgLearnStatus simply lack the surface.
		return
	}
	fmt.Printf("learn state=%s retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d examples=%d v%d baseline=%dpm canary=%dpm\n",
		mserve.LearnStateName(st.State), st.Retrains, st.Deploys, st.Commits, st.Rollbacks,
		st.TriggerFires, st.Examples, st.LastVersion, st.BaselinePM, st.CanaryPM)
	for _, e := range st.Events {
		fmt.Printf("retrain v%d %s examples=%d train=%s baseline=%dpm canary=%dpm shift=%+.2fz churn=%dpm\n",
			e.Version, mserve.RetrainOutcomeName(e.Outcome), e.Examples,
			time.Duration(e.DurationNanos).Round(time.Millisecond),
			e.BaselinePM, e.CanaryPM, float64(e.MaxShiftMZ)/1000, e.ChurnPM)
	}
}

// printDriftSummary condenses the drift gauges (registered under
// mserve_drift for the serving path, readahead_drift for a -sim tuner)
// into one line per monitor: max population shift in z, prediction
// churn, windows completed, and whether the shift threshold tripped.
func printDriftSummary(snap mserve.MetricsSnapshot) {
	byName := make(map[string]int64, len(snap.Metrics))
	for _, m := range snap.Metrics {
		if m.Kind != mserve.MetricHistogram {
			byName[m.Name] = m.Value
		}
	}
	for _, prefix := range []string{"mserve_drift", "readahead_drift"} {
		windows, ok := byName[prefix+"_windows"]
		if !ok {
			continue
		}
		state := "ok"
		if byName[prefix+"_drifted"] != 0 {
			state = "DRIFTED"
		}
		fmt.Printf("drift %-15s %s max_shift=%+.2fz churn=%dpm windows=%d decisions=%d\n",
			prefix, state,
			float64(byName[prefix+"_max_shift_mz"])/1000,
			byName[prefix+"_churn_pm"], windows, byName[prefix+"_decisions"])
	}
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
