// Command kml-ctl is the operator console for a running kml-served and
// for the black-box file a dead one leaves behind. Every subcommand
// prints through internal/render, so a fact reads the same live, on
// kml-served's debug pages, and after a crash.
//
// Typical use:
//
//	kml-ctl status -addr /run/kml.sock             # stats, latency, series, drift, learn, black box
//	kml-ctl top -addr /run/kml.sock                # status, redrawn every -interval
//	kml-ctl series -addr /run/kml.sock             # the captured time series as integers
//	kml-ctl trace -addr /run/kml.sock -slow 5us    # span trees; -id, -class, -since, -slow filter
//	kml-ctl probe -addr /run/kml.sock 3            # traced probes, joined client↔server trees
//	kml-ctl learn -addr /run/kml.sock              # online-learning state and retrain history
//	kml-ctl postmortem kml.blackbox                # forensic report from a black-box file
//	kml-ctl postmortem -addr /run/kml.sock         # live: sync the daemon's box, then report it
//	kml-ctl postmortem -raw -last 30s kml.blackbox # the box's merged series as integers
//
// Every subcommand takes -network (unix or tcp) and -addr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/blackbox"
	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/render"
)

const usage = `usage: kml-ctl <subcommand> [flags] [args]
  status                                daemon stats, latency, series, drift, learn, black box
  top [-interval D]                     status, redrawn until interrupted
  series                                the captured time series as integers
  trace [-id N] [-class C] [-since D] [-slow D]
  probe N                               send N traced probes, print the joined trees
  learn                                 online-learning state and retrain history
  postmortem [-last D] [-traces N] [-raw] [FILE]
every subcommand takes -network and -addr; "kml-ctl <subcommand> -h" lists its flags
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// opts holds the parsed flags and positional arguments of a subcommand.
type opts struct {
	network, addr               string
	interval, since, slow, last time.Duration
	id                          uint64
	class, traces               int
	raw                         bool
	args                        []string
	cl                          *mserve.Client // nil for the postmortem of a named file
}

// run executes one subcommand and returns the exit code: 0 done, 1
// failed, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fs := flag.NewFlagSet("kml-ctl "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o opts
	fs.StringVar(&o.network, "network", "unix", "daemon network: unix or tcp")
	fs.StringVar(&o.addr, "addr", "kml-served.sock", "daemon address (socket path or host:port)")
	var sub func(*opts, io.Writer) error
	switch args[0] {
	case "status":
		sub = status
	case "top":
		fs.DurationVar(&o.interval, "interval", time.Second, "refresh period")
		sub = top
	case "series":
		sub = series
	case "trace":
		fs.Uint64Var(&o.id, "id", 0, "show only the trace with this ID (0 = all)")
		fs.IntVar(&o.class, "class", -1, "show only decisions for this class (-1 = all)")
		fs.DurationVar(&o.since, "since", 0, "show only traces started within this window (0 = all)")
		fs.DurationVar(&o.slow, "slow", 0, "show only traces at least this long end to end (0 = all)")
		sub = trace
	case "probe":
		sub = probe
	case "learn":
		sub = learn
	case "postmortem":
		fs.DurationVar(&o.last, "last", 0, "report only records from the final window of this length (0 = all)")
		fs.IntVar(&o.traces, "traces", 5, "decision-trace trees to print per section (slowest, last)")
		fs.BoolVar(&o.raw, "raw", false, "print the box's merged time series as integers instead of the report")
		sub = postmortem
	default:
		fmt.Fprintf(stderr, "kml-ctl: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	o.args = fs.Args()
	var err error
	if args[0] != "postmortem" || len(o.args) == 0 {
		if o.cl, err = mserve.Dial(o.network, o.addr); err == nil {
			defer o.cl.Close()
		}
	}
	if err == nil {
		err = sub(&o, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "kml-ctl %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

func status(o *opts, w io.Writer) error {
	l, err := live(o.cl, o.addr)
	if err != nil {
		return err
	}
	render.Status(w, &l)
	return nil
}

func top(o *opts, w io.Writer) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)
	tick := time.NewTicker(o.interval)
	defer tick.Stop()
	for {
		l, err := live(o.cl, o.addr)
		if err != nil {
			return err
		}
		fmt.Fprint(w, "\x1b[2J\x1b[H")
		render.Status(w, &l)
		select {
		case <-sigs:
			return nil
		case <-tick.C:
		}
	}
}

// live pulls one round of every status surface.
func live(cl *mserve.Client, addr string) (l render.Live, err error) {
	l.Addr, l.Time = addr, time.Now()
	if l.Metrics, err = cl.Metrics(); err != nil {
		return l, err
	}
	if l.Series, err = cl.TimeSeries(); err != nil {
		return l, err
	}
	if l.Learn, err = cl.LearnStatus(); err != nil {
		return l, err
	}
	l.Blackbox, err = cl.Blackbox(false)
	return l, err
}

func series(o *opts, w io.Writer) error {
	ts, err := o.cl.TimeSeries()
	if err != nil {
		return err
	}
	return render.SeriesText(w, ts)
}

func trace(o *opts, w io.Writer) error {
	traces, err := o.cl.Traces()
	if err != nil {
		return err
	}
	var cutoff int64
	if o.since > 0 {
		cutoff = time.Now().Add(-o.since).UnixNano()
	}
	shown := make([]dtrace.Trace, 0, len(traces))
	for _, tr := range traces {
		root := tr.Root()
		if (o.id != 0 && tr.ID != dtrace.TraceID(o.id)) ||
			(o.class >= 0 && root.Value != int64(o.class)) ||
			root.Start < cutoff ||
			(o.slow > 0 && root.Duration() < int64(o.slow)) {
			continue
		}
		shown = append(shown, tr)
	}
	render.TraceReport(w, shown, len(traces))
	return nil
}

// probe exercises cross-process trace propagation live: n zero-feature
// inferences, each stamping its TraceID into the request frame, then
// the server's retained traces joined with the client's by that ID.
func probe(o *opts, w io.Writer) error {
	n := 0
	if len(o.args) == 1 {
		n, _ = strconv.Atoi(o.args[0])
	}
	if n <= 0 {
		return errors.New("want one positive probe count, e.g. probe 3")
	}
	cl := o.cl
	arena := dtrace.NewArena(n)
	cl.EnableTracing(arena)
	ok, version, inDim, err := cl.Health()
	if err != nil {
		return err
	}
	if !ok || inDim <= 0 {
		return fmt.Errorf("no model deployed to probe (healthy=%v inDim=%d)", ok, inDim)
	}
	feats := make([]float64, inDim)
	for i := 0; i < n; i++ {
		if _, _, err := cl.Infer(feats); err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
	}
	server, err := cl.Traces()
	if err != nil {
		return err
	}
	if joined := render.Probe(w, arena.Snapshot(), server, version); joined < n {
		return fmt.Errorf("%d of %d probes did not join", n-joined, n)
	}
	return nil
}

func learn(o *opts, w io.Writer) error {
	st, err := o.cl.LearnStatus()
	if err != nil {
		return err
	}
	return render.Learn(w, []mserve.LearnStatus{st})
}

// postmortem reports a black-box file. With no FILE it asks the daemon
// at -addr to capture and fsync its box first (MsgBlackbox sync), then
// reads the file the daemon names: the bytes a post-crash scan would see.
func postmortem(o *opts, w io.Writer) error {
	if len(o.args) > 1 {
		return errors.New("want at most one black-box file")
	}
	var path string
	if len(o.args) == 1 {
		path = o.args[0]
	} else {
		st, err := o.cl.Blackbox(true)
		if err != nil {
			return err
		}
		if !st.Enabled {
			return fmt.Errorf("daemon at %s has no black box", o.addr)
		}
		path = st.Path
	}
	scan, err := blackbox.ScanFile(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	recs := scan.Records
	if o.last > 0 && len(recs) > 0 {
		var newest int64
		for _, r := range recs {
			newest = max(newest, r.TimeNanos)
		}
		kept := recs[:0:0]
		for _, r := range recs {
			if r.TimeNanos >= newest-int64(o.last) {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if o.raw {
		ts, _ := blackbox.MergeTimeSeries(recs)
		return render.SeriesText(w, ts)
	}
	render.Postmortem(w, path, scan, recs, o.traces)
	return nil
}
