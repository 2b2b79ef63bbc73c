// Command kml-trace pulls decision traces from a running kml-served and
// renders them as span trees with per-stage latency breakdowns — the
// operator's answer to "what did the model decide, how long did each
// stage take, and did it help?".
//
// Typical use:
//
//	kml-trace -addr /run/kml.sock                 # everything retained
//	kml-trace -addr /run/kml.sock -class 2        # decisions for class 2
//	kml-trace -addr /run/kml.sock -slow 5us       # slow decisions only
//	kml-trace -addr /run/kml.sock -since 10s      # recent decisions only
//	kml-trace -addr /run/kml.sock -id 42          # one trace by ID
//	kml-trace -addr /run/kml.sock -learn          # retrain history instead of traces
//	kml-trace -addr /run/kml.sock -probe 3        # send traced probes, render the
//	                                              # joined client→wire→server tree
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/dtrace"
	"repro/internal/mserve"
	"repro/internal/render"
)

func main() {
	var (
		network = flag.String("network", "unix", "server network: unix or tcp")
		addr    = flag.String("addr", "kml-served.sock", "server address (socket path or host:port)")
		id      = flag.Uint64("id", 0, "show only the trace with this ID (0 = all)")
		class   = flag.Int("class", -1, "show only decisions for this class (-1 = all)")
		since   = flag.Duration("since", 0, "show only traces started within this window (0 = all)")
		slow    = flag.Duration("slow", 0, "show only traces at least this long end to end (0 = all)")
		learn   = flag.Bool("learn", false, "show the online-learning controller's retrain history instead of traces")
		probe   = flag.Int("probe", 0, "send N traced probe inferences and render the joined client→server trace trees")
	)
	flag.Parse()

	cl, err := mserve.Dial(*network, *addr)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	if *learn {
		printLearn(cl)
		return
	}
	if *probe > 0 {
		runProbe(cl, *probe)
		return
	}
	traces, err := cl.Traces()
	if err != nil {
		fatal(err)
	}

	shown, complete := 0, 0
	byStage := make(map[dtrace.Stage][]int64)
	cutoff := int64(0)
	if *since > 0 {
		cutoff = time.Now().Add(-*since).UnixNano()
	}
	for i := range traces {
		tr := &traces[i]
		root := tr.Root()
		if *id != 0 && tr.ID != dtrace.TraceID(*id) {
			continue
		}
		if *class >= 0 && root.Value != int64(*class) {
			continue
		}
		if cutoff != 0 && root.Start < cutoff {
			continue
		}
		if *slow > 0 && root.Duration() < int64(*slow) {
			continue
		}
		render.Trace(os.Stdout, tr)
		shown++
		if tr.Complete() {
			complete++
		}
		for _, sp := range tr.Used() {
			byStage[sp.Stage] = append(byStage[sp.Stage], sp.Duration())
		}
	}
	printBreakdown(byStage)
	fmt.Printf("%d traces shown, %d complete (%d retained by server)\n",
		shown, complete, len(traces))
}

// runProbe exercises cross-process trace propagation live: it enables
// client-side tracing, sends n zero-feature probe inferences (each
// stamping its TraceID into the request frame), pulls the server's
// retained traces back, and renders each probe as ONE joined tree — the
// client's encode/wire/parse spans with the server's queue→parse→infer→
// encode subtree nested inside the wire span, matched by the identical
// TraceID recorded on both sides of the connection.
func runProbe(cl *mserve.Client, n int) {
	arena := dtrace.NewArena(n)
	cl.EnableTracing(arena)
	ok, version, inDim, err := cl.Health()
	if err != nil {
		fatal(err)
	}
	if !ok || inDim <= 0 {
		fatal(fmt.Errorf("no model deployed to probe (healthy=%v inDim=%d)", ok, inDim))
	}
	feats := make([]float64, inDim)
	for i := 0; i < n; i++ {
		if _, _, err := cl.Infer(feats); err != nil {
			fatal(fmt.Errorf("probe %d: %w", i, err))
		}
	}
	server, err := cl.Traces()
	if err != nil {
		fatal(err)
	}
	byID := make(map[dtrace.TraceID]*dtrace.Trace, len(server))
	for i := range server {
		byID[server[i].ID] = &server[i]
	}

	joined := 0
	for _, ctr := range arena.Snapshot() {
		root := ctr.Root()
		srv := byID[ctr.ID]
		tag := "client only (server did not retain the trace)"
		if srv != nil {
			tag = "joined client↔server, identical TraceID"
			joined++
		}
		fmt.Printf("trace %d  %s  %s  v%d  %s\n",
			ctr.ID, time.Unix(0, root.Start).Format("15:04:05.000000"),
			render.Dur(root.Duration()), version, tag)
		spans := ctr.Used()
		for si := 1; si < len(spans); si++ {
			sp := spans[si]
			conn := "├─"
			if si == len(spans)-1 {
				conn = "└─"
			}
			fmt.Printf("  %s %-10s %8s  %s\n", conn, sp.Stage, render.Dur(sp.Duration()), render.SpanDetail(sp))
			if sp.Stage == dtrace.StageWire && srv != nil {
				sroot := srv.Root()
				fmt.Printf("  │   └─ %-10s %8s  server  %s\n",
					"server", render.Dur(sroot.Duration()), render.SpanDetail(*sroot))
				sspans := srv.Used()
				for ssi := 1; ssi < len(sspans); ssi++ {
					sconn := "├─"
					if ssi == len(sspans)-1 {
						sconn = "└─"
					}
					fmt.Printf("  │      %s %-10s %8s  %s\n",
						sconn, sspans[ssi].Stage, render.Dur(sspans[ssi].Duration()), render.SpanDetail(sspans[ssi]))
				}
			}
		}
	}
	fmt.Printf("%d probes sent, %d joined across the wire\n", n, joined)
	if joined < n {
		os.Exit(1)
	}
}

// printLearn renders the MsgLearnStatus surface: the controller's live
// counters plus one line per retrain cycle in its flight recorder.
func printLearn(cl *mserve.Client) {
	st, err := cl.LearnStatus()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("learn state=%s retrains=%d deploys=%d commits=%d rollbacks=%d fires=%d examples=%d v%d\n",
		mserve.LearnStateName(st.State), st.Retrains, st.Deploys, st.Commits,
		st.Rollbacks, st.TriggerFires, st.Examples, st.LastVersion)
	for _, e := range st.Events {
		fmt.Printf("retrain v%-3d %s  %s  examples=%d train=%s baseline=%dpm canary=%dpm shift=%+.2fz churn=%dpm\n",
			e.Version, time.Unix(0, int64(e.TimeNanos)).Format("15:04:05.000"),
			mserve.RetrainOutcomeName(e.Outcome), e.Examples,
			time.Duration(e.DurationNanos).Round(time.Millisecond),
			e.BaselinePM, e.CanaryPM, float64(e.MaxShiftMZ)/1000, e.ChurnPM)
	}
	fmt.Printf("%d retrain events\n", len(st.Events))
}

// printBreakdown summarizes per-stage latency over the shown traces.
func printBreakdown(byStage map[dtrace.Stage][]int64) {
	stages := make([]dtrace.Stage, 0, len(byStage))
	for st := range byStage {
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		return
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i] < stages[j] })
	fmt.Println("stage breakdown:")
	for _, st := range stages {
		ds := byStage[st]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum int64
		for _, d := range ds {
			sum += d
		}
		fmt.Printf("  %-10s n=%-5d p50=%-10s max=%-10s total=%s\n",
			st, len(ds), render.Dur(ds[len(ds)/2]), render.Dur(ds[len(ds)-1]), render.Dur(sum))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
