package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/mserve"
	"repro/internal/nn"
)

// serveSpec is one serving workload: an in-process mserve.Server with the
// committed model deployed, and one closed-loop client sending requests of
// rows feature vectors each over a unix socket.
type serveSpec struct {
	name string
	rows int
}

var serveSpecs = []serveSpec{
	{"serve_row", 1},
	{"serve_batch256", batchRows},
}

// serveSize is how much of a serving workload one run does.
type serveSize struct {
	slices int           // measured slices; one more runs first as warm-up
	slice  time.Duration // wall length of a slice
	setups int           // times set-up is repeated; setup_s is the fastest quartile
}

// size cuts the run into 32 slices; each metric is a quartile over them (see
// fastest). At 10 s a slice of serve_batch256 still holds ~1200 requests:
// ten beyond its p99.
func (serveSpec) size(seconds float64) serveSize {
	const slices = 32
	return serveSize{slices: slices, slice: time.Duration(seconds / slices * float64(time.Second)), setups: 15}
}

// served is a booted server and the one client connected to it.
type served struct {
	srv     *mserve.Server
	cl      *mserve.Client
	version uint64
	inDim   int
	done    chan error // Serve's return; nil until the accept loop starts
}

// boot is what a kml-served start pays before its first request: open the
// registry, deploy the model file, listen, and one client dials.
func (r *run) boot(i int) (*served, error) {
	dir := filepath.Join(r.opt.scratch, fmt.Sprintf("boot%d", i))
	data, err := os.ReadFile(filepath.Join(r.opt.modelDir, "readahead.kml"))
	if err != nil {
		return nil, err
	}
	reg, err := mserve.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, err
	}
	srv, err := mserve.NewServer(mserve.Config{Registry: reg})
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv}
	if err := s.start(data, filepath.Join(dir, "s.sock")); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) start(model []byte, sock string) error {
	v, err := s.srv.Deploy(mserve.KindNN, "readahead-nn", model)
	if err != nil {
		return err
	}
	s.version = v.Number
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return err
	}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(ln) }()
	if s.cl, err = mserve.Dial("unix", sock); err != nil {
		return err
	}
	ok, version, inDim, err := s.cl.Health()
	if err != nil {
		return err
	}
	if !ok || version != s.version {
		return fmt.Errorf("server healthy=%v at version %d, deployed %d", ok, version, s.version)
	}
	s.inDim = inDim
	return nil
}

// stop shuts the server down and, if its accept loop was started, waits for
// it to return.
func (s *served) stop() {
	if s.cl != nil {
		_ = s.cl.Close() // nothing more is read from it
	}
	s.srv.Shutdown(5 * time.Second)
	if s.done != nil {
		<-s.done
	}
}

// reference is the in-process copy of the deployed artifact every response
// is checked against.
type reference struct {
	pool    []float64
	classes []int // by pool row, from Instance.Predict
	blocks  []int // by pool row, from Instance.PredictBatch over its block
	inst    *mserve.Instance
}

func newReference(s *served, seed int64) (*reference, error) {
	art, err := s.srv.Registry().ActiveArtifact()
	if err != nil {
		return nil, err
	}
	inst, err := art.Instantiate()
	if err != nil {
		return nil, err
	}
	ref := &reference{pool: featurePool(seed), classes: make([]int, poolVectors), blocks: make([]int, poolVectors), inst: inst}
	for i := range ref.classes {
		ref.classes[i] = inst.Predict(poolRow(ref.pool, i))
	}
	for b := 0; b < poolVectors/batchRows; b++ {
		inst.PredictBatch(poolBlock(ref.pool, b), batchRows, ref.blocks[b*batchRows:(b+1)*batchRows])
	}
	return ref, nil
}

// sliceResult is one slice of the closed loop.
type sliceResult struct {
	lats     []time.Duration // sorted
	wall     time.Duration
	requests uint64
	rows     uint64
	failed   uint64
}

func (s sliceResult) pct(p float64) float64 {
	return float64(s.lats[int(p*float64(len(s.lats)-1))].Nanoseconds()) / 1e3
}

// loop sends requests back to back for d, each after the previous reply,
// and checks every reply against the reference. next is the pool position
// to continue from. With a recorder every traceEvery-th request is a
// client.request span.
func (s *served) loop(spec serveSpec, ref *reference, d time.Duration, next *int, lats []time.Duration, rec *recorder, parent int) (sliceResult, error) {
	res := sliceResult{lats: lats[:0]}
	begin := time.Now()
	for {
		i := *next
		*next++
		id := 0
		if rec != nil && i%traceEvery == 0 {
			id = rec.begin("client.request", parent)
		}
		t0 := time.Now()
		bad := false
		var version uint64
		var err error
		if spec.rows == 1 {
			var class int
			class, version, err = s.cl.Infer(poolRow(ref.pool, i))
			bad = class != ref.classes[i%poolVectors]
		} else {
			var classes []uint16
			classes, version, err = s.cl.BatchInfer(poolBlock(ref.pool, i), spec.rows, s.inDim)
			base := i % (poolVectors / batchRows) * batchRows
			bad = len(classes) != spec.rows
			for j := 0; !bad && j < spec.rows; j++ {
				bad = int(classes[j]) != ref.blocks[base+j]
			}
		}
		t1 := time.Now()
		if id != 0 {
			rec.end(id)
		}
		if err != nil {
			// A transport error leaves the connection unusable.
			return res, fmt.Errorf("request %d: %w", i, err)
		}
		res.requests++
		res.rows += uint64(spec.rows)
		if bad || version != s.version {
			res.failed++
		}
		res.lats = append(res.lats, t1.Sub(t0))
		if t1.Sub(begin) >= d {
			res.wall = t1.Sub(begin)
			break
		}
	}
	sort.Slice(res.lats, func(a, b int) bool { return res.lats[a] < res.lats[b] })
	return res, nil
}

// serveResult is one pass (warm-up slice + measured slices).
type serveResult struct {
	p50, p90, p99, rowsPerS []float64 // per measured slice
	maxUS                   float64
	requests, rows, failed  uint64 // measured slices
	sent                    uint64 // rows sent, warm-up included
	attempted               uint64 // requests sent, warm-up included
	use0, use1              usage
}

func (s *served) pass(spec serveSpec, size serveSize, ref *reference, rec *recorder, parent int) (serveResult, error) {
	var res serveResult
	next := 0
	var lats []time.Duration
	runtime.GC()
	for i := 0; i <= size.slices; i++ {
		if i == 1 {
			var err error
			if res.use0, err = readUsage(); err != nil {
				return res, err
			}
		}
		id := rec.begin("serve.slice", parent)
		sl, err := s.loop(spec, ref, size.slice, &next, lats, rec, id)
		rec.end(id)
		if err != nil {
			return res, err
		}
		lats = sl.lats
		res.sent += sl.rows
		res.attempted += sl.requests
		res.failed += sl.failed
		if i == 0 {
			continue
		}
		res.requests += sl.requests
		res.rows += sl.rows
		res.p50 = append(res.p50, sl.pct(0.50))
		res.p90 = append(res.p90, sl.pct(0.90))
		res.p99 = append(res.p99, sl.pct(0.99))
		res.rowsPerS = append(res.rowsPerS, float64(sl.rows)/sl.wall.Seconds())
		if m := sl.pct(1); m > res.maxUS {
			res.maxUS = m
		}
	}
	var err error
	res.use1, err = readUsage()
	return res, err
}

// runServe measures one serving workload: set-up repeated size.setups
// times, the closed loop against the last server booted, and in a traced run
// a repeat with spans plus the layer loops.
func (r *run) runServe(spec serveSpec, size serveSize) (attempted, failed uint64, err error) {
	// One P: with two, a one-connection ping-pong measures cross-core
	// wake-ups (±20 % run to run) instead of the program.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// One set-up is a boot plus the reference every reply is checked
	// against: the boot alone is a few fsyncs, whose latency is the disk's
	// mood, and the reference gives setup_s a steady CPU-bound share.
	var s *served
	var ref *reference
	var setups []float64
	for i := 0; i < size.setups; i++ {
		if s != nil {
			s.stop()
		}
		start := time.Now()
		if s, err = r.boot(i); err != nil {
			return 0, 0, err
		}
		if ref, err = newReference(s, r.opt.seed); err != nil {
			s.stop()
			return 0, 0, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.stop()
	r.rep.set("setup_s", fastest(setups))
	if s.inDim*poolVectors != len(ref.pool) {
		return 0, 0, fmt.Errorf("deployed model takes %d features, the pool has %d", s.inDim, len(ref.pool)/poolVectors)
	}
	before, err := s.cl.Stats()
	if err != nil {
		return 0, 0, err
	}
	res, err := s.pass(spec, size, ref, nil, 0)
	if err != nil {
		return 0, 0, err
	}
	after, err := s.cl.Stats()
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = res.attempted, res.failed

	rep := r.rep
	rep.set("throughput_per_s", quartile(res.rowsPerS, 0.75)) // a rate: its fast side is the high one
	rep.set("host_us_per_op", fastest(res.p50))
	rep.set("client.lat_p90_us", fastest(res.p90))
	rep.set("client.lat_p99_us", fastest(res.p99))
	rep.set("client.lat_max_us", res.maxUS)
	rep.set("client.requests", float64(res.requests))
	rep.set("mserve.requests", float64(after.Inferences-before.Inferences))
	rep.set("mserve.rows", float64(after.Rows-before.Rows))
	rep.set("mserve.errors", float64(after.Errors-before.Errors))
	rep.set("mserve.collected", float64(after.Collected-before.Collected))
	rep.set("mserve.collect_dropped", float64(after.Dropped-before.Dropped))
	r.setProcess(res.use0, res.use1, res.requests)
	rep.check(after.Rows-before.Rows == res.sent, "server counted %d rows, client sent %d", after.Rows-before.Rows, res.sent)
	rep.check(after.Errors == before.Errors, "server sent %d error responses", after.Errors-before.Errors)
	rep.check(after.ActiveVersion == s.version, "server ended on version %d, deployed %d", after.ActiveVersion, s.version)

	if r.rec != nil {
		traced, err := s.pass(spec, size, ref, r.rec, r.root)
		if err != nil {
			return 0, 0, err
		}
		attempted += traced.attempted
		failed += traced.failed
		rep.set("bench.trace_overhead_share", fastest(traced.p50)/fastest(res.p50)-1)
		if err := r.serveLayers(spec, s, ref); err != nil {
			return 0, 0, err
		}
	}
	rep.check(failed == 0, "%d of %d requests got a wrong class or version", failed, attempted)
	return attempted, failed, nil
}

// serveLayers times the serving path layer by layer: the wire floor (a
// Health round trip carries no model work), the frame and payload codecs at
// this workload's sizes, and the deployed model on its own.
func (r *run) serveLayers(spec serveSpec, s *served, ref *reference) error {
	// Summarized as the request latency is: the median of each round, then
	// the fastest quartile over rounds, so the two can be subtracted.
	id := r.rec.begin("layer.mserve.health_rtt_p50_us", r.root)
	var p50s []float64
	rtts := make([]float64, 512)
	for start := time.Now(); time.Since(start) < r.opt.layerMin; {
		for i := range rtts {
			t0 := time.Now()
			if _, _, _, err := s.cl.Health(); err != nil {
				return err
			}
			rtts[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		p50s = append(p50s, bench.Median(rtts))
	}
	r.rec.end(id)
	rtt := fastest(p50s)
	r.rep.set("mserve.health_rtt_p50_us", rtt)

	row := poolRow(ref.pool, 0)
	block := poolBlock(ref.pool, 0)
	classes16 := make([]uint16, batchRows)
	dst := make([]float64, len(block))
	var req, resp, frame []byte
	var codecErr error
	note := func(err error) {
		if err != nil && codecErr == nil {
			codecErr = err
		}
	}
	const rounds = 1024
	inferCodec := r.layer("mserve.infer_codec_ns", timed(rounds, func() {
		for i := 0; i < rounds; i++ {
			req = mserve.AppendInferReq(req[:0], 0, row)
			_, _, err := mserve.ParseInferReq(req, dst)
			note(err)
			resp = mserve.AppendInferResp(resp[:0], 1, s.version)
			_, _, err = mserve.ParseInferResp(resp)
			note(err)
		}
	}))
	const batchRounds = 16
	batchCodec := r.layer("mserve.batch_codec_ns_per_row", timed(batchRounds*batchRows, func() {
		for i := 0; i < batchRounds; i++ {
			req = mserve.AppendBatchInferReq(req[:0], 0, block, batchRows, s.inDim)
			_, _, _, err := mserve.ParseBatchInferReq(req, dst)
			note(err)
			resp = mserve.AppendBatchInferResp(resp[:0], classes16, s.version)
			_, _, err = mserve.ParseBatchInferResp(resp, classes16)
			note(err)
		}
	}))

	// The frame codec is timed on this workload's own request and response
	// payloads: the checksum makes its cost proportional to their size.
	typ := mserve.MsgBatchInfer
	if spec.rows == 1 {
		typ = mserve.MsgInfer
		req = mserve.AppendInferReq(req[:0], 0, row)
		resp = mserve.AppendInferResp(resp[:0], 1, s.version)
	}
	frameCodec := r.layer("mserve.frame_codec_ns", timed(rounds, func() {
		for i := 0; i < rounds; i++ {
			for _, payload := range [][]byte{req, resp} {
				frame = mserve.AppendFrame(frame[:0], typ, payload)
				_, _, _, err := mserve.DecodeFrame(frame)
				note(err)
			}
		}
	}))
	if codecErr != nil {
		return fmt.Errorf("codec round trip: %w", codecErr)
	}

	predict := r.layer("mserve.predict_ns", timed(rounds, func() {
		for i := 0; i < rounds; i++ {
			sink += ref.inst.Predict(poolRow(ref.pool, i))
		}
	}))
	classes := make([]int, batchRows)
	const blocks = poolVectors / batchRows
	predictBatch := r.layer("mserve.predict_batch256_ns_per_row", timed(blocks*batchRows, func() {
		for i := 0; i < blocks; i++ {
			ref.inst.PredictBatch(poolBlock(ref.pool, i), batchRows, classes)
		}
	}))

	net, err := nn.LoadFile(filepath.Join(r.opt.modelDir, "readahead.kml"))
	if err != nil {
		return err
	}
	if err := r.nnLayers(net, ref.pool); err != nil {
		return err
	}

	payloadNS, modelNS := inferCodec, predict
	if spec.rows > 1 {
		payloadNS, modelNS = batchCodec*float64(spec.rows), predictBatch*float64(spec.rows)
	}
	r.rep.set("serve.unattributed_us", r.rep.get("host_us_per_op")-rtt-(frameCodec+payloadNS+modelNS)/1e3)
	return nil
}
