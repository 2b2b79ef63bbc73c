// Package mserve is the model-serving subsystem: it turns the KML library
// into a servable system by closing the deployment loop the paper describes
// in §3.3 — "the user can save the model to a file that has a KML-specific
// file format" in the training environment and load the identical artifact
// in the serving environment, without retraining.
//
// The package has three layers:
//
//   - registry.go — a versioned, content-addressed store of serialized KML
//     models (the nn KMLF format and the dtree format), with CRC and
//     content-hash validation on every load, an append-only manifest, and
//     an activation stack supporting rollback. A loaded Artifact is parsed
//     once into the form it is served in — networks compiled to the float32
//     kernel, the float64 training graph never on the request path — and
//     every connection's Instance shares those parameters;
//   - deploy.go — Deployment[T], the atomic hot-swap handle. Readers
//     (server connections, readahead.Tuner, the fixed-point inference
//     path) dereference the current model with a single atomic pointer
//     load, so deploying a new version never stalls the per-event hot
//     path and never drops a collection event;
//   - frame.go / protocol.go / server.go / client.go — a stdlib-only
//     binary wire protocol (length-prefixed, CRC-protected, versioned
//     frames) and a TCP/unix-socket server exposing Infer, BatchInfer,
//     Stats, Health and the status surfaces, with per-connection deadlines,
//     a connection limit, admission control charged to a memutil.Arena,
//     and graceful drain on shutdown.
//
// cmd/kml-served wraps the server as a daemon and cmd/kml-loadgen drives
// open-loop load against it; the repo benchmark's serve_* workloads
// (benchmark/serve.go) measure closed-loop request latency against the
// paper's 21 µs single-inference figure.
package mserve
