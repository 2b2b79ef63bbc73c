// Package repro is a from-scratch Go reproduction of "A Machine Learning
// Framework to Improve Storage System Performance" (Akgun, Aydin, Shaikh,
// Velikov, Zadok — HotStorage '21): KML, an ML framework designed to run
// inside an OS, demonstrated on the problem of tuning readahead values.
//
// The library half (internal/kmath, matrix, fixed, stats, ringbuf, memutil,
// nn, dtree) implements KML itself: from-scratch math, multi-precision
// matrices, layers/losses/backprop/SGD, decision trees, a lock-free
// collection ring, model serialization, and memory accounting;
// internal/mserve turns a saved model file into the artifact that the
// daemon serves and the experiments decide with, and internal/olearn
// retrains on a background goroutine. The substrate half (internal/clock,
// blockdev, pagecache, vfs, trace, sstable, kvstore, workload, sim)
// simulates the storage stack the paper evaluates on: NVMe/SATA device
// models on a virtual clock, a Linux-style page cache with on-demand
// readahead, an LSM key-value store standing in for RocksDB, and the six
// db_bench workloads. internal/features, internal/readahead and
// internal/bench implement the paper's case study and regenerate every
// table and figure; see DESIGN.md and EXPERIMENTS.md.
//
// The benchmarks in bench_test.go regenerate each experiment at reduced
// scale; the cmd/kml-* binaries run them at full scale.
package repro
