// Package repro is a from-scratch Go reproduction of "Mahimahi: A
// Lightweight Toolkit for Reproducible Web Measurement" (Netravali et al.,
// SIGCOMM 2014).
//
// See README.md for the architecture overview, DESIGN.md for the system
// inventory and substitution notes, and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure. The root-level
// benchmarks (bench_test.go) regenerate each artifact:
//
//	go test -bench=. -benchmem
//
// The cmd/ directory holds the command-line tools (mm-record, mm-replay,
// mm-delay, mm-link, mm-trace, mm-bench); examples/ holds runnable
// walkthroughs of the public API: experiments.Load replays and measures a
// page load (internal/experiments), and internal/core records one.
package repro
