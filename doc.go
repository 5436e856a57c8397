// Package blugpu is a reproduction of "Towards a Hybrid Design for Fast
// Query Processing in DB2 with BLU Acceleration Using Graphical
// Processing Units" (SIGMOD 2016): a BLU-style columnar SQL engine whose
// group-by/aggregation and sort operators execute hybrid across the host
// CPU and a fleet of simulated GPUs, with the paper's memory reservation
// discipline, pinned-memory staging, multi-GPU scheduling, kernel
// moderator, and the full evaluation harness for its tables and figures.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for
// paper-vs-measured results, and the examples/ directory for runnable
// entry points. The library lives under internal/; the public surface is
// the seven binaries: under cmd/, blubench (the paper's experiments),
// blushell (SQL shell), blugen (dataset inspector), bluserve (the
// server), blucheck (its end-to-end checker) and benchdiff (the
// modeled-time gate); and benchmark/, the repository benchmark.
package blugpu
