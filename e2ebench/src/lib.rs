//! End-to-end benchmark of the IFAQ workspace.
//!
//! One binary, two steps per run. `gen` writes a seeded `IFAQTBL1` star
//! export for a workload; `run` starts cold in a fresh process, loads
//! that export through the program's own entry points, measures the
//! workload for a fixed time, checks every output against computations
//! the benchmark makes itself, and prints one JSON result line. With
//! `--trace 1` the same workload is replayed stage by stage through each
//! layer's public functions and per-layer metrics are printed instead.
//! `run.py` drives both steps; README.md describes the workloads and
//! metrics.

pub mod check;
pub mod data;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
