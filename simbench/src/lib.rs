//! End-to-end and per-layer benchmark of the TerraDir simulator.
//!
//! See `simbench/README.md` for the workloads, the metrics and what each
//! per-layer metric should move.

pub mod metrics;
pub mod probes;
pub mod run;
pub mod trace;
pub mod workloads;
