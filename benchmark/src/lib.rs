//! `wsd-benchmark`: one end-to-end benchmark for the threaded runtime,
//! the durable mailbox and the simulator, with a per-layer budget
//! measured from outside. See `README.md` for what each workload and
//! metric means and `BENCHMARK.json` (repository root) for the contract.
//!
//! The benchmark drives only public API of the `wsd-*` crates and adds
//! no code to them: spans are recorded around the harness's own calls,
//! layer costs come from replaying a workload's bytes through each
//! layer's public functions.

#![warn(missing_docs)]

pub mod alloc_count;
pub mod catalog;
pub mod gen;
pub mod handoff;
pub mod harness;
pub mod procfs;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod topology;
pub mod workloads;
