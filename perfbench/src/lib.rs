//! Seeded, layer-by-layer benchmark of record for the uhacc workspace.
//! See `NOTES.md` beside this crate for the workloads, the metrics and
//! the layer -> metric -> workload predictions.

pub mod closed;
pub mod jobs;
pub mod report;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;

/// Host threads available; every workload's client threads, daemon
/// workers and simulator `host_threads` stay at or below this.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}
