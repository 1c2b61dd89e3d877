//! # gala-gpu — a deterministic SIMT GPU simulator
//!
//! The GALA paper's kernel-level contributions are about *where state
//! lives* on a GPU (registers vs. shared memory vs. global memory) and
//! *which warp/block primitives move it*. This crate reproduces that
//! execution model in portable Rust:
//!
//! * [`warp`] — 32-lane warps with the CUDA warp-level primitives the
//!   shuffle kernel issues (`__match_any_sync`, `__reduce_add_sync`,
//!   `__reduce_max_sync`, `__reduce_min_sync`, `__ballot_sync`), implemented
//!   lane-array style with active masks.
//! * [`block`] — thread blocks with a byte-budgeted shared-memory arena.
//! * [`memory`] — per-space access tallies and an explicit latency
//!   [`memory::CostModel`] turning tallies into simulated cycles.
//! * [`grid`] — kernel launch: a work list fanned out over host threads
//!   (rayon), one simulated block/warp per item, tallies reduced at the end.
//! * [`comm`] — multi-device collectives (`AllReduce`, `AllGather`,
//!   `AllToAll`) under a ring α–β cost model, standing in for NCCL over
//!   NVLink.
//! * [`profile`] — named profiling spans attributing tallies, counters and
//!   simulated cycles to phases of a run (zero-cost when disabled).
//!
//! The simulator is *functional + cost-counting*, not cycle-accurate: kernels
//! execute their real algorithm (so results are exact) while every memory
//! access is attributed to a space; the cost model then yields the relative
//! performance shapes the paper reports (Figs 4, 9, 10). Everything is
//! deterministic — no wall-clock, no unseeded randomness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod comm;
pub mod grid;
pub mod memory;
pub mod profile;
pub mod scan;
pub mod sorting;
pub mod warp;

pub use block::SharedMem;
pub use memory::{CostModel, MemTally, Space};
pub use profile::{Profiler, SpanRecord};
pub use warp::{Warp, WARP_SIZE};
