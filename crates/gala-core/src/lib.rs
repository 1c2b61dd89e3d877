//! # gala-core — the GALA algorithm (PPoPP '25) on the simulated GPU
//!
//! Implements the paper's contribution on top of the `gala-graph` and
//! `gala-gpu` substrates:
//!
//! * [`modularity`] — modularity `Q` (Eq. 1) and the move-gain `ΔQ` (Eq. 2)
//!   under the extraction convention.
//! * [`state`] — the BSP iteration state of Algorithm 1 (community ids,
//!   per-vertex community weight `d_{C[v]}(v)`, per-community totals).
//! * [`pruning`] — the four unmoved-vertex predictors (SM, RM, PM, MG) plus
//!   MG+RM and the no-pruning baseline, with FNR/FPR instrumentation.
//! * [`weight`] — naive vs. delta community-weight maintenance (Sec. 3.5).
//! * [`kernels`] — DecideAndMove kernels: CPU reference, warp shuffle-based
//!   (Alg. 2), block hash-based (Alg. 3) with global-only / unified /
//!   hierarchical hashtables, and a cuGraph-style sort-based baseline.
//! * [`louvain`] — the BSP phase-1 loop, phase-2 coarsening, and the
//!   multi-round driver with Grappolo's convergence heuristics, at any
//!   simulated device count.
//! * [`backend`] — the execution-backend seam: the simulated-GPU substrate
//!   (cycle accounting) and the native host substrate (wall-clock timing)
//!   behind one trait, guaranteed assignment-identical.
//! * [`sequential`] — the classic sequential Louvain baseline (Blondel),
//!   owning the one sequential local-moving sweep [`leiden`] shares.
//! * [`grappolo`] — the Grappolo CPU parallel baseline: the [`louvain`]
//!   driver under `LouvainConfig::grappolo()`.
//! * [`multi_gpu`] — the device layer of the [`louvain`] loop: the
//!   per-range decide split and the adaptive dense/sparse sync cost model
//!   a run with `devices > 1` adds (Sec. 4.3); [`mg_contract`] is its
//!   per-device phase-2 contraction.
//! * [`metrics`] — NMI and partition-quality statistics.
//! * [`observe`] — the one observer every driver reports through: trace
//!   sink, run-level profiler, per-round metrics and live progress behind
//!   a single enabled-check. Each driver has a plain entry point and an
//!   observed `*_with` twin taking an [`observe::Obs`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod consensus;
pub mod grappolo;
pub mod hierarchy;
pub mod kernels;
pub mod label_prop;
pub mod leiden;
pub mod louvain;
pub mod metrics;
pub mod mg_contract;
pub mod modularity;
pub mod multi_gpu;
pub mod observe;
pub mod pruning;
pub mod sequential;
pub mod state;
pub mod validation;
pub mod weight;
