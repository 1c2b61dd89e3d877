//! # gala-graph — graph substrate for the GALA reproduction
//!
//! This crate provides everything the Louvain layers need from a graph:
//!
//! * a compact weighted undirected [`Graph`] in CSR form ([`csr`]), plus
//!   the [`GraphStore`] owned/mapped seam for binary-loaded graphs,
//! * an accumulating [`builder::GraphBuilder`] (edge list → CSR) and an
//!   out-of-core [`stream::StreamingBuilder`] that spills sorted chunk
//!   runs and k-way-merges them under a fixed memory budget, bit-identical
//!   to the in-memory build,
//! * text / binary IO ([`io`]): a byte-level allocation-free edge-list
//!   parser and an aligned, checksummed binary container,
//! * seeded synthetic generators ([`generators`]): stochastic block models,
//!   R-MAT, LFR-style benchmarks with ground truth, G(n, p), and small test
//!   fixtures,
//! * scaled-down stand-ins for the seven graphs of the paper's Table 2
//!   ([`datasets`]),
//! * the host's one neighbour-community accumulator ([`fold`]), shared by
//!   every Louvain-family pass,
//! * Louvain phase-2 aggregation ([`coarsen`]), and
//! * community-assignment containers ([`partition`]).
//!
//! ## Conventions
//!
//! Graphs are **undirected** and **weighted**. Each edge `{u, v}` with
//! `u != v` appears in both endpoint adjacency lists. A self-loop `{v, v}`
//! appears **once** in `v`'s list, and its stored weight is its *doubled*
//! contribution (the convention used by Grappolo and by Louvain phase-2
//! coarsening, where a super-vertex self-loop carries `D_C(C)`, i.e. every
//! internal edge counted twice). Under this convention:
//!
//! * `d(v)` — the weighted degree — is simply the sum of `v`'s incident
//!   stored weights, and
//! * `2|E| = Σ_v d(v)` holds exactly, which is the normaliser the modularity
//!   formula needs.
//!
//! A graph whose stored weights are all 1.0 (an unweighted input without
//! self-loops or duplicate edges) keeps no per-arc weight array: its rows
//! read their weights from one shared row of ones, so every accessor
//! looks the same and the CSR is a third of the size. Every constructor
//! and loader applies this rule (see [`csr`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod coarsen;
pub mod csr;
pub mod datasets;
pub mod fold;
pub mod generators;
pub mod io;
pub mod metis;
pub mod partition;
pub mod reorder;
pub mod stats;
pub mod stream;
pub mod subgraph;
pub mod traversal;

pub use builder::{EdgeSink, GraphBuilder};
pub use csr::{Graph, GraphStore, MappedGraph, VertexId};
pub use partition::Partition;
pub use stream::StreamingBuilder;
