//! Section 5.6's capacity check, in two acts.
//!
//! **Fidelity act** (unchanged series): the largest stand-in the simulator
//! can afford — a uk-2007-flavoured power-law SBM, two orders of magnitude
//! below the paper's uk-2007-02 — through single-device and 8-device
//! simulated phase 1.
//!
//! **Capacity act** (out-of-core): a [`CommunityStream`] graph with
//! ≥ 200 M directed arcs at full scale — the paper's *scale*, minus its
//! hardware — ingested by the streaming spill-and-merge builder under an
//! enforced chunk budget (`GALA_STRESS_BUDGET_MB`, default 1024), then
//! clustered: native-backend phase 1 followed by the 8-device partitioned
//! contraction. Peak RSS per phase comes from the gala-telemetry procfs
//! probe, and the run **fails** (exit 1) if the ingest phase's peak
//! exceeds budget + output CSR + slack — the out-of-core contract is a
//! hard promise here, not a printed number.
//!
//! ```sh
//! cargo run --release -p gala-bench --bin stress_large -- --report results/BENCH_stress.json
//! ```

use gala_bench::{eng, new_report, time, BenchArgs, Table};
use gala_core::backend::BackendKind;
use gala_core::louvain::{Louvain, LouvainConfig};
use gala_core::mg_contract::contract_partitioned;
use gala_core::multi_gpu::SyncMode;
use gala_gpu::profile::Profiler;
use gala_graph::coarsen::CoarsenScratch;
use gala_graph::generators::sbm::PowerLawSbm;
use gala_graph::generators::stream::CommunityStream;
use gala_graph::stats::GraphStats;
use gala_graph::stream::StreamingBuilder;
use gala_graph::Graph;
use gala_telemetry::mem::{mib, rss_bytes, PhasePeak};
use gala_telemetry::recorder::{self, ProgressLimiter, ProgressSnapshot};
use gala_telemetry::MetricRow;
use std::time::Duration;

/// Devices the partitioned contraction runs on (the paper's A100 count).
const CONTRACT_DEVICES: usize = 8;

/// Slack allowed on top of budget + output CSR before the ingest phase's
/// peak RSS fails the run: covers the merge accumulator's transient
/// (counts + pre-dedup output headroom) and procfs granularity.
const BUDGET_SLACK_FRACTION: f64 = 0.35;
const BUDGET_SLACK_FLOOR_BYTES: u64 = 256 << 20;

/// The streaming chunk budget: `GALA_STRESS_BUDGET_MB` or 1 GiB.
fn budget_bytes(test_scale: bool) -> usize {
    match std::env::var("GALA_STRESS_BUDGET_MB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(mb) => mb << 20,
        None if test_scale => 4 << 20,
        None => 1024 << 20,
    }
}

/// Resident bytes of the finished CSR (offsets + targets + weights +
/// per-vertex weighted degrees) — the part of the ingest peak that is
/// output, not working set.
fn csr_bytes(g: &Graph) -> u64 {
    let n = g.num_vertices() as u64;
    let arcs = g.num_arcs() as u64;
    (n + 1) * 8 + arcs * 4 + arcs * 8 + n * 8
}

fn main() {
    let args = BenchArgs::parse();
    let test_scale = matches!(std::env::var("GALA_SCALE").as_deref(), Ok("test"));
    let mut report = new_report("stress_large");

    // ---- act 1: simulated fidelity at the simulator's comfort scale ----
    let n = if test_scale { 20_000 } else { 200_000 };
    println!("generating uk-2007-flavoured stand-in (n = {n})...");
    let (gt, gen_time) = time(|| {
        PowerLawSbm {
            num_vertices: n,
            min_community: 10,
            max_community: 800,
            size_exponent: 1.8,
            internal_degree: 16.0,
            mixing: 0.01,
        }
        .generate(0x2007)
    });
    let g = gt.graph;
    let s = GraphStats::compute(&g);
    println!(
        "generated in {:.1}s: {} vertices, {} edges, max degree {}\n",
        gen_time.as_secs_f64(),
        s.num_vertices,
        s.num_edges,
        s.max_degree
    );

    let ((state, stats), wall) = time(|| Louvain::new(LouvainConfig::paper()).run_phase1(&g));
    println!(
        "GALA phase 1 (single device): {:.2}s wall, {} supersteps, Q = {:.5}, {} communities",
        wall.as_secs_f64(),
        stats.iterations.len(),
        stats.modularity,
        state.partition().num_communities()
    );

    let ((_, multi), wall) = time(|| {
        Louvain::new(LouvainConfig {
            devices: 8,
            sync: SyncMode::Adaptive,
            ..LouvainConfig::paper()
        })
        .run_phase1(&g)
    });
    println!(
        "GALA phase 1 (8 simulated devices): {:.2}s host wall, modelled {:.0} us \
         ({:.0} compute + {:.0} comm), Q = {:.5}",
        wall.as_secs_f64(),
        multi.total_us(),
        multi.compute_us(),
        multi.comm_us(),
        multi.modularity
    );
    report.push(
        MetricRow::new("graph")
            .metric("vertices", s.num_vertices as f64)
            .metric("edges", s.num_edges as f64)
            .metric("max_degree", s.max_degree as f64),
    );
    report.push(
        MetricRow::new("single_device")
            .metric("supersteps", stats.iterations.len() as f64)
            .metric("modularity", stats.modularity)
            .metric("communities", state.partition().num_communities() as f64),
    );
    report.push(
        MetricRow::new("multi_8dev")
            .metric("total_us", multi.total_us())
            .metric("compute_us", multi.compute_us())
            .metric("comm_us", multi.comm_us())
            .metric("modularity", multi.modularity),
    );
    drop((state, g));

    // ---- act 2: out-of-core capacity at the paper's arc scale ----------
    // The capacity act runs for minutes at full scale, so it heartbeats:
    // every driver's progress snapshots reach a plain status line on
    // stderr (at most one every 2 s), a watchdog flags a superstep that
    // stalls for over a minute, and GALA_LOG turns on ring logging for
    // the crash dump a panic would leave behind.
    recorder::init_from_env();
    let mut print_gate = ProgressLimiter::new(Duration::from_secs(2));
    recorder::set_progress_callback(Box::new(move |snap| {
        if print_gate.ready() {
            eprintln!("{}", snap.render_line());
        }
    }));
    recorder::arm_watchdog(Duration::from_secs(60));
    recorder::install_panic_hook(recorder::Manifest::with_cmdline().entry("bench", "stress_large"));

    let stream = CommunityStream {
        num_vertices: if test_scale { 100_000 } else { 12_000_000 },
        community_size: 64,
        intra: 7,
        chords: 2,
        seed: 0x5712E55,
    };
    let budget = budget_bytes(test_scale);
    println!(
        "\nout-of-core act: streaming ~{} arcs (n = {}) under a {} MiB chunk budget...",
        eng(2.0 * stream.max_edges() as f64),
        stream.num_vertices,
        budget >> 20
    );

    let ingest_probe = PhasePeak::begin();
    let ((big, spilled_runs, spilled_bytes), ingest_wall) = time(|| {
        // Forward the builder's spill/merge reports to the recorder as
        // progress snapshots: every report beats the watchdog, a bounded
        // subset becomes status lines.
        let mut fwd = ProgressLimiter::default_cadence();
        let mut b = StreamingBuilder::with_budget_bytes(stream.num_vertices, budget).on_progress(
            Box::new(move |p| {
                recorder::heartbeat(&format!("ingest/{}", p.phase));
                if !fwd.ready() {
                    return;
                }
                recorder::observe_progress(&ProgressSnapshot {
                    driver: "stress-ingest".to_string(),
                    round: 0,
                    phase: p.phase.to_string(),
                    superstep: p.runs as u32,
                    modularity: 0.0,
                    active_frac: 0.0,
                    moved_frac: 0.0,
                    arcs: p.arcs,
                    rss_bytes: rss_bytes().unwrap_or(0),
                });
            }),
        );
        b.extend_unweighted(stream.edges());
        let (runs, bytes) = (b.spilled_runs(), b.spilled_bytes());
        (b.finish().expect("streaming ingest failed"), runs, bytes)
    });
    let ingest_peak = ingest_probe.end();
    let arcs = big.num_arcs() as u64;
    let arcs_per_s = arcs as f64 / ingest_wall.as_secs_f64().max(1e-9);
    let out_bytes = csr_bytes(&big);
    println!(
        "ingested {} arcs in {:.1}s ({} arcs/s, {} runs, {:.0} MiB spilled) -> CSR {:.0} MiB",
        eng(arcs as f64),
        ingest_wall.as_secs_f64(),
        eng(arcs_per_s),
        spilled_runs,
        mib(spilled_bytes),
        mib(out_bytes),
    );

    // The enforced budget: ingest peak must stay within chunk budget +
    // the CSR it produces + bounded slack.
    let slack = ((out_bytes as f64 * BUDGET_SLACK_FRACTION) as u64).max(BUDGET_SLACK_FLOOR_BYTES);
    let allowed = budget as u64 + out_bytes + slack;
    match ingest_peak {
        Some(peak) => {
            println!(
                "ingest peak RSS {:.0} MiB (allowed {:.0} MiB = budget {} MiB + CSR {:.0} MiB + slack)",
                mib(peak),
                mib(allowed),
                budget >> 20,
                mib(out_bytes),
            );
            if peak > allowed {
                eprintln!(
                    "BUDGET EXCEEDED: ingest peak {:.0} MiB over the allowed {:.0} MiB",
                    mib(peak),
                    mib(allowed)
                );
                std::process::exit(1);
            }
        }
        None => println!("ingest peak RSS unavailable (no procfs); budget not enforceable"),
    }

    let phase1_probe = PhasePeak::begin();
    let ((big_state, big_stats), phase1_wall) = time(|| {
        Louvain::new(LouvainConfig {
            backend: BackendKind::Native,
            ..LouvainConfig::paper()
        })
        .run_phase1(&big)
    });
    let phase1_peak = phase1_probe.end();
    println!(
        "native phase 1: {:.1}s wall, {} supersteps, Q = {:.5}, {} communities",
        phase1_wall.as_secs_f64(),
        big_stats.iterations.len(),
        big_stats.modularity,
        big_state.partition().num_communities()
    );

    let mut prof = Profiler::new();
    let mut scratch = CoarsenScratch::default();
    let ((coarse, cstats), contract_wall) = time(|| {
        contract_partitioned(
            &big,
            &big_state.partition(),
            &LouvainConfig {
                devices: CONTRACT_DEVICES,
                backend: BackendKind::Native,
                ..LouvainConfig::paper()
            },
            BackendKind::Native.resolve(),
            &mut prof,
            &mut scratch,
        )
    });
    println!(
        "partitioned contraction ({} devices): {:.1}s wall, {} rows, mode {}, \
         {} ghost members, exchange {:.1} MiB",
        cstats.devices,
        contract_wall.as_secs_f64(),
        cstats.rows,
        cstats.mode,
        cstats.ghost_members,
        mib(cstats.exchange_bytes),
    );

    let mut ingest_table = Table::new(&[
        "Phase",
        "Arcs",
        "Wall s",
        "Arcs/s",
        "Peak MiB",
        "Runs",
        "Spill MiB",
    ]);
    ingest_table.row(vec![
        "ingest".into(),
        arcs.to_string(),
        format!("{:.1}", ingest_wall.as_secs_f64()),
        format!("{arcs_per_s:.0}"),
        ingest_peak.map_or("n/a".into(), |p| format!("{:.0}", mib(p))),
        spilled_runs.to_string(),
        format!("{:.0}", mib(spilled_bytes)),
    ]);
    ingest_table.row(vec![
        "phase1".into(),
        arcs.to_string(),
        format!("{:.1}", phase1_wall.as_secs_f64()),
        format!("{:.0}", arcs as f64 / phase1_wall.as_secs_f64().max(1e-9)),
        phase1_peak.map_or("n/a".into(), |p| format!("{:.0}", mib(p))),
        "0".into(),
        "0".into(),
    ]);
    println!();
    ingest_table.print();
    ingest_table.add_to_report(&mut report, "outofcore");

    report.push(
        MetricRow::new("outofcore/graph")
            .metric("vertices", big.num_vertices() as f64)
            .metric("arcs", arcs as f64)
            .metric("budget_mib", (budget >> 20) as f64)
            .metric("csr_mib", mib(out_bytes)),
    );
    report.push(
        MetricRow::new("outofcore/phase1")
            .metric("supersteps", big_stats.iterations.len() as f64)
            .metric("modularity", big_stats.modularity)
            .metric(
                "communities",
                big_state.partition().num_communities() as f64,
            ),
    );
    report.push(
        MetricRow::new("outofcore/contract")
            .metric("devices", cstats.devices as f64)
            .metric("rows", cstats.rows as f64)
            .metric("ghost_members", cstats.ghost_members as f64)
            .metric("exchange_mib", mib(cstats.exchange_bytes))
            .metric("wall_s", contract_wall.as_secs_f64())
            .metric("coarse_vertices", coarse.graph.num_vertices() as f64),
    );

    recorder::disarm_watchdog();
    recorder::clear_progress_callback();

    args.write_report(&report);
    println!("\npaper: uk-2007-02 (3.4B edges) phase 1 in 43 s on 8 A100s.");
}
