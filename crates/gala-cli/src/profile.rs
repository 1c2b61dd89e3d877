//! `gala profile`: sim↔native cost attribution from paired traces.
//!
//! Loads the schema-4 `profile` events of two trace files — one produced
//! by the simulated backend (component cycle charges) and one by the
//! native backend (wall nanoseconds) — joins them span-by-span through
//! [`Attribution`], and renders a roofline-style table: per kernel, the
//! predicted-cycle component stack, arithmetic/memory intensity, and the
//! calibration residual against the fitted clock. Kernels more than 2σ
//! from the fleet mean are flagged.
//!
//! Events are dispatched by their `unit` field, not by which file they
//! came from: a Leiden sim trace legitimately mixes host-`ns` phase-1
//! events with sim-`cycles` contract events, and only the cycle-charged
//! side feeds the sim accumulator. `--write-calibration` persists the fit
//! as a [`Calibration`]; `--gate` compares a fresh profile against a
//! stored one and exits non-zero on drift, closing the loop the ROADMAP's
//! cost-model calibration item asks for.
//!
//! Every renderer returns a `String` so tests can pin output; [`run`]
//! only adds printing and file IO.

use crate::analyze::{chrome_counter, chrome_meta, chrome_slice, CYCLES_PER_US};
use crate::args::ProfileArgs;
use crate::commands::Error;
use gala_gpu::memory::COMPONENT_NAMES;
use gala_telemetry::{
    json, read_trace, Attribution, AttributionReport, Calibration, MetricRow, PhaseProfile, Report,
    TraceEvent,
};

/// Streams one trace file through [`read_trace`], keeping only its
/// `profile` events.
fn load_profiles(path: &str) -> Result<Vec<PhaseProfile>, Error> {
    let mut profiles = Vec::new();
    read_trace(path, |event| {
        if let TraceEvent::Profile(p) = event {
            if p.unit != "cycles" && p.unit != "ns" {
                return Err(format!("unknown profile unit `{}`", p.unit));
            }
            profiles.push(p);
        }
        Ok(())
    })?;
    if profiles.is_empty() {
        return Err(format!(
            "{path}: no profile events (trace written by a pre-schema-4 build? \
             re-run `gala detect --trace` with this build)"
        )
        .into());
    }
    Ok(profiles)
}

/// Feeds one file's profile events into the join, dispatching on `unit`.
fn feed(attr: &mut Attribution, profiles: &[PhaseProfile]) {
    for p in profiles {
        if p.unit == "cycles" {
            attr.add_sim(&p.spans);
        } else {
            attr.add_native(&p.spans);
        }
    }
}

/// Kernel rows in display order: heaviest predicted cycles first, path as
/// the deterministic tiebreak.
fn display_rows(report: &AttributionReport) -> Vec<&gala_telemetry::KernelResidual> {
    let mut rows: Vec<_> = report.kernels.iter().collect();
    rows.sort_by(|a, b| {
        b.sim_cycles
            .partial_cmp(&a.sim_cycles)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    rows
}

/// The compact `name 61.0%` stack of a kernel's non-zero components.
fn component_stack(row: &gala_telemetry::KernelResidual) -> String {
    let total = row.sim_cycles.max(f64::MIN_POSITIVE);
    COMPONENT_NAMES
        .into_iter()
        .filter_map(|name| {
            let charge = row.components.get(name).unwrap_or(0.0);
            (charge > 0.0).then(|| format!("{name} {:.1}%", 100.0 * charge / total))
        })
        .collect::<Vec<_>>()
        .join(" | ")
}

/// Full report text: header, roofline table, component stacks, suggested
/// calibrated scales.
fn render_report(
    sim_path: &str,
    native_path: &str,
    sim: &[PhaseProfile],
    native: &[PhaseProfile],
    report: &AttributionReport,
    top: usize,
) -> String {
    let flagged = report.kernels.iter().filter(|k| k.flagged).count();
    let mut out = format!(
        "profile: {sim_path} ({} profile events) vs {native_path} ({} profile events)\n",
        sim.len(),
        native.len()
    );
    out.push_str(&format!(
        "fitted clock {:.4} cycles/ns | mean residual {:.4} | sigma {:.4} | \
         {} kernels ({flagged} flagged)\n\n",
        report.clock_cycles_per_ns,
        report.mean_residual,
        report.stddev_residual,
        report.kernels.len(),
    ));
    let rows = display_rows(report);
    let shown = rows.len().min(top.max(1));
    let width = rows[..shown]
        .iter()
        .map(|r| r.path.len())
        .max()
        .unwrap_or(6)
        .max(6);
    out.push_str(&format!(
        "  {:<width$} {:>6} {:>14} {:>14} {:>7} {:>6} {:>6}\n",
        "kernel", "inv", "sim cyc", "native ns", "resid", "ai%", "mem%"
    ));
    for r in &rows[..shown] {
        out.push_str(&format!(
            "  {:<width$} {:>6} {:>14.0} {:>14.0} {:>7.3} {:>6.1} {:>6.1}{}\n",
            r.path,
            r.invocations,
            r.sim_cycles,
            r.native_ns,
            r.residual,
            100.0 * r.arithmetic_intensity(),
            100.0 * r.memory_intensity(),
            if r.flagged { "  FLAGGED" } else { "" },
        ));
    }
    out.push_str("\ncomponent stacks (% of predicted cycles)\n");
    for r in &rows[..shown] {
        out.push_str(&format!("  {:<width$} {}\n", r.path, component_stack(r)));
    }
    let [compute, shared_mem, global_mem, atomics, scan_sort] = report.suggested_scales();
    out.push_str(&format!(
        "\nsuggested CostModel::calibrated scales: compute {compute:.4} | \
         shared_mem {shared_mem:.4} | global_mem {global_mem:.4} | \
         atomics {atomics:.4} | scan_sort {scan_sort:.4}\n"
    ));
    out
}

/// The machine-readable report (`--report`): one `kernel/<path>` row per
/// joined kernel plus a `calibration` summary row, in the bench-report
/// schema so `gala trend` can ingest residual series.
fn build_report(args: &ProfileArgs, report: &AttributionReport) -> Report {
    let mut doc = Report::new("profile", "gala profile")
        .meta("sim_trace", args.sim_trace.as_str())
        .meta("native_trace", args.native_trace.as_str());
    doc.push(
        MetricRow::new("calibration")
            .metric("clock_cycles_per_ns", report.clock_cycles_per_ns)
            .metric("mean_residual", report.mean_residual)
            .metric("stddev_residual", report.stddev_residual)
            .metric("kernels", report.kernels.len() as f64)
            .metric(
                "flagged",
                report.kernels.iter().filter(|k| k.flagged).count() as f64,
            ),
    );
    for k in &report.kernels {
        let mut row = MetricRow::new(format!("kernel/{}", k.path))
            .metric("invocations", k.invocations as f64)
            .metric("sim_cycles", k.sim_cycles)
            .metric("native_ns", k.native_ns)
            .metric("residual", k.residual)
            .metric("arithmetic_intensity", k.arithmetic_intensity())
            .metric("memory_intensity", k.memory_intensity());
        for name in COMPONENT_NAMES {
            row = row.metric(name, k.components.get(name).unwrap_or(0.0));
        }
        doc.push(row);
    }
    doc
}

/// Chrome Trace Event export: one "X" slice per kernel (duration from
/// predicted cycles) and one "C" counter track per cost component, laid
/// out sequentially in display order. Loadable in Perfetto.
fn chrome_trace(report: &AttributionReport) -> json::Value {
    let mut events = vec![
        chrome_meta("process_name", 0, "gala profile (sim vs native)"),
        chrome_meta("thread_name", 0, "kernels"),
    ];
    let mut cursor = 0.0_f64;
    for r in display_rows(report) {
        let dur = r.sim_cycles / CYCLES_PER_US;
        events.push(
            chrome_slice(&r.path, cursor, dur, 0).set(
                "args",
                json::Value::object()
                    .set("residual", r.residual)
                    .set("native_ns", r.native_ns),
            ),
        );
        for name in COMPONENT_NAMES {
            let value = r.components.get(name).unwrap_or(0.0);
            events.push(chrome_counter(&format!("cost/{name}"), cursor, value));
        }
        cursor += dur;
    }
    json::Value::object().set("traceEvents", json::Value::Array(events))
}

/// Executes the `profile` subcommand. Gate failures surface as a
/// non-zero exit through the caller.
pub fn run(args: &ProfileArgs) -> Result<(), Error> {
    let sim = load_profiles(&args.sim_trace)?;
    let native = load_profiles(&args.native_trace)?;
    let mut attr = Attribution::new();
    feed(&mut attr, &sim);
    feed(&mut attr, &native);
    let report = attr.resolve().ok_or_else(|| {
        format!(
            "{} and {} share no joinable kernel: the native trace's measurement \
             points never land on a cycle-charged sim span (same graph and \
             config on both backends?)",
            args.sim_trace, args.native_trace
        )
    })?;
    print!(
        "{}",
        render_report(
            &args.sim_trace,
            &args.native_trace,
            &sim,
            &native,
            &report,
            args.top
        )
    );
    if let Some(out) = &args.chrome_trace {
        let doc = chrome_trace(&report);
        std::fs::write(out, doc.render()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote component tracks to {out} (open in https://ui.perfetto.dev)");
    }
    if let Some(out) = &args.report {
        build_report(args, &report).write_to(out)?;
        println!("wrote profile report to {out}");
    }
    if let Some(out) = &args.write_calibration {
        let calibration = Calibration::from_report(&report);
        std::fs::write(out, calibration.to_json().render()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote calibration to {out}");
    }
    if let Some(path) = &args.gate {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let calibration = Calibration::from_json(&doc).map_err(|e| format!("{path}: {e}"))?;
        let problems = calibration.drift(&report, args.threshold);
        if !problems.is_empty() {
            return Err(format!(
                "calibration gate failed ({} problem(s) at tolerance {:.1}%):\n  {}",
                problems.len(),
                args.threshold * 100.0,
                problems.join("\n  ")
            )
            .into());
        }
        println!(
            "gate ok: {} kernels within {:.1}% of {path}",
            report.kernels.len(),
            args.threshold * 100.0
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gala_core::backend::BackendKind;
    use gala_core::louvain::{Louvain, LouvainConfig};
    use gala_core::observe::Obs;
    use gala_graph::generators::fixtures;
    use gala_telemetry::{JsonlSink, SCHEMA_VERSION};

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("gala_profile_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    /// Runs the Louvain driver on one backend and writes its trace.
    fn write_trace(name: &str, backend: BackendKind) -> String {
        let g = fixtures::ring_of_cliques(6, 5);
        let mut sink = JsonlSink::new(Vec::new());
        Louvain::new(LouvainConfig {
            backend,
            ..LouvainConfig::default()
        })
        .run_with(&g, &mut Obs::traced(&mut sink));
        let path = format!("{}.jsonl", tmp(name));
        std::fs::write(&path, sink.into_inner()).unwrap();
        path
    }

    fn paired(name: &str) -> (String, String) {
        (
            write_trace(&format!("{name}_sim"), BackendKind::Sim),
            write_trace(&format!("{name}_native"), BackendKind::Native),
        )
    }

    fn base_args(sim: &str, native: &str) -> ProfileArgs {
        ProfileArgs {
            sim_trace: sim.to_string(),
            native_trace: native.to_string(),
            top: 16,
            report: None,
            chrome_trace: None,
            write_calibration: None,
            gate: None,
            threshold: 0.25,
        }
    }

    fn resolve(
        sim: &str,
        native: &str,
    ) -> (Vec<PhaseProfile>, Vec<PhaseProfile>, AttributionReport) {
        let s = load_profiles(sim).unwrap();
        let n = load_profiles(native).unwrap();
        let mut attr = Attribution::new();
        feed(&mut attr, &s);
        feed(&mut attr, &n);
        let report = attr.resolve().unwrap();
        (s, n, report)
    }

    #[test]
    fn joins_real_backend_pair_and_renders() {
        let (sim, native) = paired("join");
        let (s, n, report) = resolve(&sim, &native);
        assert!(s.iter().all(|p| p.unit == "cycles"));
        assert!(n.iter().all(|p| p.unit == "ns"));
        // The default workload-aware kernel anchors at the decide scope,
        // and phase 2 yields a contract row.
        assert!(
            report.kernels.iter().any(|k| k.path.contains("decide")),
            "{:?}",
            report.kernels.iter().map(|k| &k.path).collect::<Vec<_>>()
        );
        assert!(report.kernels.iter().any(|k| k.path.contains("contract")));
        for k in &report.kernels {
            assert!(k.sim_cycles > 0.0 && k.native_ns > 0.0);
            let intensity = k.arithmetic_intensity() + k.memory_intensity();
            assert!((0.0..=1.0 + 1e-9).contains(&intensity), "{}", k.path);
        }
        let text = render_report(&sim, &native, &s, &n, &report, 16);
        for needle in [
            "fitted clock",
            "kernel",
            "resid",
            "component stacks",
            "suggested CostModel::calibrated scales",
            "decide",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        for p in [sim, native] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn end_to_end_writes_report_calibration_and_chrome_trace() {
        let (sim, native) = paired("e2e");
        let report_path = format!("{}.json", tmp("e2e_report"));
        let cal_path = format!("{}.json", tmp("e2e_cal"));
        let chrome_path = format!("{}.json", tmp("e2e_chrome"));
        let mut args = base_args(&sim, &native);
        args.report = Some(report_path.clone());
        args.write_calibration = Some(cal_path.clone());
        args.chrome_trace = Some(chrome_path.clone());
        run(&args).unwrap();

        let report = Report::read_from(&report_path).unwrap();
        assert_eq!(report.kind, "profile");
        let cal_row = report.row("calibration").unwrap();
        assert!(cal_row.get("clock_cycles_per_ns").unwrap() > 0.0);
        let kernel_rows: Vec<_> = report
            .rows
            .iter()
            .filter(|r| r.label.starts_with("kernel/"))
            .collect();
        assert!(!kernel_rows.is_empty());
        for row in kernel_rows {
            assert!(row.get("residual").unwrap() > 0.0);
            let parts: f64 = COMPONENT_NAMES
                .into_iter()
                .map(|n| row.get(n).unwrap())
                .sum();
            let total = row.get("sim_cycles").unwrap();
            assert!(
                (parts - total).abs() <= total * 1e-9,
                "{}: components {parts} vs cycles {total}",
                row.label
            );
        }

        let doc = json::parse(&std::fs::read_to_string(&chrome_path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let has = |ph: &str| {
            events
                .iter()
                .any(|e| e.get("ph").and_then(json::Value::as_str) == Some(ph))
        };
        assert!(has("X") && has("C") && has("M"));
        assert!(events.iter().any(|e| {
            e.get("name").and_then(json::Value::as_str) == Some("cost/global_coalesced")
        }));

        // A freshly-written calibration gates its own report cleanly.
        let mut gated = base_args(&sim, &native);
        gated.gate = Some(cal_path.clone());
        run(&gated).unwrap();

        for p in [sim, native, report_path, cal_path, chrome_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn gate_fails_on_drifted_calibration() {
        let (sim, native) = paired("gate");
        let (_, _, report) = resolve(&sim, &native);
        let mut calibration = Calibration::from_report(&report);
        for r in calibration.residuals.values_mut() {
            *r *= 2.0;
        }
        let cal_path = format!("{}.json", tmp("gate_cal"));
        std::fs::write(&cal_path, calibration.to_json().render()).unwrap();
        let mut args = base_args(&sim, &native);
        args.gate = Some(cal_path.clone());
        args.threshold = 0.1;
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("calibration gate failed"), "{err}");
        assert!(err.contains("drifted"), "{err}");
        for p in [sim, native, cal_path] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn rejects_traces_without_profile_events() {
        let path = format!("{}.jsonl", tmp("noprof"));
        std::fs::write(
            &path,
            format!("{{\"event\":\"run_end\",\"schema\":{SCHEMA_VERSION},\"modularity\":0.5,\"rounds\":1,\"total_cycles\":0}}\n"),
        )
        .unwrap();
        let err = load_profiles(&path).unwrap_err().to_string();
        assert!(err.contains("no profile events"), "{err}");
        // Schema violations name the offending event index and schema.
        std::fs::write(
            &path,
            format!(
                "{{\"event\":\"run_end\",\"schema\":{SCHEMA_VERSION},\"modularity\":0.5,\
                 \"rounds\":1,\"total_cycles\":0}}\n{{\"event\":\"run_end\",\"schema\":1}}\n"
            ),
        )
        .unwrap();
        let err = load_profiles(&path).unwrap_err().to_string();
        assert!(err.contains("event 1") && err.contains("schema 1"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn disjoint_traces_are_an_error() {
        let sim = write_trace("disjoint_sim", BackendKind::Sim);
        // A native trace whose spans live under paths the sim never charges.
        let native = format!("{}.jsonl", tmp("disjoint_native"));
        std::fs::write(
            &native,
            format!(
                "{{\"event\":\"profile\",\"schema\":{SCHEMA_VERSION},\"round\":0,\
                 \"superstep\":0,\"phase\":\"phase1\",\"backend\":\"native\",\"unit\":\"ns\",\
                 \"spans\":[{{\"path\":\"elsewhere\",\"invocations\":1,\"total\":100.0,\
                 \"components\":{{\"compute\":100.0,\"shared_mem\":0,\"global_coalesced\":0,\
                 \"global_uncoalesced\":0,\"atomics\":0,\"scan_sort\":0,\"sync\":0}}}}]}}\n"
            ),
        )
        .unwrap();
        let args = base_args(&sim, &native);
        let err = run(&args).unwrap_err().to_string();
        assert!(err.contains("no joinable kernel"), "{err}");
        for p in [sim, native] {
            let _ = std::fs::remove_file(p);
        }
    }
}
