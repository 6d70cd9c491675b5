//! CI perf-regression gate: compares a fresh `BENCH_sim_throughput.json`
//! against the committed `BENCH_baseline.json` and exits nonzero (with a
//! readable delta table) if quick-mode throughput regressed beyond the
//! tolerance.
//!
//! Gated keys fail **closed**: a gated metric missing from the candidate,
//! missing from the baseline row, or a whole non-optional section absent
//! from the baseline is a hard failure, never a silent skip — otherwise a
//! truncated or unblessed artifact would quietly disable the gate.
//!
//! Two classes of metric:
//!
//! - **Deterministic** (gated by default): instructions per run, simulated
//!   cycles, and inter-node words are properties of the compiler +
//!   simulator, identical on any host.
//! - **Wall-clock** (informational unless `--wall`): absolute instr/s and
//!   the per-row compiled/reference speedup ratio vary with host speed and load,
//!   so they are printed for trend-watching but only enforced when
//!   explicitly requested (e.g. on dedicated hardware).
//!
//! A third class is the **absolute engine-speedup floors**: the run's
//! top-level `compiled_speedup_vs_reference_all_rows_min` (the worst
//! per-workload compiled/reference ratio, which the sync-bound rows keep
//! honest — the scheduler guard) must stay at or above `--speedup-floor`
//! (default [`DEFAULT_SPEEDUP_FLOOR`]), and
//! `compiled_speedup_vs_reference_min` (the worst ratio over the
//! *instruction-bound* rows, where pre-decoded segments must pay off)
//! must stay at or above `--compiled-floor` (default
//! [`DEFAULT_COMPILED_FLOOR`]). Both engines run on the same host in the
//! same process, so the ratios are host-normalized; the default floors
//! sit well under the blessed values to absorb shared-runner noise. A
//! floor key missing from the current run *or* from the baseline fails
//! the gate, so an unblessed baseline cannot pass.
//!
//! Usage:
//! `compare_bench [--baseline PATH] [--current PATH] [--tolerance FRAC] [--speedup-floor R] [--compiled-floor R] [--wall] [--explain]`
//!
//! `--explain` prints the key convention — every metric the gate
//! inspects, per section, classed gated vs. `info` — and exits without
//! comparing anything (neither JSON file is read).
//!
//! Intentional shifts (a timing-model change, a new compiler pass) are
//! re-blessed by regenerating the baseline:
//! `cargo run --release -p puma-bench --bin bench_sim_throughput -- --quick --out BENCH_baseline.json`

use puma_bench::json::{parse, Json};
use puma_bench::print_table;
use std::process::ExitCode;

/// Gated floor on the current run's worst per-workload compiled vs
/// reference speedup, over every row. The worst row (MLP / SyncFanout /
/// NMTL3, whichever host noise hits) measured 1.88–2.32× over seven
/// quick runs on a 2-vCPU host; the floor keeps the scheduler guard's
/// previous value, low enough that shared-runner noise cannot flake CI,
/// while a real scheduler regression (collapse toward per-event
/// stepping, ≈1×) still fails hard.
const DEFAULT_SPEEDUP_FLOOR: f64 = 1.5;

/// Gated floor on the compiled engine's worst instruction-bound speedup
/// vs the reference event loop. The CNN / MLP rows measure 4.15–4.5× on
/// a 1-CPU host, including heavily noise-degraded runs (pre-decoded
/// segments skip fetch/decode/operand resolution and charge whole
/// straight-line runs in one dense walk; the planar attribute planes raised the
/// ratio further by cheapening the reference-visible memory protocol
/// less than the compiled hot loop). The floor sits ~15% under the
/// worst observed ratio, and a real segment-builder regression
/// (collapse to per-instruction interpretation, ≈2–2.5×) still fails
/// hard.
const DEFAULT_COMPILED_FLOOR: f64 = 3.5;

/// Direction in which a metric counts as a regression.
#[derive(Clone, Copy, PartialEq)]
enum Worse {
    /// Larger current value is a regression (cycles, instructions).
    Higher,
    /// Smaller current value is a regression (speedup ratio, throughput).
    Lower,
}

struct Check {
    section: &'static str,
    key: String,
    metric: &'static str,
    /// `None` when the baseline itself lacks the gated key — a hard
    /// failure, not a silent skip: an unblessed baseline would otherwise
    /// disable the gate without anyone noticing.
    baseline: Option<f64>,
    current: Option<f64>,
    worse: Worse,
    gated: bool,
    /// Status label printed for an ungated check that didn't regress
    /// (plain `"info"`, or `"info (frontier)"` for the deliberately
    /// ungated degraded rows of the noise frontier).
    info_label: &'static str,
}

impl Check {
    /// Signed relative change, positive = worse.
    fn degradation(&self) -> Option<f64> {
        let baseline = self.baseline?;
        let current = self.current?;
        if baseline == 0.0 {
            return Some(if current == 0.0 { 0.0 } else { f64::INFINITY });
        }
        let delta = (current - baseline) / baseline;
        Some(match self.worse {
            Worse::Higher => delta,
            Worse::Lower => -delta,
        })
    }

    fn regressed(&self, tolerance: f64) -> bool {
        self.gated && self.degradation().is_none_or(|d| d > tolerance)
    }
}

/// Rows of `array` keyed by the given fields, e.g. `(workload, engine)`.
fn rows_by_key<'a>(doc: &'a Json, section: &str, key_fields: &[&str]) -> Vec<(String, &'a Json)> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let key = key_fields
                .iter()
                .map(|f| match row.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => format!("{n}"),
                    _ => "?".to_string(),
                })
                .collect::<Vec<_>>()
                .join("/");
            (key, row)
        })
        .collect()
}

fn field(row: &Json, name: &str) -> Option<f64> {
    row.get(name).and_then(Json::as_f64)
}

/// Builds the checks for one section: every baseline row must exist in
/// `current` (a vanished row is a regression — it would silently mask
/// one), except in `optional` sections whose keys legitimately vary by
/// host (batch thread counts). Absence is never a pass for a gated
/// metric: a baseline row missing the key, or a non-optional section
/// missing from the baseline outright, fails the gate — otherwise an
/// unblessed or truncated baseline would switch the check off silently.
#[allow(clippy::too_many_arguments)]
fn section_checks(
    checks: &mut Vec<Check>,
    baseline: &Json,
    current: &Json,
    section: &'static str,
    key_fields: &[&str],
    metrics: &[(&'static str, Worse, bool)],
    optional: bool,
) {
    let base_rows = rows_by_key(baseline, section, key_fields);
    if base_rows.is_empty() && !optional {
        // No baseline rows at all: synthesize one failing check so the
        // hole is visible in the table instead of passing vacuously.
        checks.push(Check {
            section,
            key: "(no baseline rows)".to_string(),
            metric: "section",
            baseline: None,
            current: None,
            worse: Worse::Higher,
            gated: true,
            info_label: "info",
        });
        return;
    }
    let current_rows = rows_by_key(current, section, key_fields);
    for (key, base_row) in base_rows {
        let cur_row = current_rows.iter().find(|(k, _)| *k == key).map(|(_, r)| *r);
        if cur_row.is_none() && optional {
            continue;
        }
        for &(metric, worse, gated) in metrics {
            let base_val = field(base_row, metric);
            if base_val.is_none() && !gated {
                continue;
            }
            checks.push(Check {
                section,
                key: key.clone(),
                metric,
                baseline: base_val,
                current: cur_row.and_then(|r| field(r, metric)),
                worse,
                gated,
                info_label: "info",
            });
        }
    }
}

/// Checks for the `noise_frontier` section, whose gating is *per row*,
/// not per metric: the `ideal` anchor row (σ = 0, derived ADC — same
/// code path as every other timing measurement) gates its simulated
/// cycles and modeled energy like any deterministic metric, while the
/// degraded rows — the frontier itself — stay info-only and are labeled
/// `info (frontier)` so nobody mistakes their drift-through for a passed
/// gate. Accuracy is info-only on every row: it legitimately moves when
/// the noise model is deliberately refined, and the ideal row's accuracy
/// is pinned bit-exactly by the testkit suites instead. The section as a
/// whole still fails closed — a baseline without it is a hard failure.
fn frontier_checks(checks: &mut Vec<Check>, baseline: &Json, current: &Json) {
    let key_fields = ["model", "sigma", "adc_bits"];
    let base_rows = rows_by_key(baseline, "noise_frontier", &key_fields);
    if base_rows.is_empty() {
        checks.push(Check {
            section: "noise_frontier",
            key: "(no baseline rows)".to_string(),
            metric: "section",
            baseline: None,
            current: None,
            worse: Worse::Higher,
            gated: true,
            info_label: "info",
        });
        return;
    }
    let current_rows = rows_by_key(current, "noise_frontier", &key_fields);
    for (key, base_row) in base_rows {
        let ideal = base_row.get("ideal") == Some(&Json::Bool(true));
        let cur_row = current_rows.iter().find(|(k, _)| *k == key).map(|(_, r)| *r);
        for (metric, worse) in FRONTIER_METRICS {
            checks.push(Check {
                section: "noise_frontier",
                key: key.clone(),
                metric,
                baseline: field(base_row, metric),
                current: cur_row.and_then(|r| field(r, metric)),
                worse,
                gated: ideal && metric != "accuracy",
                info_label: "info (frontier)",
            });
        }
    }
}

/// The `noise_frontier` metrics, gated per row (see [`frontier_checks`]).
const FRONTIER_METRICS: [(&str, Worse); 3] =
    [("simulated_cycles", Worse::Higher), ("energy_nj", Worse::Higher), ("accuracy", Worse::Lower)];

/// Checks for the `fault_tolerance` section, whose gating is per row
/// like the noise frontier's: the zero-fault `anchor` row — the same
/// serve path as every other multi-tenant measurement, just declared
/// fault-free — gates its completion/retry/failure/shed counts and tail
/// latency fail-closed, while the injected-fault rows (the degradation
/// measurement itself) stay info-only and are labeled `info (fault)` so
/// nobody mistakes their drift-through for a passed gate. The section as
/// a whole still fails closed — a baseline without it, or an anchor row
/// missing a gated key, is a hard failure, exactly like the other
/// sections.
fn fault_tolerance_checks(checks: &mut Vec<Check>, baseline: &Json, current: &Json) {
    let key_fields = ["scenario", "model"];
    let base_rows = rows_by_key(baseline, "fault_tolerance", &key_fields);
    if base_rows.is_empty() {
        checks.push(Check {
            section: "fault_tolerance",
            key: "(no baseline rows)".to_string(),
            metric: "section",
            baseline: None,
            current: None,
            worse: Worse::Higher,
            gated: true,
            info_label: "info",
        });
        return;
    }
    let current_rows = rows_by_key(current, "fault_tolerance", &key_fields);
    for (key, base_row) in base_rows {
        let anchor = base_row.get("anchor") == Some(&Json::Bool(true));
        let cur_row = current_rows.iter().find(|(k, _)| *k == key).map(|(_, r)| *r);
        for (metric, worse) in FAULT_TOLERANCE_METRICS {
            checks.push(Check {
                section: "fault_tolerance",
                key: key.clone(),
                metric,
                baseline: field(base_row, metric),
                current: cur_row.and_then(|r| field(r, metric)),
                worse,
                gated: anchor,
                info_label: "info (fault)",
            });
        }
    }
}

/// The `fault_tolerance` metrics, gated on the anchor row only.
const FAULT_TOLERANCE_METRICS: [(&str, Worse); 6] = [
    ("completed", Worse::Lower),
    ("retried", Worse::Higher),
    ("failed", Worse::Higher),
    ("shed", Worse::Higher),
    ("p99_cycles", Worse::Higher),
    ("makespan_cycles", Worse::Higher),
];

/// Per-workload `engine`/reference speedup ratios from `single_thread`.
fn speedups(doc: &Json, engine: &str) -> Vec<(String, f64)> {
    let rows = rows_by_key(doc, "single_thread", &["workload"]);
    let mut out: Vec<(String, f64)> = Vec::new();
    for (workload, row) in &rows {
        if row.get("engine").and_then(Json::as_str) != Some(engine) {
            continue;
        }
        let reference = rows.iter().find(|(k, r)| {
            k == workload && r.get("engine").and_then(Json::as_str) == Some("reference")
        });
        if let (Some(ra), Some(rf)) = (
            field(row, "instructions_per_second"),
            reference.and_then(|(_, r)| field(r, "instructions_per_second")),
        ) {
            if rf > 0.0 {
                out.push((workload.clone(), ra / rf));
            }
        }
    }
    out
}

/// One `section_checks` invocation's worth of configuration. The gate
/// and `--explain` both consume this table, so the printed key
/// convention cannot drift from what the gate actually enforces.
struct SectionSpec {
    section: &'static str,
    key_fields: &'static [&'static str],
    metrics: Vec<(&'static str, Worse, bool)>,
    optional: bool,
}

/// The per-metric-gated sections (everything except the per-row-gated
/// `noise_frontier` / `fault_tolerance` and the speedup floors/ratios).
fn section_specs(gate_wall: bool) -> Vec<SectionSpec> {
    vec![
        SectionSpec {
            section: "single_thread",
            key_fields: &["workload", "engine"],
            metrics: vec![
                ("instructions_per_run", Worse::Higher, true),
                ("simulated_cycles", Worse::Higher, true),
                // Scheduler-queue entries per executed instruction: the
                // scheduler-overhead residue. Deterministic (simulated
                // entry count over simulated instruction count), so it
                // gates on any host — a scheduler regression shows up
                // here before it shows up in wall clock.
                ("queue_events_per_instruction", Worse::Higher, true),
                ("instructions_per_second", Worse::Lower, gate_wall),
            ],
            optional: false,
        },
        // Per-worker replica footprint: deterministic allocation
        // accounting (arena sizes + accumulators), gated so state-layout
        // regressions that re-bloat serving workers fail loudly.
        SectionSpec {
            section: "replica",
            key_fields: &["workload", "nodes"],
            metrics: vec![("replica_bytes", Worse::Higher, true)],
            optional: false,
        },
        SectionSpec {
            section: "sharded",
            key_fields: &["workload", "nodes"],
            metrics: vec![
                ("simulated_cycles", Worse::Higher, true),
                ("internode_words", Worse::Higher, true),
            ],
            optional: false,
        },
        SectionSpec {
            section: "batch",
            key_fields: &["workload", "threads"],
            metrics: vec![("requests_per_second", Worse::Lower, gate_wall)],
            optional: true,
        },
        // Serving rows are entirely simulated-clock metrics: latency
        // percentiles, shed count, completion count, and makespan are
        // deterministic properties of the queue schedule, gated on any
        // host.
        SectionSpec {
            section: "serving",
            key_fields: &["workload", "mode", "pattern", "load", "workers"],
            metrics: vec![
                ("p50_cycles", Worse::Higher, true),
                ("p95_cycles", Worse::Higher, true),
                ("p99_cycles", Worse::Higher, true),
                ("shed", Worse::Higher, true),
                ("completed", Worse::Lower, true),
                ("makespan_cycles", Worse::Higher, true),
            ],
            optional: false,
        },
        // Multi-tenant rows: per-model tail latency and shed under mixed
        // Poisson load on a shared fabric — all simulated-clock, gated.
        SectionSpec {
            section: "multi_tenant",
            key_fields: &["model", "load"],
            metrics: vec![
                ("p95_cycles", Worse::Higher, true),
                ("shed", Worse::Higher, true),
                ("completed", Worse::Lower, true),
            ],
            optional: false,
        },
    ]
}

/// `--explain`: prints every key the gate inspects, per section, with
/// its class — `gated` keys fail closed (a regression, a missing key, a
/// vanished row, or a missing section fails the run), `info` keys are
/// printed for trend-watching only. Derived from the same tables the
/// gate runs, so it cannot go stale; needs neither JSON file.
fn print_explain(gate_wall: bool) {
    let always = section_specs(false);
    let walled = section_specs(true);
    let mut table = Vec::new();
    for (spec, wall_spec) in always.iter().zip(&walled) {
        for (&(metric, _, gated), &(_, _, wall_gated)) in
            spec.metrics.iter().zip(&wall_spec.metrics)
        {
            let class = if gated {
                "gated"
            } else if wall_gated {
                if gate_wall {
                    "gated (--wall)"
                } else {
                    "info (--wall gates it)"
                }
            } else {
                "info"
            };
            table.push(vec![spec.section.to_string(), metric.to_string(), class.to_string()]);
        }
    }
    for (metric, _) in FRONTIER_METRICS {
        let class = if metric == "accuracy" {
            "info (pinned bit-exactly by the test suites instead)"
        } else {
            "gated on the ideal anchor row; info (frontier) on degraded rows"
        };
        table.push(vec!["noise_frontier".to_string(), metric.to_string(), class.to_string()]);
    }
    for (metric, _) in FAULT_TOLERANCE_METRICS {
        table.push(vec![
            "fault_tolerance".to_string(),
            metric.to_string(),
            "gated on the zero-fault anchor rows; info (fault) on injected-fault rows".to_string(),
        ]);
    }
    for (key, _, _) in floors(0.0, 0.0) {
        table.push(vec![
            "speedup".to_string(),
            key.to_string(),
            "gated (absolute floor on the current run, key required in the baseline; \
             tolerance does not apply)"
                .to_string(),
        ]);
    }
    table.push(vec![
        "speedup".to_string(),
        "compiled_vs_reference".to_string(),
        if gate_wall { "gated (--wall)" } else { "info (--wall gates it)" }.to_string(),
    ]);
    print_table(
        "Perf-gate key convention (gated keys fail closed: absent = regressed)",
        &["Section", "Key", "Class"],
        &table,
    );
}

/// The absolute engine-speedup floors: `(summary key, scope, floor)`.
fn floors(speedup_floor: f64, compiled_floor: f64) -> [(&'static str, &'static str, f64); 2] {
    [
        ("compiled_speedup_vs_reference_all_rows_min", "min-over-workloads", speedup_floor),
        ("compiled_speedup_vs_reference_min", "min-instruction-bound", compiled_floor),
    ]
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (commit BENCH_baseline.json?)"));
    parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1));
    let baseline_path = get("--baseline").map_or("BENCH_baseline.json", String::as_str);
    let current_path = get("--current").map_or("BENCH_sim_throughput.json", String::as_str);
    let tolerance: f64 =
        get("--tolerance").map_or(0.15, |t| t.parse().expect("--tolerance takes a fraction"));
    let speedup_floor: f64 = get("--speedup-floor")
        .map_or(DEFAULT_SPEEDUP_FLOOR, |t| t.parse().expect("--speedup-floor takes a ratio"));
    let compiled_floor: f64 = get("--compiled-floor")
        .map_or(DEFAULT_COMPILED_FLOOR, |t| t.parse().expect("--compiled-floor takes a ratio"));
    let gate_wall = args.iter().any(|a| a == "--wall");
    if args.iter().any(|a| a == "--explain") {
        print_explain(gate_wall);
        return ExitCode::SUCCESS;
    }

    let baseline = load(baseline_path);
    let current = load(current_path);

    let mut checks = Vec::new();
    for spec in section_specs(gate_wall) {
        section_checks(
            &mut checks,
            &baseline,
            &current,
            spec.section,
            spec.key_fields,
            &spec.metrics,
            spec.optional,
        );
    }
    // Noise frontier: per-row gating — the ideal anchor row gates
    // cycles/energy, the degraded rows are info-only by design.
    frontier_checks(&mut checks, &baseline, &current);
    // Fault tolerance: per-row gating — the zero-fault anchor rows gate
    // completion/failure counts and tail latency, the injected-fault
    // rows are info-only by design.
    fault_tolerance_checks(&mut checks, &baseline, &current);
    // Engine speedup ratios: normalized against host *speed* (both
    // engines run on the same machine), but not against host *noise* — a
    // transient burst during one engine's timing loop still skews the
    // ratio, so on shared CI runners it stays informational and is only
    // enforced with `--wall` (dedicated hardware).
    let current_speedups = speedups(&current, "compiled");
    for (workload, base_ratio) in speedups(&baseline, "compiled") {
        checks.push(Check {
            section: "speedup",
            key: workload.clone(),
            metric: "compiled_vs_reference",
            baseline: Some(base_ratio),
            current: current_speedups.iter().find(|(w, _)| *w == workload).map(|(_, r)| *r),
            worse: Worse::Lower,
            gated: gate_wall,
            info_label: "info",
        });
    }

    let mut table = Vec::new();
    let mut regressions = 0usize;
    // Absolute engine-speedup floors: hard bounds on the current run, not
    // relative-to-baseline drift checks (the tolerance does not apply).
    // The baseline must carry each key too, so a baseline blessed before
    // a floor existed fails closed instead of passing unchecked.
    for (key, scope, floor) in floors(speedup_floor, compiled_floor) {
        let current_min_speedup = current.get(key).and_then(Json::as_f64);
        let blessed = baseline.get(key).and_then(Json::as_f64).is_some();
        let floor_ok = blessed && current_min_speedup.is_some_and(|s| s >= floor);
        regressions += !floor_ok as usize;
        table.push(vec![
            "speedup".to_string(),
            scope.to_string(),
            key.to_string(),
            if blessed { format!("{floor:.2}") } else { "missing".to_string() },
            current_min_speedup.map_or("missing".to_string(), |s| format!("{s:.2}")),
            "-".to_string(),
            if floor_ok { "ok" } else { "REGRESSED" }.to_string(),
        ]);
    }
    for check in &checks {
        let regressed = check.regressed(tolerance);
        regressions += regressed as usize;
        let status = if regressed {
            "REGRESSED"
        } else if check.gated {
            "ok"
        } else {
            check.info_label
        };
        table.push(vec![
            check.section.to_string(),
            check.key.clone(),
            check.metric.to_string(),
            check.baseline.map_or("missing".to_string(), |b| format!("{b:.1}")),
            check.current.map_or("missing".to_string(), |c| format!("{c:.1}")),
            check.degradation().map_or("-".to_string(), |d| {
                if d.is_infinite() {
                    "inf".to_string()
                } else {
                    format!("{:+.1}%", d * 100.0)
                }
            }),
            status.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Perf gate: {current_path} vs {baseline_path} (tolerance {:.0}%)",
            tolerance * 100.0
        ),
        &["Section", "Key", "Metric", "Baseline", "Current", "Worse by", "Status"],
        &table,
    );

    if regressions > 0 {
        eprintln!(
            "\n{regressions} metric(s) regressed more than {:.0}% vs {baseline_path}.",
            tolerance * 100.0
        );
        eprintln!(
            "If the shift is intentional, re-bless with:\n  cargo run --release -p puma-bench \
             --bin bench_sim_throughput -- --quick --out BENCH_baseline.json"
        );
        return ExitCode::FAILURE;
    }
    println!("\nNo gated metric regressed more than {:.0}%.", tolerance * 100.0);
    ExitCode::SUCCESS
}
