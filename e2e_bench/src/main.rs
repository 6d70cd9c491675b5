//! `e2e_bench`: the end-to-end serving benchmark of the PUMA reproduction,
//! with a per-layer host-time breakdown.
//!
//! Users serve requests through `ServeRunner::serve` / `TenantServer::serve`
//! on PUMAsim and care about two things: the simulated latency and energy
//! of the modelled chip (the paper's §7 claims), and the host time a serve
//! costs. This program measures both on four fixed workloads, checks the
//! outputs against an independent oracle, and — in a separate traced run —
//! splits host time over the repository's layers.
//!
//! # Running
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
//!     [--trace-out PATH] [--smoke]
//! ```
//!
//! - `--seed` (default 2019) selects the request inputs, and nothing else:
//!   the program under test receives only the generated inputs. Arrival
//!   schedules belong to the workload, so the simulated metrics are the
//!   same for every seed and two commits compare on them exactly.
//! - `--seconds` (default 20) is how long the timed serves (or, with
//!   `--trace 1`, the measurement rounds) keep going; at least three
//!   timed serves (with `--trace 1`, one pair of rounds) always run.
//! - `--trace 1` runs the per-layer measurement instead of the end-to-end
//!   one and writes the spans to `--trace-out` (default
//!   `target/e2e_bench/trace-<workload>-<seed>.json`).
//! - `--smoke` caps each stream at 8 requests with one set-up and one
//!   serve; the unit tests use it.
//!
//! The human-readable report goes to standard error. The last line on
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`
//! holding every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric). The exit code is 0 only when the outputs are correct.
//! `BENCHMARK.json` at the repository root records the command, the
//! workloads and every metric with its unit, direction and bound.
//!
//! # Workloads
//!
//! Each loads one layer heavily and the others lightly. Every constant is
//! a literal ([`workload::WORKLOADS`]): arrivals are open-loop Poisson with
//! a fixed mean gap and seed, so a compiler gain shows up as lower
//! simulated latency instead of as a heavier load. All use the default
//! engine and `NodeConfig::default()`, inputs from `seeded_values`.
//!
//! | name | set-up | why |
//! |---|---|---|
//! | `mlpl4-func` | MLPL4 (Table 5, 4×1120²), functional, materialized weights; `ServeRunner`, 2 workers, depth 8; mean gap 36,700 cycles (≈0.7 of capacity); 600 requests; SLO 250,000 | `xbar`-bound: ~90% of a run is MVM payload, and crossbar programming dominates `setup_s` and `peak_rss_mib` |
//! | `nmtl3-timing` | NMTL3 (2 steps), timing mode, shape-only weights; `ServeRunner`, 2 workers, depth 8; mean gap 152,000 (≈0.9); 220 requests; SLO 1,400,000 | `sim`-bound: ~71k instructions per request with a 61 MiB replica; timing mode computes no MVM payload, so it is the control for any `xbar` change |
//! | `nmtl3-pipeline` | the same model sharded over 2 nodes, `with_pipeline(true)`, 1 host thread, depth 8; mean gap 330,000; 220 requests; SLO 1,400,000 | `sim` used differently: ClusterSim shards, PipelineSim stepping and the interconnect on one thread; a replicated-path gain that costs the pipeline shows here |
//! | `tenant-overload` | `TenantServer`, timing mode: MLP-64-150-150-14 + LSTM-26-120-61, fabric for 3 replicas each, `ScalePolicy::new(4, 3)`, depth 8; mean gaps 3,464 / 19,859 (≈4× one replica); 30,000 requests per model; SLO 70,000 / 400,000 | `runtime`-bound: simulation costs 6–33 µs a request, so name formatting, output maps, stats clones, scheduling and autoscaling dominate; shed requests are still simulated |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! One run (one process, one workload, at most 2 host threads) sets the
//! workload up once, serves the full request set once untimed, then
//! serves it at least three times and until `--seconds` have passed,
//! reads the peak RSS, runs the oracle, and finally sets the workload up
//! again — at least three set-ups in all, more until three seconds of
//! set-up time are spent, at most 1,000 — one stack at a time. Host metrics are
//! medians; simulated metrics come from the untimed serve and must be
//! identical in every timed serve. Multi-model workloads pool their
//! requests.
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `host_rps` | req/s | completed requests ÷ wall time of the `serve` call (median over serves) |
//! | `setup_s` | s | model build + compile + runner/catalog/deploy + a first one-request serve (median over set-ups) |
//! | `peak_rss_mib` | MiB | the process's `VmHWM` after the timed serves, with one stack built |
//! | `sim_p50_cycles` | cycles | nearest-rank median simulated latency of completed requests |
//! | `sim_p95_cycles` | cycles | nearest-rank p95; ≥10 completed requests lie above it (the count is printed) |
//! | `sim_service_cycles` | cycles | mean `RunStats.cycles` per completed request |
//! | `sim_energy_uj_per_req` | µJ | modelled energy per completed request |
//! | `slo_attainment` | fraction | requests completed within the SLO ÷ attempted; shed and failed requests miss |
//!
//! The simulated metrics guard the model; the model is not validated
//! against hardware, so they are not accuracy claims. Failures are the
//! result's `failed` count over `attempted` (the fail fraction, printed).
//!
//! # Correctness oracle
//!
//! The run fails closed: a nonzero `failed` makes `correct` false and the
//! exit code 1.
//!
//! - The first 32 requests of each stream are served again on a
//!   `SimEngine::Reference` stack. Outputs and `RunStats` (cycles,
//!   instructions, energy) must match bit for bit; for the FIFO front ends
//!   the dispositions, start and finish cycles must match too, because a
//!   prefix of the arrivals is scheduled exactly as in the full serve.
//! - On `mlpl4-func` the same requests are compared against
//!   `Model::evaluate_reference` within 0.05 (the end-to-end tests' bound).
//! - A timed serve whose simulated summary differs from the untimed one
//!   counts all its requests as failed, as does every failed disposition.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The layers are the repository's modules: `nn` (the zoo), `compiler`,
//! `sim` (NodeSim/ClusterSim/PipelineSim), `xbar` and `runtime`
//! (`src/runtime.rs`). The traced run times every call from outside, in
//! this program (see [`layers`] for the phases). Each row names the
//! end-to-end metric the layer metric should move, and where.
//!
//! | name | how | moves |
//! |---|---|---|
//! | `nn.model_s` | `zoo::build_graph_model` | `setup_s` on `mlpl4-func` |
//! | `compiler.compile_s` | `compile` + `shard` / `compose_fabric` | `setup_s` on `nmtl3-*` |
//! | `compiler.static_instrs`, `compiler.tiles_used` | from the `CompiledModel`s | `sim_service_cycles`, `sim_energy_uj_per_req`, everywhere |
//! | `sim.build_s` | `NodeSim::new` / `ClusterSim::new` (+ `PipelineSim::new`); functional mode programs crossbars | `setup_s` on `mlpl4-func` |
//! | `sim.fork_s`, `sim.replica_mib` | `fork_replica`, `state_bytes` | `peak_rss_mib`, `setup_s` on `nmtl3-timing` |
//! | `sim.reset_us`, `sim.write_us`, `sim.run_us`, `sim.read_us` | per-request means of `reset` / `write_input` / `run` (`run_resident` for tenants) / `read_output` | `host_rps`; reset and write mainly on `nmtl3-timing` |
//! | `sim.instr_per_req`, `sim.run_mips`, `sim.queue_events_per_instr` | `RunStats`, `queue_events` | `host_rps` on `nmtl3-*`, little on `tenant-overload` |
//! | `sim.timing_run_us` | `run` on a Timing-mode twin of the same images; `sim.run_us` minus it is the MVM payload | `host_rps` on `mlpl4-func` |
//! | `sim.replay_s` | an untraced single-thread pass of the serve's simulation work (`PipelineSim::serve_with_deadline` for the pipeline) | `host_rps` on `nmtl3-pipeline` |
//! | `xbar.mvm_per_req`, `xbar.mvm_ns`, `xbar.mvm_share_est` | activations from `RunStats`; ns per `AnalogMvmu::mvm` on a 128×128 block of the first weight matrix (16,384 MACs, 32 KiB of encoded weights); share = ns × count ÷ `sim.run_us` (0 in timing mode) | `host_rps` on `mlpl4-func`; no change predicted on `nmtl3-timing` |
//! | `runtime.self_us` | (single-thread serve wall − `sim.replay_s`) ÷ requests | `host_rps` on `tenant-overload`; ≈0 on `nmtl3-*`, where it can read below 0 |
//! | `runtime.wasted_sim_frac` | requests simulated but then shed ÷ requests simulated | `host_rps` on `tenant-overload` |
//! | `trace.coverage`, `trace.overhead_frac` | leaf spans ÷ replay wall; traced pass ÷ untraced pass − 1 | self-checks |
//!
//! Host times are medians over the rounds, or means over the calls of a
//! function; `xbar.mvm_ns` is a median over batches of calls. The isolated
//! MVM runs from a warm cache, so `xbar.mvm_share_est` is an estimate.
//! Two simulator instances of the same image can differ in speed by a few
//! percent (their memory layouts differ), so `runtime.self_us` means
//! something only where it exceeds a few percent of a request's
//! simulation time, as on `tenant-overload`.
//!
//! With nothing contending, a faster layer saves at most its share of a
//! run: `xbar.mvm_share_est` caps the `host_rps` gain on `mlpl4-func`.
//! With two threads sharing the cache, shrinking the 61 MiB NMTL3 replica
//! can save more than its share.
//!
//! # Reading the trace
//!
//! The trace file is Chrome trace-event JSON; open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`. Every span is a
//! complete event on one thread, named `layer.function`, with its layer as
//! the category; `args` hold its `id`, the `parent` span's id and the
//! `request` (position in the request set) it served. `bench.setup`,
//! `bench.replay` and `bench.request` are the benchmark's own grouping
//! spans: a span's self time is its duration minus its children's. The
//! file keeps the first 50,000 spans (`otherData` gives the total); the
//! metrics use all of them.

mod layers;
mod served;
mod trace;
mod workload;

use puma_core::error::{PumaError, Result};
use served::{compare, records, summarize, Check, Fate};
use std::process::ExitCode;
use std::time::Instant;
use workload::{
    build_server, generate, Front, Server, Workload, DEFAULT_SEED, HOST_THREADS, WORKLOADS,
};

/// Set-ups per run, `setup_s` being their median: at least `MIN_SETUPS`,
/// and more, up to `MAX_SETUPS`, until `SETUP_BUDGET_S` has been spent.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET_S: f64 = 3.0;
/// Fewest timed serves per run.
const MIN_SERVES: usize = 3;
/// Requests per stream the oracle re-serves, and the fewest it must compare.
const ORACLE_REQUESTS: usize = 32;
/// Largest |simulated − `evaluate_reference`| accepted on functional runs.
const REFERENCE_TOLERANCE: f32 = 0.05;
/// Requests per stream in `--smoke` runs.
const SMOKE_REQUESTS: usize = 8;
/// Spans written to the trace file.
const TRACE_FILE_SPANS: usize = 50_000;

/// The end-to-end metrics, with their units, in report order.
const END_TO_END: [(&str, &str); 8] = [
    ("host_rps", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_cycles", "cycles"),
    ("sim_p95_cycles", "cycles"),
    ("sim_service_cycles", "cycles"),
    ("sim_energy_uj_per_req", "uJ"),
    ("slo_attainment", "fraction"),
];

const USAGE: &str = "usage: e2e_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out PATH] [--smoke]";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    smoke: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workload::find(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, trace_out, smoke })
}

/// What a run measured and how many requests it checked.
#[derive(Debug, Default)]
struct Run {
    /// Metric values, in report order.
    metrics: Vec<(&'static str, f64)>,
    /// Requests served or compared.
    attempted: usize,
    /// Failed dispositions plus mismatching requests.
    failed: usize,
    /// Human-readable findings.
    notes: Vec<String>,
}

impl Run {
    /// Folds one comparison into the counts: every compared request is
    /// attempted and every mismatch failed; comparing fewer than
    /// `min_compared` requests fails too.
    fn add_check(&mut self, what: &str, check: &Check, min_compared: usize) {
        self.attempted += check.compared;
        self.failed += check.mismatches.len();
        if check.compared < min_compared {
            self.failed += 1;
            self.notes
                .push(format!("{what}: compared {} < {min_compared} requests", check.compared));
        }
        self.notes.extend(check.mismatches.iter().take(5).map(|m| format!("{what}: {m}")));
    }

    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The process's peak resident set, in MiB.
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| PumaError::Execution { what: format!("reading /proc/self/status: {e}") })?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| PumaError::Execution { what: "no VmHWM in /proc/self/status".to_string() })
}

/// One set-up, timed: the serving stack and a first one-request serve.
fn timed_setup(w: &Workload, seed: u64) -> Result<(Server, f64)> {
    let started = Instant::now();
    let server = build_server(w, HOST_THREADS)?;
    server.serve(&generate(w, seed, 1, |i| server.compiled(w, i)))?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// The end-to-end run (see the module docs).
fn run_e2e(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Run> {
    let cap = if smoke { SMOKE_REQUESTS } else { usize::MAX };
    let (server, first_setup_s) = timed_setup(w, seed)?;
    let mut setup_s = vec![first_setup_s];
    let requests = generate(w, seed, cap, |i| server.compiled(w, i));

    let expected = summarize(w, &server.serve(&requests)?);
    let mut run = Run::default();
    let mut rps = Vec::new();
    let mut last = None;
    let timed_from = Instant::now();
    let min_serves = if smoke { 1 } else { MIN_SERVES };
    while rps.len() < min_serves || timed_from.elapsed().as_secs_f64() < seconds {
        let started = Instant::now();
        let outcome = server.serve(&requests)?;
        let wall = started.elapsed().as_secs_f64();
        let summary = summarize(w, &outcome);
        rps.push(summary.completed as f64 / wall);
        run.attempted += summary.attempted;
        run.failed += summary.failed;
        if summary != expected {
            run.failed += summary.attempted;
            run.notes.push(format!("serve {}: simulated metrics drifted", rps.len()));
        }
        last = Some(outcome);
    }
    let peak_rss = peak_rss_mib()?;

    // The oracle: the first requests again, on the Reference engine.
    let observed = records(last.expect("at least one timed serve"), ORACLE_REQUESTS);
    let prefix = requests.prefix(ORACLE_REQUESTS);
    let reference = server.into_reference();
    let oracle = records(reference.serve(&prefix)?, usize::MAX);
    drop(reference);
    let fifo = !matches!(w.front, Front::Tenant { .. });
    let min_compared = ORACLE_REQUESTS.min(prefix.total());
    run.add_check("reference engine", &compare(&observed, &oracle, fifo, true), min_compared);
    if w.functional {
        let model = w.build_model(w.streams[0].model)?;
        let mut check = Check::default();
        for r in observed.iter().filter(|r| matches!(r.fate, Fate::Completed { .. })) {
            let want =
                puma_testkit::harness::reference_outputs(&model, prefix.inputs(r.stream, r.index))?;
            check.compared += 1;
            if let Err(e) =
                puma_testkit::harness::compare_outputs(&r.output_map(), &want, REFERENCE_TOLERANCE)
            {
                check.mismatches.push(format!("request {}: {e}", r.index));
            }
        }
        run.add_check("evaluate_reference", &check, min_compared);
    }

    // More set-ups for a steadier median, now that the peak RSS is read
    // (each would leave allocator residue in it), one stack at a time.
    if !smoke {
        while setup_s.len() < MIN_SETUPS
            || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < MAX_SETUPS)
        {
            setup_s.push(timed_setup(w, seed)?.1);
        }
    }

    run.notes.push(format!(
        "{} set-ups: median {:.6} s",
        setup_s.len(),
        layers::median(setup_s.clone())
    ));
    run.notes.push(format!(
        "{} timed serves of {} requests: host_rps {:?}",
        rps.len(),
        requests.total(),
        rps.iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>()
    ));
    run.notes.push(format!(
        "completed {} shed {} failed {} of {}; {} completed requests above p95 (want >= {})",
        expected.completed,
        expected.shed,
        expected.failed,
        expected.attempted,
        expected.beyond_p95,
        served::MIN_BEYOND_P95
    ));
    run.metrics = vec![
        ("host_rps", layers::median(rps)),
        ("setup_s", layers::median(setup_s)),
        ("peak_rss_mib", peak_rss),
        ("sim_p50_cycles", expected.latency.p50 as f64),
        ("sim_p95_cycles", expected.latency.p95 as f64),
        ("sim_service_cycles", expected.service_per_req()),
        ("sim_energy_uj_per_req", expected.energy_uj_per_req()),
        ("slo_attainment", expected.slo_attainment()),
    ];
    Ok(run)
}

/// The per-layer run, writing the trace to `trace_out`.
fn run_trace(w: &Workload, seed: u64, seconds: f64, smoke: bool, trace_out: &str) -> Result<Run> {
    let cap = if smoke { SMOKE_REQUESTS } else { usize::MAX };
    let mut rec = trace::Recorder::new(true);
    let mut run = layers::run(w, seed, if smoke { 0.0 } else { seconds }, cap, &mut rec)?;
    let path = std::path::Path::new(trace_out);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| PumaError::Execution { what: format!("creating {dir:?}: {e}") })?;
    }
    std::fs::write(path, trace::chrome_json(rec.spans(), TRACE_FILE_SPANS))
        .map_err(|e| PumaError::Execution { what: format!("writing {trace_out}: {e}") })?;
    run.notes.push(format!("trace: {} spans, written to {trace_out}", rec.spans().len()));
    let mut by_layer: Vec<(&str, u64)> = Vec::new();
    for (span, self_ns) in rec.spans().iter().zip(trace::self_times(rec.spans())) {
        match by_layer.iter_mut().find(|(layer, _)| *layer == span.layer) {
            Some((_, total)) => *total += self_ns,
            None => by_layer.push((span.layer, self_ns)),
        }
    }
    run.notes.extend(
        by_layer.iter().map(|(layer, ns)| format!("self time {layer:8} {:.6} s", *ns as f64 / 1e9)),
    );
    Ok(run)
}

/// The result line: one JSON object with the counts and every metric.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64)],
    units: &[(&str, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let unit = units.iter().find(|(n, _)| n == name).map_or("", |u| u.1);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let (run, units) = if args.trace {
        let out = args
            .trace_out
            .clone()
            .unwrap_or_else(|| format!("target/e2e_bench/trace-{}-{}.json", w.name, args.seed));
        (run_trace(w, args.seed, args.seconds, args.smoke, &out), &layers::PER_LAYER[..])
    } else {
        (run_e2e(w, args.seed, args.seconds, args.smoke), &END_TO_END[..])
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2e_bench: {} failed: {e}", w.name);
            return ExitCode::FAILURE;
        }
    };
    if let Some((name, _)) = run.metrics.iter().find(|(_, v)| !v.is_finite()) {
        run.failed += 1;
        run.notes.push(format!("{name} is not a finite number"));
    }
    eprintln!("== {} (seed {}): {} ==", w.name, args.seed, w.why);
    for note in &run.notes {
        eprintln!("  {note}");
    }
    for (name, value) in &run.metrics {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |u| u.1);
        eprintln!("  {name:28} {value:>16.6} {unit}");
    }
    eprintln!("  fail_frac {} ({} of {})", run.fail_frac(), run.failed, run.attempted);
    let correct = run.failed == 0;
    println!("{}", result_line(correct, run.attempted, run.failed, &run.metrics, units));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_bench::json::{parse, Json};

    /// The benchmark definition at the repository root.
    fn benchmark_json() -> Json {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(section)
            .and_then(Json::as_array)
            .expect("metric section")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_emitted_name_is_valid_and_declared() {
        for (table, section) in
            [(&END_TO_END[..], "end_to_end"), (&layers::PER_LAYER[..], "per_layer")]
        {
            let ours: Vec<(String, String)> =
                table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(ours, declared(section), "{section} differs from BENCHMARK.json");
            assert!(table.iter().all(|(n, _)| valid_name(n)), "{section}");
        }
        let declared: Vec<(String, String)> = benchmark_json()
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            WORKLOADS.iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
        assert_eq!(ours, declared, "workloads differ from BENCHMARK.json");
        assert!(WORKLOADS.iter().all(|w| valid_name(w.name)));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        let a = parse("--workload nmtl3-timing --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload.name, a.seed, a.seconds, a.trace), ("nmtl3-timing", 7, 2.5, true));
        assert_eq!(parse("--workload mlpl4-func").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload mlpl4-func --trace 2",
            "--workload mlpl4-func --seconds -1",
            "--workload mlpl4-func --seed",
            "--workload mlpl4-func --frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn a_corrupted_output_raises_fail_frac() {
        let mut run = Run { attempted: 600, ..Run::default() };
        let clean = Check { compared: 32, mismatches: vec![] };
        run.add_check("reference engine", &clean, 32);
        assert_eq!((run.failed, run.fail_frac()), (0, 0.0));
        let mut got = vec![served::Record::ran(
            0,
            0,
            [("out".to_string(), vec![0.5f32])].into(),
            puma_sim::RunStats::new(),
        )];
        let want = got.clone();
        got[0].outputs.get_mut("out").unwrap()[0] = f32::from_bits(0.5f32.to_bits() ^ 1);
        run.add_check("reference engine", &compare(&got, &want, false, true), 1);
        assert_eq!(run.failed, 1);
        assert!(run.fail_frac() > 0.0);
        // Comparing too few requests fails closed as well.
        run.add_check("reference engine", &Check::default(), 1);
        assert_eq!(run.failed, 2);
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let metrics = [("host_rps", 12.5), ("setup_s", 0.0001234)];
        let line = result_line(true, 10, 0, &metrics, &END_TO_END);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.0001234));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// Every workload, both modes, at smoke size: every metric is emitted
    /// with its unit and the oracle passes.
    #[test]
    fn smoke_runs_emit_every_metric() {
        let dir = std::env::temp_dir().join(format!("e2e_bench_smoke_{}", std::process::id()));
        for w in &WORKLOADS {
            let run = run_e2e(w, DEFAULT_SEED, 0.0, true).expect("smoke serve");
            let names: Vec<&str> = run.metrics.iter().map(|m| m.0).collect();
            assert!(names.iter().copied().eq(END_TO_END.iter().map(|m| m.0)), "{}", w.name);
            assert!(
                run.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{}: {:?}",
                w.name,
                run.metrics
            );
            assert_eq!(run.failed, 0, "{}: {:?}", w.name, run.notes);
            let line = result_line(true, run.attempted, run.failed, &run.metrics, &END_TO_END);
            assert!(parse(&line).is_ok());

            let out = dir.join(format!("{}.json", w.name));
            let out = out.to_str().unwrap();
            let run = run_trace(w, DEFAULT_SEED, 0.0, true, out).expect("smoke trace");
            let names: Vec<&str> = run.metrics.iter().map(|m| m.0).collect();
            assert!(names.iter().copied().eq(layers::PER_LAYER.iter().map(|m| m.0)), "{}", w.name);
            assert!(run.metrics.iter().all(|m| m.1.is_finite()), "{}: {:?}", w.name, run.metrics);
            assert_eq!(run.failed, 0, "{}: {:?}", w.name, run.notes);
            let trace = parse(&std::fs::read_to_string(out).unwrap()).expect("trace parses");
            assert!(!trace.get("traceEvents").and_then(Json::as_array).unwrap().is_empty());
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
