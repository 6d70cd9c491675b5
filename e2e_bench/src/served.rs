//! What a serve produced, reduced to what the benchmark reports and
//! checks: the simulated-metric summary of a whole serve, and per-request
//! records that two executions of the same requests can be compared on.

use crate::workload::{Outcome, Workload};
use puma::runtime::{Disposition, LatencySummary, ServedRequest};
use puma_sim::RunStats;
use std::collections::{BTreeMap, HashMap};

/// Fewest completed requests that must lie above the reported p95, so the
/// percentile rests on a tail of real samples.
pub const MIN_BEYOND_P95: usize = 10;

/// The simulated (deterministic) result of one serve. Every field is a
/// function of the requests alone, so two serves of the same requests
/// must produce equal summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Requests submitted.
    pub attempted: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests the bounded queue shed.
    pub shed: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Nearest-rank latency percentiles over completed requests (pooled
    /// over streams).
    pub latency: LatencySummary,
    /// Completed requests with a latency above `latency.p95`.
    pub beyond_p95: usize,
    /// Sum of `RunStats.cycles` over completed requests.
    pub service_cycles: u64,
    /// Modelled energy of completed requests, in nJ.
    pub energy_nj: f64,
    /// Dynamic instructions of completed requests.
    pub instructions: u64,
    /// MVM activations of completed requests.
    pub mvm_activations: u64,
    /// Requests completed within their stream's latency limit.
    pub slo_met: usize,
}

impl SimSummary {
    /// Mean simulated service cycles per completed request.
    pub fn service_per_req(&self) -> f64 {
        self.service_cycles as f64 / self.completed.max(1) as f64
    }

    /// Modelled energy per completed request, in µJ.
    pub fn energy_uj_per_req(&self) -> f64 {
        self.energy_nj / 1e3 / self.completed.max(1) as f64
    }

    /// Requests completed within the limit ÷ requests attempted; shed and
    /// failed requests count as misses.
    pub fn slo_attainment(&self) -> f64 {
        self.slo_met as f64 / self.attempted.max(1) as f64
    }
}

/// Every served request of an outcome with its stream index, streams in
/// order and requests in submission order.
fn served(outcome: &Outcome) -> Vec<(usize, &ServedRequest)> {
    match outcome {
        Outcome::Serve(o) => o.results.iter().map(|r| (0, r)).collect(),
        Outcome::Tenant(o) => o
            .models
            .iter()
            .enumerate()
            .flat_map(|(s, m)| m.results.iter().map(move |r| (s, r)))
            .collect(),
    }
}

/// Summarizes one serve of `w`.
pub fn summarize(w: &Workload, outcome: &Outcome) -> SimSummary {
    let mut s = SimSummary {
        attempted: 0,
        completed: 0,
        shed: 0,
        failed: 0,
        latency: LatencySummary::default(),
        beyond_p95: 0,
        service_cycles: 0,
        energy_nj: 0.0,
        instructions: 0,
        mvm_activations: 0,
        slo_met: 0,
    };
    let mut latencies = Vec::new();
    for (stream, r) in served(outcome) {
        s.attempted += 1;
        match &r.disposition {
            Disposition::Completed { result, finish, .. } => {
                let latency = finish - r.arrival;
                s.completed += 1;
                s.service_cycles += result.stats.cycles;
                s.energy_nj += result.stats.energy.total_nj();
                s.instructions += result.stats.total_instructions();
                s.mvm_activations += result.stats.mvmu_activations;
                s.slo_met += usize::from(latency <= w.streams[stream].slo_cycles);
                latencies.push(latency);
            }
            Disposition::Shed => s.shed += 1,
            Disposition::Failed(_) => s.failed += 1,
        }
    }
    s.latency = LatencySummary::from_latencies(latencies.clone());
    s.beyond_p95 = latencies.iter().filter(|&&l| l > s.latency.p95).count();
    s
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fate {
    /// Served over `start..finish` on the simulated clock.
    Completed {
        /// Cycle service began.
        start: u64,
        /// Cycle service finished.
        finish: u64,
    },
    /// Simulated outside any schedule (a per-layer replay).
    Ran,
    /// Shed by the bounded queue.
    Shed,
    /// Failed, with the error.
    Failed(String),
}

/// One request's result, comparable across executions.
#[derive(Debug, Clone)]
pub struct Record {
    /// Stream index.
    pub stream: usize,
    /// Index within the stream.
    pub index: usize,
    /// How it ended.
    pub fate: Fate,
    /// Outputs by logical name (empty unless it completed or ran).
    pub outputs: BTreeMap<String, Vec<f32>>,
    /// Its own simulator statistics (default unless it completed or ran).
    pub stats: RunStats,
}

impl Record {
    /// A record of a request simulated outside a schedule.
    pub fn ran(
        stream: usize,
        index: usize,
        outputs: BTreeMap<String, Vec<f32>>,
        stats: RunStats,
    ) -> Record {
        Record { stream, index, fate: Fate::Ran, outputs, stats }
    }

    fn has_result(&self) -> bool {
        matches!(self.fate, Fate::Completed { .. } | Fate::Ran)
    }

    /// Outputs in the map type the testkit comparators take.
    pub fn output_map(&self) -> HashMap<String, Vec<f32>> {
        self.outputs.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }
}

/// Per-request records of an outcome, optionally only the first `limit`
/// requests of each stream.
pub fn records(outcome: Outcome, limit: usize) -> Vec<Record> {
    let per_stream: Vec<Vec<ServedRequest>> = match outcome {
        Outcome::Serve(o) => vec![o.results],
        Outcome::Tenant(o) => o.models.into_iter().map(|m| m.results).collect(),
    };
    let mut out = Vec::new();
    for (stream, results) in per_stream.into_iter().enumerate() {
        for (index, r) in results.into_iter().take(limit).enumerate() {
            let (fate, outputs, stats) = match r.disposition {
                Disposition::Completed { result, start, finish } => (
                    Fate::Completed { start, finish },
                    result.outputs.into_iter().collect(),
                    result.stats,
                ),
                Disposition::Shed => (Fate::Shed, BTreeMap::new(), RunStats::new()),
                Disposition::Failed(e) => {
                    (Fate::Failed(e.to_string()), BTreeMap::new(), RunStats::new())
                }
            };
            out.push(Record { stream, index, fate, outputs, stats });
        }
    }
    out
}

/// The result of comparing two executions of the same requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Check {
    /// Request pairs compared.
    pub compared: usize,
    /// One line per mismatching request.
    pub mismatches: Vec<String>,
}

/// Bit-for-bit equality of two output maps.
fn same_outputs(a: &BTreeMap<String, Vec<f32>>, b: &BTreeMap<String, Vec<f32>>) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, va), (kb, vb))| {
            ka == kb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

/// Compares `got` against `want`, request by request (matched by stream
/// and index). Where both have a result, outputs must match bit for bit,
/// and statistics must be equal when `stats` is set. With `schedule`, the
/// fates — disposition, start and finish — must be equal too.
pub fn compare(got: &[Record], want: &[Record], schedule: bool, stats: bool) -> Check {
    let mut check = Check::default();
    let want: HashMap<(usize, usize), &Record> =
        want.iter().map(|r| ((r.stream, r.index), r)).collect();
    for g in got {
        let Some(w) = want.get(&(g.stream, g.index)) else { continue };
        let label = format!("stream {} request {}", g.stream, g.index);
        if schedule && g.fate != w.fate {
            check.compared += 1;
            check.mismatches.push(format!("{label}: fate {:?} vs {:?}", g.fate, w.fate));
            continue;
        }
        if !(g.has_result() && w.has_result()) {
            if schedule {
                check.compared += 1;
            }
            continue;
        }
        check.compared += 1;
        if !same_outputs(&g.outputs, &w.outputs) {
            check.mismatches.push(format!("{label}: outputs differ"));
        } else if stats && g.stats != w.stats {
            check.mismatches.push(format!(
                "{label}: stats differ ({} vs {} cycles, {} vs {} instructions, {} vs {} nJ)",
                g.stats.cycles,
                w.stats.cycles,
                g.stats.total_instructions(),
                w.stats.total_instructions(),
                g.stats.energy.total_nj(),
                w.stats.energy.total_nj()
            ));
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: usize, value: f32, cycles: u64) -> Record {
        let mut stats = RunStats::new();
        stats.cycles = cycles;
        Record {
            stream: 0,
            index,
            fate: Fate::Completed { start: 10, finish: 10 + cycles },
            outputs: BTreeMap::from([("out".to_string(), vec![value, 0.25])]),
            stats,
        }
    }

    #[test]
    fn nearest_rank_percentiles_leave_ten_samples_beyond_p95_of_200() {
        // 200 distinct latencies 1..=200: nearest rank p50 is the 100th
        // value and p95 the 190th, leaving exactly ten samples above.
        let latencies: Vec<u64> = (1..=200).rev().collect();
        let summary = LatencySummary::from_latencies(latencies.clone());
        assert_eq!((summary.p50, summary.p95), (100, 190));
        let beyond = latencies.iter().filter(|&&l| l > summary.p95).count();
        assert_eq!(beyond, MIN_BEYOND_P95);
        // With 199 samples the rule fails: the p95 is then the 190th of
        // 199 (rank ceil(189.05)), and only nine lie above it.
        let fewer: Vec<u64> = (1..=199).collect();
        let p95 = LatencySummary::from_latencies(fewer.clone()).p95;
        assert!(fewer.iter().filter(|&&l| l > p95).count() < MIN_BEYOND_P95);
    }

    #[test]
    fn identical_records_match() {
        let a = vec![record(0, 0.5, 100), record(1, -0.5, 120)];
        let check = compare(&a, &a.clone(), true, true);
        assert_eq!(check, Check { compared: 2, mismatches: vec![] });
    }

    #[test]
    fn a_flipped_output_bit_is_a_mismatch() {
        let want = vec![record(0, 0.5, 100), record(1, -0.5, 120)];
        let mut got = want.clone();
        let v = &mut got[1].outputs.get_mut("out").unwrap()[0];
        *v = f32::from_bits(v.to_bits() ^ 1);
        let check = compare(&got, &want, true, true);
        assert_eq!(check.compared, 2);
        assert_eq!(check.mismatches.len(), 1, "{:?}", check.mismatches);
        assert!(check.mismatches[0].contains("request 1"));
    }

    #[test]
    fn stats_and_schedule_are_checked_only_when_asked() {
        let want = vec![record(0, 0.5, 100)];
        let got = vec![record(0, 0.5, 101)];
        // Different cycles change both the stats and the finish cycle.
        assert_eq!(compare(&got, &want, true, true).mismatches.len(), 1);
        assert_eq!(compare(&got, &want, false, true).mismatches.len(), 1);
        assert!(compare(&got, &want, false, false).mismatches.is_empty());
        // A replayed request compares against a served one without a schedule.
        let ran = vec![Record::ran(0, 0, want[0].outputs.clone(), want[0].stats.clone())];
        assert_eq!(compare(&ran, &want, false, true), Check { compared: 1, mismatches: vec![] });
    }
}
