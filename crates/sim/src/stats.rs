//! Execution statistics: dynamic instruction counts, per-component energy,
//! and unit busy-cycle accounting.

use puma_isa::InstructionCategory;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Hardware components tracked by the energy model (the Table 3 rows that
/// consume energy during execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EnergyComponent {
    /// Crossbar MVM operations (MVMU active).
    Mvmu,
    /// Vector functional unit (linear + nonlinear vector ops).
    Vfu,
    /// Scalar functional unit.
    Sfu,
    /// Register-file traffic (copies, transcendental LUT reads).
    RegisterFile,
    /// Instruction fetch + decode (control pipeline + instruction memory).
    FetchDecode,
    /// Tile shared memory + bus + attribute buffer.
    SharedMemory,
    /// On-chip network (send/receive traffic) + receive buffers.
    Network,
    /// Chip-to-chip interconnect (inter-node sends in a sharded cluster).
    Interconnect,
    /// Off-chip link (host input/output injection).
    OffChip,
}

impl EnergyComponent {
    /// All components, in display order.
    pub const ALL: [EnergyComponent; 9] = [
        EnergyComponent::Mvmu,
        EnergyComponent::Vfu,
        EnergyComponent::Sfu,
        EnergyComponent::RegisterFile,
        EnergyComponent::FetchDecode,
        EnergyComponent::SharedMemory,
        EnergyComponent::Network,
        EnergyComponent::Interconnect,
        EnergyComponent::OffChip,
    ];

    /// Position of this component in [`EnergyComponent::ALL`] (dense index
    /// for flat-array accumulators on the simulator's hot path).
    pub const fn index(self) -> usize {
        match self {
            EnergyComponent::Mvmu => 0,
            EnergyComponent::Vfu => 1,
            EnergyComponent::Sfu => 2,
            EnergyComponent::RegisterFile => 3,
            EnergyComponent::FetchDecode => 4,
            EnergyComponent::SharedMemory => 5,
            EnergyComponent::Network => 6,
            EnergyComponent::Interconnect => 7,
            EnergyComponent::OffChip => 8,
        }
    }

    /// Human-readable name.
    pub const fn label(self) -> &'static str {
        match self {
            EnergyComponent::Mvmu => "MVMU",
            EnergyComponent::Vfu => "VFU",
            EnergyComponent::Sfu => "SFU",
            EnergyComponent::RegisterFile => "Register File",
            EnergyComponent::FetchDecode => "Fetch/Decode",
            EnergyComponent::SharedMemory => "Shared Memory",
            EnergyComponent::Network => "Network",
            EnergyComponent::Interconnect => "Interconnect",
            EnergyComponent::OffChip => "Off-chip",
        }
    }
}

/// Attojoules per nanojoule: [`EnergyStats`] keeps energy in whole aJ.
const AJ_PER_NJ: f64 = 1e9;

/// Quantizes one energy cost in nJ to whole attojoules, rounding to the
/// nearest (halves up). Every cost is a Table 3 power (a short decimal in
/// mW) times whole cycles or words, so this drops only the f64
/// representation error. The cast saturates: a negative or NaN `nj`
/// gives 0, and anything past `u64::MAX` aJ (18.4 J) gives `u64::MAX`.
/// Adding one half and truncating keeps the rounding inline on targets
/// without a rounding instruction, where `f64::round` is a libm call.
pub(crate) fn nj_to_aj(nj: f64) -> u64 {
    (nj * AJ_PER_NJ + 0.5) as u64
}

/// Accumulated energy and busy time per component, indexed by
/// [`EnergyComponent::index`]. Energy is an exact integer count of
/// attojoules, so sums and merges give the same result in any order and
/// grouping. Energy is `u128` because a `u64` would overflow: one serve
/// merging every completed request passes 2^64 aJ (18.4 J) after about
/// 24,000 NMTL3 requests.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyStats {
    aj: [u128; EnergyComponent::ALL.len()],
    busy_cycles: [u64; EnergyComponent::ALL.len()],
}

impl EnergyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        EnergyStats::default()
    }

    /// Adds `nj` nanojoules and `cycles` busy cycles to a component. The
    /// energy is rounded to the nearest attojoule first; a negative or
    /// NaN `nj` adds no energy (the cycles still count), and an `nj` of
    /// +∞ or past 18.4 J adds `u64::MAX` aJ.
    pub fn add(&mut self, component: EnergyComponent, nj: f64, cycles: u64) {
        self.add_aj(component.index(), nj_to_aj(nj).into(), cycles);
    }

    /// Adds `aj` attojoules and `cycles` busy cycles to the component at
    /// `index` ([`EnergyComponent::index`]).
    #[inline]
    pub(crate) fn add_aj(&mut self, index: usize, aj: u128, cycles: u64) {
        self.aj[index] += aj;
        self.busy_cycles[index] += cycles;
    }

    /// Energy attributed to one component, in nJ.
    pub fn component_nj(&self, component: EnergyComponent) -> f64 {
        self.aj[component.index()] as f64 / AJ_PER_NJ
    }

    /// Busy cycles attributed to one component.
    pub fn component_busy(&self, component: EnergyComponent) -> u64 {
        self.busy_cycles[component.index()]
    }

    /// Total energy across components, in nJ.
    pub fn total_nj(&self) -> f64 {
        self.aj.iter().sum::<u128>() as f64 / AJ_PER_NJ
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &EnergyStats) {
        for (a, b) in self.aj.iter_mut().zip(&other.aj) {
            *a += b;
        }
        for (a, b) in self.busy_cycles.iter_mut().zip(&other.busy_cycles) {
            *a += b;
        }
    }
}

/// Statistics of one simulated run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Total cycles until the last agent halted (≡ ns at 1 GHz).
    pub cycles: u64,
    /// Dynamic instruction counts by execution-unit category.
    pub dynamic_instructions: BTreeMap<InstructionCategory, u64>,
    /// Energy accounting.
    pub energy: EnergyStats,
    /// Number of MVM activations (MVMU-instructions, counting coalesced
    /// MVMUs individually).
    pub mvmu_activations: u64,
    /// MVM activations that took the analog non-ideality path (read
    /// noise, drift, IR drop, or a narrowed ADC active). Zero whenever
    /// the config is ideal, so disabling non-ideality leaves statistics
    /// bit-identical to the exact path.
    #[serde(default)]
    pub degraded_mvm_activations: u64,
    /// MVM activations that took the faulted analog path (stuck cells or
    /// dead columns active in the [`puma_core::config::FaultPlan`]).
    /// Zero whenever the plan has no cell faults, so an empty plan
    /// leaves statistics bit-identical to the exact path.
    #[serde(default)]
    pub faulted_mvm_activations: u64,
    /// Agent dispatches suppressed because their tile was dead (an
    /// injected tile death had fired).
    #[serde(default)]
    pub dead_tile_halts: u64,
    /// Internode packets dropped by injected packet loss.
    #[serde(default)]
    pub packets_dropped: u64,
    /// Internode packets duplicated by injected duplication.
    #[serde(default)]
    pub packets_duplicated: u64,
    /// Internode packets delayed by injected extra latency.
    #[serde(default)]
    pub packets_delayed: u64,
    /// Words moved through tile shared memories.
    pub shared_memory_words: u64,
    /// Words moved through the on-chip network.
    pub network_words: u64,
    /// Words moved across the chip-to-chip interconnect (inter-node sends
    /// in a sharded cluster; zero for single-node runs).
    pub internode_words: u64,
    /// Number of cycles any agent spent blocked on synchronization.
    pub blocked_cycles: u64,
}

impl RunStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        RunStats::default()
    }

    /// Total dynamic instructions.
    pub fn total_instructions(&self) -> u64 {
        self.dynamic_instructions.values().sum()
    }

    /// Latency in nanoseconds (cycles at the 1 GHz reference clock).
    pub fn latency_ns(&self) -> f64 {
        self.cycles as f64
    }

    /// Latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.cycles as f64 * 1e-6
    }

    /// Records one executed instruction.
    pub fn count_instruction(&mut self, category: InstructionCategory) {
        *self.dynamic_instructions.entry(category).or_insert(0) += 1;
    }

    /// Merges another run's statistics into this one: counters and energy
    /// sum, and `cycles` accumulates as *serial-equivalent* simulated
    /// cycles (the latency the merged runs would take back-to-back on one
    /// node). Used to aggregate per-request statistics over a batch.
    pub fn merge(&mut self, other: &RunStats) {
        self.cycles += other.cycles;
        for (&category, &n) in &other.dynamic_instructions {
            *self.dynamic_instructions.entry(category).or_insert(0) += n;
        }
        self.energy.merge(&other.energy);
        self.mvmu_activations += other.mvmu_activations;
        self.degraded_mvm_activations += other.degraded_mvm_activations;
        self.faulted_mvm_activations += other.faulted_mvm_activations;
        self.dead_tile_halts += other.dead_tile_halts;
        self.packets_dropped += other.packets_dropped;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_delayed += other.packets_delayed;
        self.shared_memory_words += other.shared_memory_words;
        self.network_words += other.network_words;
        self.internode_words += other.internode_words;
        self.blocked_cycles += other.blocked_cycles;
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles: {}", self.cycles)?;
        writeln!(f, "instructions: {}", self.total_instructions())?;
        writeln!(f, "energy: {:.3} mJ", self.energy.total_mj())?;
        for c in EnergyComponent::ALL {
            let nj = self.energy.component_nj(c);
            if nj > 0.0 {
                writeln!(f, "  {}: {:.1} nJ", c.label(), nj)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_index_matches_all_order() {
        // `index()` is hand-written; the flat accumulators in the
        // simulator rely on it agreeing with `ALL`'s order.
        for (i, c) in EnergyComponent::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn energy_accumulates_and_totals() {
        let mut e = EnergyStats::new();
        e.add(EnergyComponent::Mvmu, 43.97, 2304);
        e.add(EnergyComponent::Mvmu, 43.97, 2304);
        e.add(EnergyComponent::Vfu, 1.0, 10);
        assert!((e.component_nj(EnergyComponent::Mvmu) - 87.94).abs() < 1e-9);
        assert_eq!(e.component_busy(EnergyComponent::Mvmu), 4608);
        assert!((e.total_nj() - 88.94).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_components() {
        let mut a = EnergyStats::new();
        a.add(EnergyComponent::Sfu, 1.0, 1);
        let mut b = EnergyStats::new();
        b.add(EnergyComponent::Sfu, 2.0, 2);
        b.add(EnergyComponent::Network, 5.0, 3);
        a.merge(&b);
        assert!((a.component_nj(EnergyComponent::Sfu) - 3.0).abs() < 1e-12);
        assert!((a.component_nj(EnergyComponent::Network) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn add_rounds_to_whole_attojoules_and_saturates() {
        let mut e = EnergyStats::new();
        // SFU: 0.055 mW for one cycle is 55,000 aJ, whatever f64 error
        // the product carries.
        e.add(EnergyComponent::Sfu, 0.055 * 1e-3, 1);
        assert_eq!(e.aj[EnergyComponent::Sfu.index()], 55_000);
        // Negative and NaN energies add nothing; their cycles still count.
        e.add(EnergyComponent::Vfu, -1.0, 2);
        e.add(EnergyComponent::Vfu, f64::NAN, 3);
        e.add(EnergyComponent::Vfu, f64::NEG_INFINITY, 4);
        assert_eq!(e.aj[EnergyComponent::Vfu.index()], 0);
        assert_eq!(e.component_busy(EnergyComponent::Vfu), 9);
        // +∞ and anything past u64::MAX aJ clamp to u64::MAX aJ per add.
        e.add(EnergyComponent::Mvmu, f64::INFINITY, 0);
        e.add(EnergyComponent::Mvmu, 1e30, 0);
        assert_eq!(e.aj[EnergyComponent::Mvmu.index()], 2 * u128::from(u64::MAX));
    }

    #[test]
    fn merging_past_two_to_the_64_attojoules_stays_exact() {
        // One NMTL3-sized request (~775 µJ, mostly MVMU), merged 30,000
        // times: 2.3e19 aJ, past u64::MAX.
        let mut one = EnergyStats::new();
        one.add(EnergyComponent::Mvmu, 701_234.567_891, 15_948_288);
        one.add(EnergyComponent::FetchDecode, 41_020.304_05, 71_113);
        one.add(EnergyComponent::SharedMemory, 21_777.000_123, 90_210);
        one.add(EnergyComponent::OffChip, 11_315.077_7, 3_072);
        let mut total = EnergyStats::new();
        for _ in 0..30_000 {
            total.merge(&one);
        }
        assert!(total.aj.iter().sum::<u128>() > u128::from(u64::MAX));
        for i in 0..EnergyComponent::ALL.len() {
            assert_eq!(total.aj[i], 30_000 * one.aj[i]);
            assert_eq!(total.busy_cycles[i], 30_000 * one.busy_cycles[i]);
        }
        assert_eq!(total.total_nj(), (30_000 * one.aj.iter().sum::<u128>()) as f64 / 1e9);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Integer energy merges identically in any order and grouping.
        #[test]
        fn merge_is_order_and_grouping_independent(
            adds in proptest::collection::vec(
                proptest::collection::vec((0usize..9, 0.0f64..1e6, 0u64..100_000), 0..6),
                1..40,
            ),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let parts: Vec<EnergyStats> = adds
                .iter()
                .map(|list| {
                    let mut e = EnergyStats::new();
                    for &(c, nj, cycles) in list {
                        e.add(EnergyComponent::ALL[c], nj, cycles);
                    }
                    e
                })
                .collect();
            let merged = |order: &[usize]| {
                let mut total = EnergyStats::new();
                for &i in order {
                    total.merge(&parts[i]);
                }
                total
            };
            let forward: Vec<usize> = (0..parts.len()).collect();
            let expected = merged(&forward);
            let reversed: Vec<usize> = forward.iter().rev().copied().collect();
            proptest::prop_assert_eq!(&merged(&reversed), &expected);
            // A seeded Fisher–Yates shuffle.
            let mut shuffled = forward.clone();
            let mut x = seed | 1;
            for i in (1..shuffled.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                shuffled.swap(i, (x % (i as u64 + 1)) as usize);
            }
            proptest::prop_assert_eq!(&merged(&shuffled), &expected);
            // Pairwise tree grouping: ((p0 p1) (p2 p3)) ...
            let mut level = parts.clone();
            while level.len() > 1 {
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut e = pair[0].clone();
                        if let Some(b) = pair.get(1) {
                            e.merge(b);
                        }
                        e
                    })
                    .collect();
            }
            proptest::prop_assert_eq!(&level[0], &expected);
        }
    }

    #[test]
    fn run_stats_count_instructions() {
        let mut s = RunStats::new();
        s.count_instruction(InstructionCategory::Mvm);
        s.count_instruction(InstructionCategory::Mvm);
        s.count_instruction(InstructionCategory::Vfu);
        assert_eq!(s.total_instructions(), 3);
        assert_eq!(s.dynamic_instructions[&InstructionCategory::Mvm], 2);
    }

    #[test]
    fn latency_conversions() {
        let mut s = RunStats::new();
        s.cycles = 2_000_000;
        assert_eq!(s.latency_ns(), 2e6);
        assert!((s.latency_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let mut s = RunStats::new();
        s.energy.add(EnergyComponent::Mvmu, 1.0, 1);
        assert!(format!("{s}").contains("MVMU"));
    }
}
