//! Per-core register state: XbarIn, XbarOut, and the general-purpose file.
//!
//! [`CoreRegisters`] is the single-core view (the compile-time operand
//! probe and the unit-test surface). The simulator itself packs every
//! core's three banks into one contiguous [`RegArena`] slab, indexed by
//! a per-core slot — hundreds of cores' register state then lives in one
//! allocation, and a serving replica clones one flat buffer. The slab is
//! lane-major: with `K` lanes it holds `K` copies of every core's banks,
//! one per request of a lane-batched pass.

use crate::lanes::Lanes;
use puma_core::config::CoreConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_isa::{RegRef, RegSpace};

/// All cores' register banks packed into one slab. Core `slot` owns the
/// range `[slot * stride, (slot + 1) * stride)` of each lane, laid out
/// XbarIn, then XbarOut, then the general-purpose file; lane `l` starts
/// at `l * plane`. Access semantics, watermark resets, and error messages
/// are identical to [`CoreRegisters`].
#[derive(Debug, Clone)]
pub struct RegArena {
    /// `lanes` planes of `plane` words, allocated zeroed so untouched
    /// lanes cost no resident memory.
    slab: Vec<Fixed>,
    /// Words per lane (every core slot).
    plane: usize,
    /// Lanes in use: every operation covers lanes `0..lanes`; the ones
    /// past it hold zeros.
    lanes: usize,
    /// Lanes allocated.
    capacity: usize,
    /// Bank sizes `[xbar_in, xbar_out, general]`, uniform across cores.
    bank_len: [usize; 3],
    /// Words per core slot (the sum of the bank sizes).
    stride: usize,
    /// Per-slot, per-bank exclusive write watermarks: reset clears only
    /// what was written.
    hi: Vec<[usize; 3]>,
}

impl RegArena {
    /// Allocates `slots` core slots sized per the core configuration.
    pub fn new(slots: usize, cfg: &CoreConfig) -> Self {
        Self::with_lanes(slots, cfg, 1)
    }

    /// [`RegArena::new`] with `lanes` register planes (at least one).
    pub fn with_lanes(slots: usize, cfg: &CoreConfig, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        let bank_len = [cfg.xbar_in_words(), cfg.xbar_out_words(), cfg.register_file_words];
        let stride = bank_len.iter().sum();
        RegArena {
            slab: Fixed::zeroed_vec(lanes * slots * stride),
            plane: slots * stride,
            lanes,
            capacity: lanes,
            bank_len,
            stride,
            hi: vec![[0; 3]; slots],
        }
    }

    /// Approximate heap footprint of the arena in bytes (the per-replica
    /// mutable state a serving worker clones).
    pub fn state_bytes(&self) -> usize {
        self.slab.len() * std::mem::size_of::<Fixed>()
            + self.hi.len() * std::mem::size_of::<[usize; 3]>()
    }

    /// Number of register lanes in use.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Puts the first `lanes` allocated lanes in use. Only on a clean
    /// arena — every slot just reset — so the lanes past the old count
    /// still hold zeros.
    ///
    /// # Panics
    ///
    /// If `lanes` is zero or exceeds the allocated lanes.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!((1..=self.capacity).contains(&lanes), "{lanes} of {} lanes", self.capacity);
        debug_assert!(self.hi.iter().all(|h| *h == [0; 3]), "lanes change on a dirty arena");
        self.lanes = lanes;
    }

    /// Zeroes every written register of one core slot in place, in
    /// every lane, at a cost proportional to the registers actually used.
    pub fn reset_slot(&mut self, slot: usize) {
        for lane in 0..self.lanes {
            let mut off = lane * self.plane + slot * self.stride;
            for (b, len) in self.bank_len.iter().enumerate() {
                self.slab[off..off + self.hi[slot][b]].fill(Fixed::ZERO);
                off += len;
            }
        }
        self.hi[slot] = [0; 3];
    }

    const fn bank_slot(space: RegSpace) -> usize {
        match space {
            RegSpace::XbarIn => 0,
            RegSpace::XbarOut => 1,
            RegSpace::General => 2,
        }
    }

    /// Lane-0 slab offset of `[reg, reg + width)` in core `slot`, or
    /// `None` if the range leaves the register's bank.
    fn offset(&self, slot: usize, reg: RegRef, width: usize) -> Option<usize> {
        let b = Self::bank_slot(reg.space);
        let start = reg.index as usize;
        (start + width <= self.bank_len[b])
            .then(|| slot * self.stride + self.bank_len[..b].iter().sum::<usize>() + start)
    }

    fn read_error(reg: RegRef) -> PumaError {
        PumaError::Execution { what: format!("register read out of range: {reg}") }
    }

    fn mark_written(&mut self, slot: usize, reg: RegRef, width: usize) {
        let hi = &mut self.hi[slot][Self::bank_slot(reg.space)];
        *hi = (*hi).max(reg.index as usize + width);
    }

    /// Reads one register of core `slot` in one lane.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn read(&self, lane: usize, slot: usize, reg: RegRef) -> Result<Fixed> {
        let at = self.offset(slot, reg, 1).ok_or_else(|| Self::read_error(reg))?;
        Ok(self.slab[lane * self.plane + at])
    }

    /// Reads one register that every lane holds alike — a branch operand,
    /// an index register, a read width: lane 0, which the lane certificate
    /// guarantees the other lanes agree with (checked in debug builds).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn read_uniform(&self, slot: usize, reg: RegRef) -> Result<Fixed> {
        let at = self.offset(slot, reg, 1).ok_or_else(|| Self::read_error(reg))?;
        let value = self.slab[at];
        debug_assert!(
            (1..self.lanes).all(|l| self.slab[l * self.plane + at] == value),
            "lanes disagree on {reg}: a lane-certified program read lane data as control"
        );
        Ok(value)
    }

    /// Writes one register of core `slot` in one lane.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn write(&mut self, lane: usize, slot: usize, reg: RegRef, value: Fixed) -> Result<()> {
        let at = self.offset(slot, reg, 1).ok_or_else(|| PumaError::Execution {
            what: format!("register write out of range: {reg}"),
        })?;
        self.slab[lane * self.plane + at] = value;
        self.mark_written(slot, reg, 1);
        Ok(())
    }

    /// Writes one register of core `slot` in every lane.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn write_all(&mut self, slot: usize, reg: RegRef, value: Fixed) -> Result<()> {
        for lane in 0..self.lanes {
            self.write(lane, slot, reg, value)?;
        }
        Ok(())
    }

    /// A view of the contiguous vector of `width` registers starting at
    /// `base`, in every lane.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn read_vec(&self, slot: usize, base: RegRef, width: usize) -> Result<Lanes<'_>> {
        let at = self.offset(slot, base, width).ok_or_else(|| PumaError::Execution {
            what: format!("register range out of bounds: {base}+{width}"),
        })?;
        Ok(Lanes::strided(&self.slab, at, width, self.plane, self.lanes))
    }

    /// Writes a contiguous vector starting at `base`: one lane of
    /// `values` per register lane, or a single lane written to all.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn write_vec(&mut self, slot: usize, base: RegRef, values: Lanes<'_>) -> Result<()> {
        let width = values.width();
        let at = self.offset(slot, base, width).ok_or_else(|| PumaError::Execution {
            what: format!("register range out of bounds: {base}+{width}"),
        })?;
        values.store(&mut self.slab, at, self.plane, self.lanes);
        self.mark_written(slot, base, width);
        Ok(())
    }

    /// Direct view of one core's XbarIn bank (the DAC inputs) in one lane.
    pub fn xbar_in(&self, lane: usize, slot: usize) -> &[Fixed] {
        let at = lane * self.plane + slot * self.stride;
        &self.slab[at..at + self.bank_len[0]]
    }

    /// Direct mutable view of one core's XbarOut bank (the ADC outputs)
    /// in one lane. The whole bank counts as written for
    /// [`RegArena::reset_slot`].
    pub fn xbar_out_mut(&mut self, lane: usize, slot: usize) -> &mut [Fixed] {
        self.hi[slot][1] = self.bank_len[1];
        let at = lane * self.plane + slot * self.stride + self.bank_len[0];
        &mut self.slab[at..at + self.bank_len[1]]
    }
}

/// The three register banks of one core (§5.4).
#[derive(Debug, Clone)]
pub struct CoreRegisters {
    xbar_in: Vec<Fixed>,
    xbar_out: Vec<Fixed>,
    general: Vec<Fixed>,
    /// Per-bank exclusive write watermarks ([xbar_in, xbar_out, general]):
    /// [`CoreRegisters::reset`] clears only what was written.
    hi: [usize; 3],
}

impl CoreRegisters {
    /// Allocates registers sized per the core configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        CoreRegisters {
            xbar_in: vec![Fixed::ZERO; cfg.xbar_in_words()],
            xbar_out: vec![Fixed::ZERO; cfg.xbar_out_words()],
            general: vec![Fixed::ZERO; cfg.register_file_words],
            hi: [0; 3],
        }
    }

    /// Zeroes every written register in place — identical post-state to a
    /// fresh [`CoreRegisters::new`], at a cost proportional to the
    /// registers actually used (per-request resets on serving paths).
    pub fn reset(&mut self) {
        self.xbar_in[..self.hi[0]].fill(Fixed::ZERO);
        self.xbar_out[..self.hi[1]].fill(Fixed::ZERO);
        self.general[..self.hi[2]].fill(Fixed::ZERO);
        self.hi = [0; 3];
    }

    const fn bank_slot(space: RegSpace) -> usize {
        match space {
            RegSpace::XbarIn => 0,
            RegSpace::XbarOut => 1,
            RegSpace::General => 2,
        }
    }

    fn bank(&self, space: RegSpace) -> &[Fixed] {
        match space {
            RegSpace::XbarIn => &self.xbar_in,
            RegSpace::XbarOut => &self.xbar_out,
            RegSpace::General => &self.general,
        }
    }

    fn bank_mut(&mut self, space: RegSpace) -> &mut [Fixed] {
        match space {
            RegSpace::XbarIn => &mut self.xbar_in,
            RegSpace::XbarOut => &mut self.xbar_out,
            RegSpace::General => &mut self.general,
        }
    }

    /// Reads one register.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn read(&self, reg: RegRef) -> Result<Fixed> {
        self.bank(reg.space).get(reg.index as usize).copied().ok_or_else(|| PumaError::Execution {
            what: format!("register read out of range: {reg}"),
        })
    }

    /// Writes one register.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn write(&mut self, reg: RegRef, value: Fixed) -> Result<()> {
        let slot = self.bank_mut(reg.space).get_mut(reg.index as usize).ok_or_else(|| {
            PumaError::Execution { what: format!("register write out of range: {reg}") }
        })?;
        *slot = value;
        let hi = &mut self.hi[Self::bank_slot(reg.space)];
        *hi = (*hi).max(reg.index as usize + 1);
        Ok(())
    }

    /// Reads a contiguous vector of `width` registers starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn read_vec(&self, base: RegRef, width: usize) -> Result<Vec<Fixed>> {
        let bank = self.bank(base.space);
        let start = base.index as usize;
        bank.get(start..start + width).map(|s| s.to_vec()).ok_or_else(|| PumaError::Execution {
            what: format!("register range out of bounds: {base}+{width}"),
        })
    }

    /// Writes a contiguous vector starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn write_vec(&mut self, base: RegRef, values: &[Fixed]) -> Result<()> {
        let bank = self.bank_mut(base.space);
        let start = base.index as usize;
        let slot =
            bank.get_mut(start..start + values.len()).ok_or_else(|| PumaError::Execution {
                what: format!("register range out of bounds: {base}+{}", values.len()),
            })?;
        slot.copy_from_slice(values);
        let hi = &mut self.hi[Self::bank_slot(base.space)];
        *hi = (*hi).max(start + values.len());
        Ok(())
    }

    /// Direct view of the XbarIn bank (the DAC inputs).
    pub fn xbar_in(&self) -> &[Fixed] {
        &self.xbar_in
    }

    /// Direct mutable view of the XbarOut bank (the ADC outputs). The
    /// whole bank counts as written for [`CoreRegisters::reset`].
    pub fn xbar_out_mut(&mut self) -> &mut [Fixed] {
        self.hi[1] = self.xbar_out.len();
        &mut self.xbar_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_core::config::CoreConfig;

    fn regs() -> CoreRegisters {
        CoreRegisters::new(&CoreConfig::default())
    }

    #[test]
    fn read_write_each_space() {
        let mut r = regs();
        for reg in [RegRef::xbar_in(0), RegRef::xbar_out(255), RegRef::general(511)] {
            r.write(reg, Fixed::ONE).unwrap();
            assert_eq!(r.read(reg).unwrap(), Fixed::ONE);
        }
    }

    #[test]
    fn default_sizes_match_config() {
        let cfg = CoreConfig::default();
        let r = CoreRegisters::new(&cfg);
        assert_eq!(r.xbar_in().len(), cfg.xbar_in_words());
        assert!(r.read(RegRef::general(cfg.register_file_words as u16 - 1)).is_ok());
    }

    #[test]
    fn out_of_range_is_error_not_panic() {
        let mut r = regs();
        assert!(r.read(RegRef::general(512)).is_err());
        assert!(r.write(RegRef::xbar_in(9999), Fixed::ZERO).is_err());
    }

    #[test]
    fn vector_access_roundtrips() {
        let mut r = regs();
        let values: Vec<Fixed> = (0..128).map(|i| Fixed::from_bits(i as i16)).collect();
        r.write_vec(RegRef::general(10), &values).unwrap();
        assert_eq!(r.read_vec(RegRef::general(10), 128).unwrap(), values);
    }

    #[test]
    fn vector_overrun_is_error() {
        let mut r = regs();
        assert!(r.read_vec(RegRef::general(500), 64).is_err());
        let values = vec![Fixed::ZERO; 64];
        assert!(r.write_vec(RegRef::general(500), &values).is_err());
    }

    #[test]
    fn arena_slots_are_isolated() {
        let cfg = CoreConfig::default();
        let mut a = RegArena::new(3, &cfg);
        a.write(0, 1, RegRef::general(0), Fixed::ONE).unwrap();
        assert_eq!(a.read(0, 1, RegRef::general(0)).unwrap(), Fixed::ONE);
        assert_eq!(a.read(0, 0, RegRef::general(0)).unwrap(), Fixed::ZERO);
        assert_eq!(a.read(0, 2, RegRef::general(0)).unwrap(), Fixed::ZERO);
        // Slot reset clears only that slot.
        a.write(0, 2, RegRef::xbar_in(5), Fixed::ONE).unwrap();
        a.reset_slot(1);
        assert_eq!(a.read(0, 1, RegRef::general(0)).unwrap(), Fixed::ZERO);
        assert_eq!(a.read(0, 2, RegRef::xbar_in(5)).unwrap(), Fixed::ONE);
    }

    #[test]
    fn arena_bounds_match_single_core_semantics() {
        let cfg = CoreConfig::default();
        let mut a = RegArena::new(2, &cfg);
        // The last general register of slot 0 is in bounds; one past it
        // is an error even though slot 1's banks follow in the slab.
        let last = RegRef::general(cfg.register_file_words as u16 - 1);
        a.write(0, 0, last, Fixed::ONE).unwrap();
        assert!(a.read(0, 0, RegRef::general(cfg.register_file_words as u16)).is_err());
        assert!(a.write_vec(0, last, Lanes::one(&[Fixed::ZERO; 2])).is_err());
        assert_eq!(a.xbar_in(0, 0).len(), cfg.xbar_in_words());
        assert_eq!(a.xbar_out_mut(0, 1).len(), cfg.xbar_out_words());
    }

    #[test]
    fn arena_lanes_are_isolated_and_reset_together() {
        let cfg = CoreConfig::default();
        let mut a = RegArena::with_lanes(2, &cfg, 3);
        let r = RegRef::general(7);
        a.write_all(1, r, Fixed::ONE).unwrap();
        assert_eq!(a.read_uniform(1, r).unwrap(), Fixed::ONE);
        a.write(2, 1, r, Fixed::MAX).unwrap();
        assert_eq!(a.read(1, 1, r).unwrap(), Fixed::ONE);
        assert_eq!(a.read(2, 1, r).unwrap(), Fixed::MAX);
        let words = [Fixed::ONE, Fixed::MIN, Fixed::MAX];
        a.write_vec(1, RegRef::general(0), Lanes::packed(&words, 1, 3)).unwrap();
        let view = a.read_vec(1, RegRef::general(0), 1).unwrap();
        assert_eq!(view.iter().map(|l| l[0]).collect::<Vec<_>>(), words);
        assert_eq!(a.read(0, 0, RegRef::general(0)).unwrap(), Fixed::ZERO);
        a.reset_slot(1);
        for lane in 0..3 {
            assert_eq!(a.read(lane, 1, r).unwrap(), Fixed::ZERO);
            assert_eq!(a.read(lane, 1, RegRef::general(0)).unwrap(), Fixed::ZERO);
        }
    }
}
