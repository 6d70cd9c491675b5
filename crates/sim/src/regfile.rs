//! Per-core register state: XbarIn, XbarOut, and the general-purpose file.
//!
//! [`CoreRegisters`] is the single-core view (the compile-time operand
//! probe and the unit-test surface). The simulator itself packs every
//! core's three banks into one contiguous [`RegArena`] slab, indexed by
//! a per-core slot — hundreds of cores' register state then lives in one
//! allocation, and a serving replica clones one flat buffer.

use puma_core::config::CoreConfig;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use puma_isa::{RegRef, RegSpace};

/// All cores' register banks packed into one slab. Core `slot` owns the
/// range `[slot * stride, (slot + 1) * stride)`, laid out XbarIn, then
/// XbarOut, then the general-purpose file. Access semantics, watermark
/// resets, and error messages are identical to [`CoreRegisters`].
#[derive(Debug, Clone)]
pub struct RegArena {
    slab: Vec<Fixed>,
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
        let bank_len = [cfg.xbar_in_words(), cfg.xbar_out_words(), cfg.register_file_words];
        let stride = bank_len.iter().sum();
        RegArena {
            slab: vec![Fixed::ZERO; slots * stride],
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

    /// Zeroes every written register of one core slot in place, at a
    /// cost proportional to the registers actually used.
    pub fn reset_slot(&mut self, slot: usize) {
        let base = slot * self.stride;
        let mut off = base;
        for (b, len) in self.bank_len.iter().enumerate() {
            self.slab[off..off + self.hi[slot][b]].fill(Fixed::ZERO);
            off += len;
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

    /// Start offset of `(slot, bank)` in the slab.
    fn bank_base(&self, slot: usize, bank: usize) -> usize {
        slot * self.stride + self.bank_len[..bank].iter().sum::<usize>()
    }

    fn bank(&self, slot: usize, space: RegSpace) -> &[Fixed] {
        let b = Self::bank_slot(space);
        let base = self.bank_base(slot, b);
        &self.slab[base..base + self.bank_len[b]]
    }

    fn bank_mut(&mut self, slot: usize, space: RegSpace) -> &mut [Fixed] {
        let b = Self::bank_slot(space);
        let base = self.bank_base(slot, b);
        &mut self.slab[base..base + self.bank_len[b]]
    }

    /// Reads one register of core `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn read(&self, slot: usize, reg: RegRef) -> Result<Fixed> {
        self.bank(slot, reg.space).get(reg.index as usize).copied().ok_or_else(|| {
            PumaError::Execution { what: format!("register read out of range: {reg}") }
        })
    }

    /// Writes one register of core `slot`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] on out-of-range indices.
    pub fn write(&mut self, slot: usize, reg: RegRef, value: Fixed) -> Result<()> {
        let cell = self.bank_mut(slot, reg.space).get_mut(reg.index as usize).ok_or_else(|| {
            PumaError::Execution { what: format!("register write out of range: {reg}") }
        })?;
        *cell = value;
        let hi = &mut self.hi[slot][Self::bank_slot(reg.space)];
        *hi = (*hi).max(reg.index as usize + 1);
        Ok(())
    }

    /// A view of the contiguous vector of `width` registers starting at
    /// `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn read_vec(&self, slot: usize, base: RegRef, width: usize) -> Result<&[Fixed]> {
        let bank = self.bank(slot, base.space);
        let start = base.index as usize;
        bank.get(start..start + width).ok_or_else(|| PumaError::Execution {
            what: format!("register range out of bounds: {base}+{width}"),
        })
    }

    /// Writes a contiguous vector starting at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range exceeds the bank.
    pub fn write_vec(&mut self, slot: usize, base: RegRef, values: &[Fixed]) -> Result<()> {
        let hi_slot = Self::bank_slot(base.space);
        let bank = self.bank_mut(slot, base.space);
        let start = base.index as usize;
        let cells =
            bank.get_mut(start..start + values.len()).ok_or_else(|| PumaError::Execution {
                what: format!("register range out of bounds: {base}+{}", values.len()),
            })?;
        cells.copy_from_slice(values);
        let hi = &mut self.hi[slot][hi_slot];
        *hi = (*hi).max(start + values.len());
        Ok(())
    }

    /// Direct view of one core's XbarIn bank (the DAC inputs).
    pub fn xbar_in(&self, slot: usize) -> &[Fixed] {
        self.bank(slot, RegSpace::XbarIn)
    }

    /// Direct mutable view of one core's XbarOut bank (the ADC outputs).
    /// The whole bank counts as written for [`RegArena::reset_slot`].
    pub fn xbar_out_mut(&mut self, slot: usize) -> &mut [Fixed] {
        self.hi[slot][1] = self.bank_len[1];
        self.bank_mut(slot, RegSpace::XbarOut)
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
        a.write(1, RegRef::general(0), Fixed::ONE).unwrap();
        assert_eq!(a.read(1, RegRef::general(0)).unwrap(), Fixed::ONE);
        assert_eq!(a.read(0, RegRef::general(0)).unwrap(), Fixed::ZERO);
        assert_eq!(a.read(2, RegRef::general(0)).unwrap(), Fixed::ZERO);
        // Slot reset clears only that slot.
        a.write(2, RegRef::xbar_in(5), Fixed::ONE).unwrap();
        a.reset_slot(1);
        assert_eq!(a.read(1, RegRef::general(0)).unwrap(), Fixed::ZERO);
        assert_eq!(a.read(2, RegRef::xbar_in(5)).unwrap(), Fixed::ONE);
    }

    #[test]
    fn arena_bounds_match_single_core_semantics() {
        let cfg = CoreConfig::default();
        let mut a = RegArena::new(2, &cfg);
        // The last general register of slot 0 is in bounds; one past it
        // is an error even though slot 1's banks follow in the slab.
        let last = RegRef::general(cfg.register_file_words as u16 - 1);
        a.write(0, last, Fixed::ONE).unwrap();
        assert!(a.read(0, RegRef::general(cfg.register_file_words as u16)).is_err());
        assert!(a.write_vec(0, last, &[Fixed::ZERO; 2]).is_err());
        assert_eq!(a.xbar_in(0).len(), cfg.xbar_in_words());
        assert_eq!(a.xbar_out_mut(1).len(), cfg.xbar_out_words());
    }
}
