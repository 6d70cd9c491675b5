//! Lane-batched execution: the per-lane data view and the lane
//! certificate.
//!
//! A simulator built with `K` lanes keeps `K` copies of its data plane —
//! every register word and every shared-memory word — side by side, one
//! per request, while control, timing, energy and the attribute buffer
//! stay single (see the "Lanes" section of [`crate::machine`]). One pass
//! then serves `K` requests exactly as `K` solo runs would, provided no
//! control decision depends on lane data. [`certified`] proves that
//! statically for one core program.

use puma_core::config::CoreConfig;
use puma_core::fixed::Fixed;
use puma_isa::{AluOp, Instruction, MemAddr, Program, RegRef, RegSpace};

/// The same `width`-word range in every lane of a lane-major plane: lane
/// `l` is `words[l * stride..l * stride + width]`.
#[derive(Debug, Clone, Copy)]
pub struct Lanes<'a> {
    words: &'a [Fixed],
    stride: usize,
    width: usize,
    count: usize,
}

impl<'a> Lanes<'a> {
    /// A single lane over `words`.
    pub fn one(words: &'a [Fixed]) -> Self {
        Lanes { words, stride: words.len(), width: words.len(), count: 1 }
    }

    /// `count` lanes of `width` words packed back to back (a functional
    /// packet payload, or a vector result built lane after lane).
    ///
    /// # Panics
    ///
    /// If `words` is not exactly `count × width` words long.
    pub fn packed(words: &'a [Fixed], width: usize, count: usize) -> Self {
        assert_eq!(words.len(), width * count, "packed lanes must be count × width words");
        Lanes { words, stride: width, width, count }
    }

    /// `count` lanes of `width` words starting at `start` in a plane
    /// whose lanes are `stride` words apart. The caller has checked that
    /// the range lies inside one lane.
    pub(crate) fn strided(
        plane: &'a [Fixed],
        start: usize,
        width: usize,
        stride: usize,
        count: usize,
    ) -> Self {
        let end = start + (count - 1) * stride + width;
        Lanes { words: &plane[start..end], stride, width, count }
    }

    /// Number of lanes.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Words per lane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Lane `l`'s words.
    pub fn lane(&self, l: usize) -> &'a [Fixed] {
        let start = l * self.stride;
        &self.words[start..start + self.width]
    }

    /// Every lane's words, lane 0 first.
    pub fn iter(&self) -> impl Iterator<Item = &'a [Fixed]> + '_ {
        (0..self.count).map(|l| self.lane(l))
    }

    /// Copies these lanes to `start` in the first `lanes` lanes of a
    /// plane whose lanes are `stride` words apart: lane `l` to lane `l`,
    /// or a single lane to every lane.
    pub(crate) fn store(&self, plane: &mut [Fixed], start: usize, stride: usize, lanes: usize) {
        debug_assert!(self.count == 1 || self.count == lanes);
        for lane in 0..lanes {
            let src = self.lane(if self.count == 1 { 0 } else { lane });
            let dst = lane * stride + start;
            plane[dst..dst + self.width].copy_from_slice(src);
        }
    }
}

/// Register words of one core that may hold lane data: a flat bit per
/// word over the XbarIn, XbarOut and general banks.
struct Taint {
    bank_len: [usize; 3],
    words: Vec<bool>,
}

impl Taint {
    fn new(cfg: &CoreConfig) -> Self {
        let bank_len = [cfg.xbar_in_words(), cfg.xbar_out_words(), cfg.register_file_words];
        Taint { bank_len, words: vec![false; bank_len.iter().sum()] }
    }

    /// Flat offsets of `[base, base + width)`, clipped to the bank (words
    /// past it fault at run time, identically in every lane).
    fn span(&self, base: RegRef, width: usize) -> std::ops::Range<usize> {
        let bank = match base.space {
            RegSpace::XbarIn => 0,
            RegSpace::XbarOut => 1,
            RegSpace::General => 2,
        };
        let offset: usize = self.bank_len[..bank].iter().sum();
        let len = self.bank_len[bank];
        let start = (base.index as usize).min(len);
        offset + start..offset + (start + width).min(len)
    }

    /// Marks `[base, base + width)`; true if any word was newly marked.
    fn mark(&mut self, base: RegRef, width: usize) -> bool {
        let span = self.span(base, width);
        let fresh = self.words[span.clone()].iter().any(|&t| !t);
        self.words[span].fill(true);
        fresh
    }

    fn has(&self, reg: RegRef) -> bool {
        self.words[self.span(reg, 1)].iter().any(|&t| t)
    }

    fn index_tainted(&self, addr: MemAddr) -> bool {
        addr.index.is_some_and(|reg| self.has(reg))
    }
}

/// The lane certificate of one core program: true when no control
/// decision can depend on lane data, so every lane of a pass takes the
/// same path and sees the same timing.
///
/// The check is static and flow-insensitive. A register word is
/// *tainted* if any `Load`, `Alu`, `AluImm`, `Copy` or `Mvm` can write
/// it, or if an `AluInt` with a tainted source can write it (iterated to
/// a fixpoint). `Set` writes a constant and taints nothing. The program
/// is certified when no `Branch` operand, no index register of a
/// `Load`/`Store` address and no `Subsample` stride (which sets a read
/// width) is tainted.
///
/// Tile control programs need no check: their operands are immediates,
/// and they have no registers to index with. Packet faults, whose
/// decisions hash the payload, apply only to inter-node sends, which a
/// standalone node never makes.
pub fn certified(program: &Program, cfg: &CoreConfig) -> bool {
    let mut taint = Taint::new(cfg);
    let dim = cfg.mvmu.dim;
    for instr in &program.instructions {
        match *instr {
            Instruction::Load { dest, width, .. }
            | Instruction::Alu { dest, width, .. }
            | Instruction::AluImm { dest, width, .. }
            | Instruction::Copy { dest, width, .. } => {
                taint.mark(dest, width as usize);
            }
            Instruction::Mvm { mask, .. } => {
                for unit in mask.iter() {
                    let first = u16::try_from(unit * dim).unwrap_or(u16::MAX);
                    taint.mark(RegRef { space: RegSpace::XbarOut, index: first }, dim);
                }
            }
            _ => {}
        }
    }
    // Integer chains carry taint from any tainted source to their
    // destination, however many steps it takes.
    let mut changed = true;
    while changed {
        changed = false;
        for instr in &program.instructions {
            if let Instruction::AluInt { dest, src1, src2, .. } = *instr {
                if (taint.has(src1) || taint.has(src2)) && taint.mark(dest, 1) {
                    changed = true;
                }
            }
        }
    }
    program.instructions.iter().all(|instr| match *instr {
        Instruction::Branch { src1, src2, .. } => !taint.has(src1) && !taint.has(src2),
        Instruction::Load { addr, .. } | Instruction::Store { addr, .. } => {
            !taint.index_tainted(addr)
        }
        Instruction::Alu { op: AluOp::Subsample, src2, .. } => !taint.has(src2),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use puma_isa::asm::assemble;

    fn check(source: &str) -> bool {
        let program = Program::from_instructions(assemble(source).unwrap());
        certified(&program, &CoreConfig::default())
    }

    #[test]
    fn packed_and_strided_views_agree() {
        let words: Vec<Fixed> = (0..14).map(Fixed::from_bits).collect();
        let packed = Lanes::packed(&words[..6], 3, 2);
        assert_eq!(packed.lane(1), &words[3..6]);
        let strided = Lanes::strided(&words, 1, 2, 5, 3);
        let lanes: Vec<&[Fixed]> = strided.iter().collect();
        assert_eq!(lanes, vec![&words[1..3], &words[6..8], &words[11..13]]);
    }

    #[test]
    fn counters_are_certified_and_loaded_words_are_not() {
        assert!(check("set r0 3\nset r1 1\nisub r0 r0 r1\nbrn ne r0 r2 0\nhalt\n"));
        assert!(!check("load r0 @0 1\nbrn eq r0 r1 0\nhalt\n"));
        // The taint crosses an integer chain of any length.
        assert!(!check("load r5 @0 1\niadd r6 r5 r1\niadd r7 r6 r1\nbrn eq r7 r1 0\nhalt\n"));
        assert!(!check("mvm 1 0 0\nbrn eq xo3 r1 0\nhalt\n"));
        assert!(!check("load r5 @0 1\nload r0 @0+r5 4\nhalt\n"));
    }
}
