//! Tile shared memory with the attribute buffer (§4.1.1, Fig. 6).
//!
//! Every data word carries two attributes: `valid` and `count`. A write
//! blocks until the word is invalid, then sets the data, marks it valid,
//! and records the consumer count. A read blocks until the word is valid,
//! then atomically decrements the count, invalidating the word when the
//! count reaches zero. This is the inter-core synchronization fabric that
//! lets producer and consumer cores pipeline without races.
//!
//! Storage is arena-packed: [`MemArena`] holds every tile's data plane in
//! one contiguous `Vec<Fixed>` and every tile's attribute plane in one
//! contiguous `Vec<Attr>`, indexed by per-tile base offsets. Event
//! dispatch across hundreds of tiles then walks two allocations instead
//! of two per tile, and a serving replica clones two flat buffers.
//! [`SharedMemory`] remains as the single-tile view (the unit-test and
//! protocol-test surface) and is a one-slot arena.
//!
//! The data plane is lane-major: an arena built with `K` lanes holds `K`
//! copies of it back to back, one per request of a lane-batched pass,
//! while the attribute planes stay single (synchronization is shared by
//! every lane). Reads return all lanes of a range at once ([`Lanes`]).

use crate::lanes::Lanes;
use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;

/// Why a memory operation could not proceed (the caller blocks and retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBlock {
    /// A read found at least one invalid word (producer not done).
    NotValid {
        /// First offending address.
        addr: u32,
    },
    /// A write found at least one still-valid word (consumer not done).
    StillValid {
        /// First offending address.
        addr: u32,
    },
}

/// Result of attempting a blocking memory operation.
#[derive(Debug, Clone, PartialEq)]
pub enum MemOutcome<T> {
    /// The operation completed.
    Done(T),
    /// The operation must block; state unchanged.
    Blocked(MemBlock),
}

/// Per-tile slot metadata inside a [`MemArena`].
#[derive(Debug, Clone)]
struct MemSlot {
    /// First word of this tile's region in the shared data/attr planes.
    base: usize,
    /// Capacity in words.
    words: usize,
    /// Exclusive upper bound (tile-relative) of the words ever written —
    /// the per-tile dirty range: reset only clears `[0, hi)`, keeping
    /// per-request resets proportional to the memory actually used.
    hi: usize,
    /// Monotonic counter bumped on every state change of this tile's
    /// region, used by the simulator to retry blocked agents only when
    /// something changed.
    generation: u64,
}

/// One lane of a [`MemArena`]'s valid words and their consumer counts
/// (see [`MemArena::save`]).
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    /// Per tile: the dirty-range length and the change counter.
    slots: Vec<(usize, u64)>,
    /// Runs of valid words: `(tile, tile-relative start, length)`.
    runs: Vec<(u32, u32, u32)>,
    /// The runs' words, one run after another.
    data: Vec<Fixed>,
    /// The runs' consumer counts, likewise.
    count: Vec<u16>,
}

impl MemImage {
    /// Heap bytes held.
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<(usize, u64)>()
            + self.runs.len() * std::mem::size_of::<(u32, u32, u32)>()
            + self.data.len() * std::mem::size_of::<Fixed>()
            + self.count.len() * std::mem::size_of::<u16>()
    }
}

/// All tiles' shared memories packed into contiguous planes.
///
/// Blocking semantics, error messages, and the dirty-watermark reset are
/// identical to the historical per-tile [`SharedMemory`]; only the
/// storage layout changed. Every operation takes the tile index first.
///
/// The attribute buffer is stored **planar** — a `u8` validity plane and
/// a `u16` count plane — rather than as an array of `(valid, count)`
/// structs: the per-word loops of the Fig. 6 protocol (scan for an
/// invalid word, decrement-and-invalidate, bulk produce) then compile to
/// straight-line SIMD over dense lanes, which is where a timing run of a
/// sync-heavy workload spends most of its wall-clock (millions of
/// attribute words per inference).
#[derive(Debug, Clone)]
pub struct MemArena {
    /// `lanes` data planes of `plane` words each, lane after lane,
    /// allocated zeroed so lanes and tiles never written cost no
    /// resident memory.
    data: Vec<Fixed>,
    /// Words per lane (every tile's region).
    plane: usize,
    /// Lanes in use: every operation covers lanes `0..lanes`; the ones
    /// past it hold zeros.
    lanes: usize,
    /// Lanes allocated.
    capacity: usize,
    /// Validity plane: 1 = valid (unconsumed data), 0 = invalid.
    valid: Vec<u8>,
    /// Remaining-consumer plane; meaningful only where `valid` is 1.
    count: Vec<u16>,
    slots: Vec<MemSlot>,
}

impl MemArena {
    /// Allocates `tiles` regions of `words` invalid words each.
    pub fn new(tiles: usize, words: usize) -> Self {
        Self::with_lanes(tiles, words, 1)
    }

    /// [`MemArena::new`] with `lanes` data planes (at least one).
    pub fn with_lanes(tiles: usize, words: usize, lanes: usize) -> Self {
        let lanes = lanes.max(1);
        MemArena {
            data: Fixed::zeroed_vec(lanes * tiles * words),
            plane: tiles * words,
            lanes,
            capacity: lanes,
            valid: vec![0; tiles * words],
            count: vec![0; tiles * words],
            slots: (0..tiles)
                .map(|t| MemSlot { base: t * words, words, hi: 0, generation: 0 })
                .collect(),
        }
    }

    /// Number of tile regions.
    pub fn tiles(&self) -> usize {
        self.slots.len()
    }

    /// Puts the first `lanes` allocated lanes in use. Only on a clean
    /// arena — every tile just reset — so the lanes past the old count
    /// still hold zeros.
    ///
    /// # Panics
    ///
    /// If `lanes` is zero or exceeds the allocated lanes.
    pub fn set_lanes(&mut self, lanes: usize) {
        assert!((1..=self.capacity).contains(&lanes), "{lanes} of {} lanes", self.capacity);
        debug_assert!(self.slots.iter().all(|s| s.hi == 0), "lanes change on a dirty arena");
        self.lanes = lanes;
    }

    /// Capacity of one tile region in words.
    pub fn words(&self, tile: usize) -> usize {
        self.slots[tile].words
    }

    /// Approximate heap footprint of the arena in bytes (the per-replica
    /// mutable state a serving worker clones).
    pub fn state_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<Fixed>()
            + self.valid.len()
            + self.count.len() * std::mem::size_of::<u16>()
            + self.slots.len() * std::mem::size_of::<MemSlot>()
    }

    /// Clears one tile's data and attributes in place — identical
    /// post-state to a fresh region, without re-allocating. Only the
    /// tile's dirty range `[0, hi)` is touched.
    pub fn reset_tile(&mut self, tile: usize) {
        let slot = &mut self.slots[tile];
        let (base, hi) = (slot.base, slot.hi);
        for lane in 0..self.lanes {
            let start = lane * self.plane + base;
            self.data[start..start + hi].fill(Fixed::ZERO);
        }
        self.valid[base..base + hi].fill(0);
        self.count[base..base + hi].fill(0);
        slot.hi = 0;
        slot.generation = 0;
    }

    /// Lane 0 of every tile's valid words with their consumer counts —
    /// the image [`MemArena::restore`] writes back. Invalid words are not
    /// saved: on an arena that has only been written since its reset,
    /// they hold zeros.
    pub fn save(&self) -> MemImage {
        let mut image = MemImage::default();
        for (tile, slot) in self.slots.iter().enumerate() {
            image.slots.push((slot.hi, slot.generation));
            let valid = &self.valid[slot.base..slot.base + slot.hi];
            let mut at = 0;
            while let Some(start) = Self::first_one(&valid[at..]).map(|i| at + i) {
                let len =
                    valid[start..].iter().position(|&v| v == 0).unwrap_or(valid.len() - start);
                let words = slot.base + start..slot.base + start + len;
                image.runs.push((tile as u32, start as u32, len as u32));
                image.data.extend_from_slice(&self.data[words.clone()]);
                image.count.extend_from_slice(&self.count[words]);
                at = start + len;
            }
        }
        image
    }

    /// Resets every tile, then writes `image` into every lane in use:
    /// the state [`MemArena::save`] saw, provided the arena had only
    /// been written since its reset, alike in every lane. Only the dirty
    /// ranges and the saved words are touched.
    ///
    /// # Panics
    ///
    /// If `image` was saved from an arena of another tile count.
    pub fn restore(&mut self, image: &MemImage) {
        assert_eq!(image.slots.len(), self.slots.len(), "image of another arena");
        for (tile, &(hi, generation)) in image.slots.iter().enumerate() {
            self.reset_tile(tile);
            let slot = &mut self.slots[tile];
            slot.hi = hi;
            slot.generation = generation;
        }
        let mut at = 0;
        for &(tile, start, len) in &image.runs {
            let (words, len) = (self.slots[tile as usize].base + start as usize, len as usize);
            for lane in 0..self.lanes {
                let first = lane * self.plane + words;
                self.data[first..first + len].copy_from_slice(&image.data[at..at + len]);
            }
            self.valid[words..words + len].fill(1);
            self.count[words..words + len].copy_from_slice(&image.count[at..at + len]);
            at += len;
        }
    }

    /// Monotonic change counter for one tile (bumps on successful reads
    /// and writes).
    pub fn generation(&self, tile: usize) -> u64 {
        self.slots[tile].generation
    }

    /// Resolves `[addr, addr+width)` within `tile`'s region to an
    /// arena-absolute start offset.
    fn check_range(&self, tile: usize, addr: u32, width: usize) -> Result<usize> {
        let slot = &self.slots[tile];
        let end = addr as usize + width;
        if end > slot.words {
            return Err(PumaError::Execution {
                what: format!(
                    "shared-memory access [{addr}, {end}) exceeds capacity {}",
                    slot.words
                ),
            });
        }
        Ok(slot.base + addr as usize)
    }

    /// Every lane's words at arena-absolute `[start, start + width)`.
    fn lanes_at(&self, start: usize, width: usize) -> Lanes<'_> {
        Lanes::strided(&self.data, start, width, self.plane, self.lanes)
    }

    /// Attempts a blocking consume-read of `width` words (Fig. 6 read),
    /// returning a view of the words read in every lane.
    ///
    /// All words must be valid; each has its count decremented and is
    /// invalidated when the count reaches zero.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn try_read(
        &mut self,
        tile: usize,
        addr: u32,
        width: usize,
    ) -> Result<MemOutcome<Lanes<'_>>> {
        let start = self.check_range(tile, addr, width)?;
        if let Some(i) = Self::first_zero(&self.valid[start..start + width]) {
            return Ok(MemOutcome::Blocked(MemBlock::NotValid { addr: addr + i as u32 }));
        }
        self.consume_attrs(start, width);
        self.slots[tile].generation += 1;
        Ok(MemOutcome::Done(self.lanes_at(start, width)))
    }

    /// Index of the first zero byte in `lane`, if any — the bulk form of
    /// the per-word validity scan. Validity bytes are always 0 or 1, so
    /// an 8-byte chunk has a zero byte exactly when it differs from
    /// all-ones, and `trailing_zeros` of the XOR locates it.
    #[inline]
    fn first_zero(lane: &[u8]) -> Option<usize> {
        const ONES: u64 = 0x0101_0101_0101_0101;
        let mut chunks = lane.chunks_exact(8);
        let mut i = 0;
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            let z = w ^ ONES;
            if z != 0 {
                return Some(i + (z.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        chunks.remainder().iter().position(|&v| v == 0).map(|j| i + j)
    }

    /// Index of the first nonzero (valid) byte in `lane`, if any — the
    /// bulk form of probing a write destination for a still-valid word.
    #[inline]
    fn first_one(lane: &[u8]) -> Option<usize> {
        let mut chunks = lane.chunks_exact(8);
        let mut i = 0;
        for c in chunks.by_ref() {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            if w != 0 {
                return Some(i + (w.trailing_zeros() / 8) as usize);
            }
            i += 8;
        }
        chunks.remainder().iter().position(|&v| v != 0).map(|j| i + j)
    }

    /// Decrements every consumer count in `[start, start+width)` and
    /// derives validity: a word stays valid exactly while consumers
    /// remain. Precondition: every word in the range is valid.
    #[inline]
    fn consume_attrs(&mut self, start: usize, width: usize) {
        let counts = &mut self.count[start..start + width];
        let valids = &mut self.valid[start..start + width];
        for (c, v) in counts.iter_mut().zip(valids.iter_mut()) {
            *c = c.saturating_sub(1);
            *v = (*c != 0) as u8;
        }
    }

    /// [`MemArena::try_read`] without materializing the data: the
    /// attribute buffer is updated identically (counts decremented, words
    /// invalidated at zero), but no vector is allocated. The timing-mode
    /// simulator uses this for loads/sends whose payload is never
    /// inspected — synchronization behaviour is bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn try_consume(&mut self, tile: usize, addr: u32, width: usize) -> Result<MemOutcome<()>> {
        let start = self.check_range(tile, addr, width)?;
        if let Some(i) = Self::first_zero(&self.valid[start..start + width]) {
            return Ok(MemOutcome::Blocked(MemBlock::NotValid { addr: addr + i as u32 }));
        }
        self.consume_attrs(start, width);
        self.slots[tile].generation += 1;
        Ok(MemOutcome::Done(()))
    }

    /// Attempts a blocking write of `values` with consumer count `count`
    /// (Fig. 6 write). All destination words must be invalid. `values`
    /// holds one lane per data lane, or a single lane written to all.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds or
    /// `count` is zero (a zero-consumer write would deadlock all readers).
    pub fn try_write(
        &mut self,
        tile: usize,
        addr: u32,
        values: Lanes<'_>,
        count: u16,
    ) -> Result<MemOutcome<()>> {
        let width = values.width();
        let start = self.check_range(tile, addr, width)?;
        if count == 0 {
            return Err(PumaError::Execution {
                what: format!("write at {addr} with zero consumer count"),
            });
        }
        if let Some(i) = Self::first_one(&self.valid[start..start + width]) {
            return Ok(MemOutcome::Blocked(MemBlock::StillValid { addr: addr + i as u32 }));
        }
        values.store(&mut self.data, start, self.plane, self.lanes);
        self.valid[start..start + width].fill(1);
        self.count[start..start + width].fill(count);
        let slot = &mut self.slots[tile];
        slot.hi = slot.hi.max(addr as usize + width);
        slot.generation += 1;
        Ok(MemOutcome::Done(()))
    }

    /// [`MemArena::try_write`] of an all-zero payload, without the
    /// caller allocating one — the timing-mode path for stores and
    /// receives, whose payloads are not computed. Attribute behaviour and
    /// the written data (zeros) are identical to passing a zero slice.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds or
    /// `count` is zero.
    pub fn try_write_zeros(
        &mut self,
        tile: usize,
        addr: u32,
        width: usize,
        count: u16,
    ) -> Result<MemOutcome<()>> {
        let start = self.check_range(tile, addr, width)?;
        if count == 0 {
            return Err(PumaError::Execution {
                what: format!("write at {addr} with zero consumer count"),
            });
        }
        if let Some(i) = Self::first_one(&self.valid[start..start + width]) {
            return Ok(MemOutcome::Blocked(MemBlock::StillValid { addr: addr + i as u32 }));
        }
        for lane in 0..self.lanes {
            let dst = lane * self.plane + start;
            self.data[dst..dst + width].fill(Fixed::ZERO);
        }
        self.valid[start..start + width].fill(1);
        self.count[start..start + width].fill(count);
        let slot = &mut self.slots[tile];
        slot.hi = slot.hi.max(addr as usize + width);
        slot.generation += 1;
        Ok(MemOutcome::Done(()))
    }

    /// Host-side non-consuming read of one lane (used to fetch outputs
    /// after a run).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn peek(&self, lane: usize, tile: usize, addr: u32, width: usize) -> Result<&[Fixed]> {
        let start = self.check_range(tile, addr, width)?;
        Ok(self.lanes_at(start, width).lane(lane))
    }

    /// Host-side forced write (used to inject inputs before a run); does not
    /// respect blocking semantics. `values` holds one lane per data lane,
    /// or a single lane written to all.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn poke(&mut self, tile: usize, addr: u32, values: Lanes<'_>, count: u16) -> Result<()> {
        let width = values.width();
        let start = self.check_range(tile, addr, width)?;
        values.store(&mut self.data, start, self.plane, self.lanes);
        self.valid[start..start + width].fill(1);
        self.count[start..start + width].fill(count);
        let slot = &mut self.slots[tile];
        slot.hi = slot.hi.max(addr as usize + width);
        slot.generation += 1;
        Ok(())
    }

    /// True if the word at `addr` is valid (has unconsumed data).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if out of bounds.
    pub fn is_valid(&self, tile: usize, addr: u32) -> Result<bool> {
        let start = self.check_range(tile, addr, 1)?;
        Ok(self.valid[start] != 0)
    }

    /// Tile-relative address of the first **valid** word in
    /// `[addr, addr+width)`, if any — the bulk form of probing a
    /// destination range for writability (a receive blocks on the first
    /// still-valid word), replacing a per-word [`MemArena::is_valid`]
    /// loop with one bounds check and a dense scan.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn first_valid(&self, tile: usize, addr: u32, width: usize) -> Result<Option<u32>> {
        let start = self.check_range(tile, addr, width)?;
        Ok(Self::first_one(&self.valid[start..start + width]).map(|i| addr + i as u32))
    }
}

/// Tile shared memory: data words plus the attribute buffer. A
/// single-tile view over a one-slot [`MemArena`] — the historical
/// standalone type, kept as the protocol-test surface.
#[derive(Debug, Clone)]
pub struct SharedMemory {
    arena: MemArena,
}

impl SharedMemory {
    /// Allocates `words` invalid words.
    pub fn new(words: usize) -> Self {
        SharedMemory { arena: MemArena::new(1, words) }
    }

    /// Capacity in words.
    pub fn words(&self) -> usize {
        self.arena.words(0)
    }

    /// Clears data and attributes in place — identical post-state to a
    /// fresh [`SharedMemory::new`] of the same capacity, without
    /// re-allocating (the simulator resets per request on serving paths).
    pub fn reset(&mut self) {
        self.arena.reset_tile(0);
    }

    /// Monotonic change counter (bumps on successful reads and writes).
    pub fn generation(&self) -> u64 {
        self.arena.generation(0)
    }

    /// Attempts a blocking consume-read of `width` words (Fig. 6 read).
    ///
    /// All words must be valid; each has its count decremented and is
    /// invalidated when the count reaches zero.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn try_read(&mut self, addr: u32, width: usize) -> Result<MemOutcome<Vec<Fixed>>> {
        Ok(match self.arena.try_read(0, addr, width)? {
            MemOutcome::Done(words) => MemOutcome::Done(words.lane(0).to_vec()),
            MemOutcome::Blocked(b) => MemOutcome::Blocked(b),
        })
    }

    /// [`SharedMemory::try_read`] without materializing the data; see
    /// [`MemArena::try_consume`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn try_consume(&mut self, addr: u32, width: usize) -> Result<MemOutcome<()>> {
        self.arena.try_consume(0, addr, width)
    }

    /// Attempts a blocking write of `values` with consumer count `count`
    /// (Fig. 6 write). All destination words must be invalid.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds or
    /// `count` is zero (a zero-consumer write would deadlock all readers).
    pub fn try_write(&mut self, addr: u32, values: &[Fixed], count: u16) -> Result<MemOutcome<()>> {
        self.arena.try_write(0, addr, Lanes::one(values), count)
    }

    /// [`SharedMemory::try_write`] of an all-zero payload; see
    /// [`MemArena::try_write_zeros`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds or
    /// `count` is zero.
    pub fn try_write_zeros(
        &mut self,
        addr: u32,
        width: usize,
        count: u16,
    ) -> Result<MemOutcome<()>> {
        self.arena.try_write_zeros(0, addr, width, count)
    }

    /// Host-side non-consuming read (used to fetch outputs after a run).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds or any
    /// word was never produced.
    pub fn peek(&self, addr: u32, width: usize) -> Result<Vec<Fixed>> {
        Ok(self.arena.peek(0, 0, addr, width)?.to_vec())
    }

    /// Host-side forced write (used to inject inputs before a run); does not
    /// respect blocking semantics.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if the range is out of bounds.
    pub fn poke(&mut self, addr: u32, values: &[Fixed], count: u16) -> Result<()> {
        self.arena.poke(0, addr, Lanes::one(values), count)
    }

    /// True if the word at `addr` is valid (has unconsumed data).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] if out of bounds.
    pub fn is_valid(&self, addr: u32) -> Result<bool> {
        self.arena.is_valid(0, addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx(v: f32) -> Fixed {
        Fixed::from_f32(v)
    }

    #[test]
    fn read_blocks_until_written() {
        let mut m = SharedMemory::new(16);
        match m.try_read(0, 4).unwrap() {
            MemOutcome::Blocked(MemBlock::NotValid { addr: 0 }) => {}
            other => panic!("expected block, got {other:?}"),
        }
        m.try_write(0, &[fx(1.0); 4], 1).unwrap();
        match m.try_read(0, 4).unwrap() {
            MemOutcome::Done(v) => assert_eq!(v, vec![fx(1.0); 4]),
            other => panic!("expected data, got {other:?}"),
        }
    }

    #[test]
    fn count_allows_multiple_consumers() {
        let mut m = SharedMemory::new(4);
        m.try_write(0, &[fx(2.0)], 3).unwrap();
        for _ in 0..3 {
            assert!(matches!(m.try_read(0, 1).unwrap(), MemOutcome::Done(_)));
        }
        // Fourth read blocks: data fully consumed.
        assert!(matches!(m.try_read(0, 1).unwrap(), MemOutcome::Blocked(_)));
    }

    #[test]
    fn write_blocks_until_consumed() {
        let mut m = SharedMemory::new(4);
        m.try_write(0, &[fx(1.0)], 1).unwrap();
        // Producer cannot overwrite unconsumed data.
        assert!(matches!(
            m.try_write(0, &[fx(9.0)], 1).unwrap(),
            MemOutcome::Blocked(MemBlock::StillValid { addr: 0 })
        ));
        let _ = m.try_read(0, 1).unwrap();
        assert!(matches!(m.try_write(0, &[fx(9.0)], 1).unwrap(), MemOutcome::Done(())));
    }

    #[test]
    fn partial_validity_blocks_whole_vector_read() {
        let mut m = SharedMemory::new(8);
        m.try_write(0, &[fx(1.0); 3], 1).unwrap();
        assert!(matches!(
            m.try_read(0, 4).unwrap(),
            MemOutcome::Blocked(MemBlock::NotValid { addr: 3 })
        ));
    }

    #[test]
    fn out_of_bounds_is_error() {
        let mut m = SharedMemory::new(4);
        assert!(m.try_read(2, 4).is_err());
        assert!(m.try_write(4, &[fx(0.0)], 1).is_err());
        assert!(m.peek(0, 5).is_err());
    }

    #[test]
    fn zero_count_write_is_error() {
        let mut m = SharedMemory::new(4);
        assert!(m.try_write(0, &[fx(0.0)], 0).is_err());
    }

    #[test]
    fn generation_tracks_changes() {
        let mut m = SharedMemory::new(4);
        let g0 = m.generation();
        assert!(matches!(m.try_read(0, 1).unwrap(), MemOutcome::Blocked(_)));
        assert_eq!(m.generation(), g0, "blocked ops must not bump generation");
        m.try_write(0, &[fx(1.0)], 1).unwrap();
        assert!(m.generation() > g0);
    }

    #[test]
    fn poke_and_peek_bypass_attributes() {
        let mut m = SharedMemory::new(4);
        m.poke(1, &[fx(5.0)], 2).unwrap();
        assert_eq!(m.peek(1, 1).unwrap(), vec![fx(5.0)]);
        assert!(m.is_valid(1).unwrap());
        assert!(!m.is_valid(0).unwrap());
    }

    #[test]
    fn arena_tiles_are_isolated() {
        let mut a = MemArena::new(3, 8);
        a.try_write(1, 0, Lanes::one(&[fx(1.0); 2]), 1).unwrap();
        // Other tiles see nothing at the same tile-relative address.
        assert!(!a.is_valid(0, 0).unwrap());
        assert!(!a.is_valid(2, 0).unwrap());
        assert!(a.is_valid(1, 0).unwrap());
        // Per-tile generations advance independently.
        assert_eq!(a.generation(0), 0);
        assert!(a.generation(1) > 0);
        // Per-tile reset clears only that tile's dirty range.
        a.try_write(2, 0, Lanes::one(&[fx(3.0)]), 1).unwrap();
        a.reset_tile(1);
        assert!(!a.is_valid(1, 0).unwrap());
        assert!(a.is_valid(2, 0).unwrap());
        assert_eq!(a.generation(1), 0);
    }

    #[test]
    fn arena_bounds_are_per_tile() {
        let mut a = MemArena::new(2, 4);
        // Address 4 is out of bounds for tile 0 even though tile 1's
        // region sits right behind it in the backing plane.
        assert!(a.try_write(0, 0, Lanes::one(&[fx(1.0); 5]), 1).is_err());
        let err = a.peek(0, 0, 2, 3).unwrap_err();
        assert!(format!("{err}").contains("exceeds capacity 4"), "{err}");
    }

    #[test]
    fn lanes_share_attributes_but_not_data() {
        let mut a = MemArena::with_lanes(2, 8, 3);
        let words = [fx(1.0), fx(2.0), fx(3.0)];
        a.try_write(1, 4, Lanes::packed(&words, 1, 3), 2).unwrap();
        for (lane, &w) in words.iter().enumerate() {
            assert_eq!(a.peek(lane, 1, 4, 1).unwrap(), &[w]);
        }
        // One read consumes the word for every lane.
        match a.try_read(1, 4, 1).unwrap() {
            MemOutcome::Done(read) => assert_eq!(
                read.iter().collect::<Vec<_>>(),
                vec![&[fx(1.0)][..], &[fx(2.0)][..], &[fx(3.0)][..]]
            ),
            other => panic!("expected data, got {other:?}"),
        }
        assert!(a.is_valid(1, 4).unwrap(), "count 2 leaves one consumer");
        // A single lane writes to all; reset clears every lane.
        a.poke(0, 0, Lanes::one(&[fx(5.0)]), 1).unwrap();
        assert_eq!(a.peek(2, 0, 0, 1).unwrap(), &[fx(5.0)]);
        a.reset_tile(0);
        a.reset_tile(1);
        for lane in 0..3 {
            assert_eq!(a.peek(lane, 0, 0, 1).unwrap(), &[Fixed::ZERO]);
            assert_eq!(a.peek(lane, 1, 4, 1).unwrap(), &[Fixed::ZERO]);
        }
    }

    #[test]
    fn restore_rebuilds_the_saved_words_in_every_lane() {
        let poke = |a: &mut MemArena| {
            a.poke(0, 3, Lanes::one(&[fx(1.0), fx(2.0)]), 2).unwrap();
            a.poke(1, 0, Lanes::one(&[fx(3.0)]), 1).unwrap();
            a.poke(1, 6, Lanes::one(&[fx(4.0)]), 5).unwrap();
        };
        let mut saved_from = MemArena::with_lanes(2, 8, 1);
        poke(&mut saved_from);
        let image = saved_from.save();
        // A run dirties other words, then a restore into two lanes.
        let mut a = MemArena::with_lanes(2, 8, 2);
        a.set_lanes(2);
        a.try_write(0, 7, Lanes::one(&[fx(9.0)]), 1).unwrap();
        a.poke(1, 0, Lanes::one(&[fx(8.0)]), 3).unwrap();
        a.restore(&image);
        let mut want = MemArena::with_lanes(2, 8, 2);
        poke(&mut want);
        for tile in 0..2 {
            for lane in 0..2 {
                assert_eq!(a.peek(lane, tile, 0, 8).unwrap(), want.peek(lane, tile, 0, 8).unwrap());
            }
            for addr in 0..8 {
                assert_eq!(a.is_valid(tile, addr).unwrap(), want.is_valid(tile, addr).unwrap());
            }
            assert_eq!(a.generation(tile), want.generation(tile));
        }
        // Counts came back too: tile 1 word 6 takes five reads.
        for _ in 0..5 {
            assert!(matches!(a.try_consume(1, 6, 1).unwrap(), MemOutcome::Done(())));
        }
        assert!(matches!(a.try_consume(1, 6, 1).unwrap(), MemOutcome::Blocked(_)));
    }
}
