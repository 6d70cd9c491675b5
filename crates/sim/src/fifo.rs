//! The tile receive buffer: N FIFOs of M entries (§4.2).
//!
//! FIFOs preserve ordering from a given sender while letting multiple
//! senders proceed concurrently on different FIFOs. The compiler
//! virtualizes FIFO ids (different senders may share a FIFO in different
//! program phases), so the buffer itself only enforces capacity and
//! ordering.
//!
//! Storage is arena-packed: [`FifoArena`] holds every tile's FIFO rings
//! in one contiguous slab of fixed-capacity packet slots (tile-major,
//! then fifo, then ring position), plus the per-(tile, fifo) pending
//! in-flight queues that used to live in a hash map on the scheduler.
//! Delivering a packet is then two flat index computations instead of a
//! hash lookup plus a per-tile heap hop. A single tile's receive buffer
//! is tile 0 of a one-tile arena.

use puma_core::error::{PumaError, Result};
use puma_core::fixed::Fixed;
use std::collections::VecDeque;

/// One in-flight message: the payload written by a `send` instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packet {
    /// Payload words.
    pub words: Vec<Fixed>,
}

/// Ring cursor of one FIFO inside the arena slab.
#[derive(Debug, Clone, Copy, Default)]
struct Ring {
    head: u32,
    len: u32,
}

/// All tiles' receive buffers packed into one slab of packet slots,
/// together with the per-(tile, fifo) pending-delivery queues (packets
/// that arrived while the ring was full and wait for backpressure to
/// clear). Every operation takes the tile index first and touches only
/// that tile's FIFOs.
#[derive(Debug, Clone)]
pub struct FifoArena {
    /// `tiles * fifos * depth` packet slots; a popped slot is left as an
    /// empty packet whose buffer is reused by later pushes.
    slots: Vec<Packet>,
    /// `tiles * fifos` ring cursors.
    rings: Vec<Ring>,
    /// `tiles * fifos` pending in-flight queues (scheduler-side).
    pending: Vec<VecDeque<Packet>>,
    fifos: usize,
    depth: usize,
}

impl FifoArena {
    /// Creates `tiles` regions of `fifos` FIFOs with `depth` entries each.
    pub fn new(tiles: usize, fifos: usize, depth: usize) -> Self {
        FifoArena {
            slots: vec![Packet::default(); tiles * fifos * depth],
            rings: vec![Ring::default(); tiles * fifos],
            pending: vec![VecDeque::new(); tiles * fifos],
            fifos,
            depth,
        }
    }

    /// Number of FIFOs per tile.
    pub fn fifo_count(&self) -> usize {
        self.fifos
    }

    /// Approximate heap footprint in bytes: the slab, cursors, queued
    /// payload words, and pending queues (per-replica mutable state).
    pub fn state_bytes(&self) -> usize {
        let payload: usize = self
            .slots
            .iter()
            .map(|p| p.words.capacity() * std::mem::size_of::<Fixed>())
            .sum::<usize>()
            + self
                .pending
                .iter()
                .flat_map(|q| q.iter())
                .map(|p| p.words.capacity() * std::mem::size_of::<Fixed>())
                .sum::<usize>();
        self.slots.len() * std::mem::size_of::<Packet>()
            + self.rings.len() * std::mem::size_of::<Ring>()
            + self.pending.len() * std::mem::size_of::<VecDeque<Packet>>()
            + payload
    }

    /// Drops all queued and pending packets of one tile in place —
    /// identical observable post-state to a fresh region. Popped slot
    /// buffers are retained for reuse.
    pub fn reset_tile(&mut self, tile: usize) {
        let base = tile * self.fifos;
        for ring in &mut self.rings[base..base + self.fifos] {
            *ring = Ring::default();
        }
        for q in &mut self.pending[base..base + self.fifos] {
            q.clear();
        }
    }

    fn check_fifo(&self, fifo: u8) -> Result<usize> {
        let f = fifo as usize;
        if f >= self.fifos {
            return Err(PumaError::Execution {
                what: format!("fifo {fifo} out of range ({} fifos)", self.fifos),
            });
        }
        Ok(f)
    }

    fn slot_index(&self, tile: usize, fifo: usize, pos: u32) -> usize {
        (tile * self.fifos + fifo) * self.depth + pos as usize % self.depth
    }

    /// True if the FIFO has no free entry (network backpressure).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for an out-of-range FIFO id.
    pub fn is_full(&self, tile: usize, fifo: u8) -> Result<bool> {
        let f = self.check_fifo(fifo)?;
        Ok(self.rings[tile * self.fifos + f].len as usize >= self.depth)
    }

    /// Attempts to deliver a packet; hands the packet back (ring
    /// untouched) if the FIFO is full.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for an out-of-range FIFO id.
    pub fn try_push(&mut self, tile: usize, fifo: u8, packet: Packet) -> Result<Option<Packet>> {
        let f = self.check_fifo(fifo)?;
        let ring = self.rings[tile * self.fifos + f];
        if ring.len as usize >= self.depth {
            return Ok(Some(packet));
        }
        let idx = self.slot_index(tile, f, ring.head + ring.len);
        self.slots[idx] = packet;
        self.rings[tile * self.fifos + f].len += 1;
        Ok(None)
    }

    /// Pops the oldest packet, or `None` if the FIFO is empty (the receive
    /// instruction blocks).
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for an out-of-range FIFO id.
    pub fn pop(&mut self, tile: usize, fifo: u8) -> Result<Option<Packet>> {
        let f = self.check_fifo(fifo)?;
        let ring = self.rings[tile * self.fifos + f];
        if ring.len == 0 {
            return Ok(None);
        }
        let idx = self.slot_index(tile, f, ring.head);
        let packet = std::mem::take(&mut self.slots[idx]);
        let r = &mut self.rings[tile * self.fifos + f];
        r.head = (r.head + 1) % self.depth as u32;
        r.len -= 1;
        Ok(Some(packet))
    }

    /// Peeks at the oldest packet without consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for an out-of-range FIFO id.
    pub fn front(&self, tile: usize, fifo: u8) -> Result<Option<&Packet>> {
        let f = self.check_fifo(fifo)?;
        let ring = self.rings[tile * self.fifos + f];
        if ring.len == 0 {
            return Ok(None);
        }
        Ok(Some(&self.slots[self.slot_index(tile, f, ring.head)]))
    }

    /// Total queued packets across one tile's FIFO rings (pending
    /// in-flight packets not included).
    pub fn queued_packets(&self, tile: usize) -> usize {
        let base = tile * self.fifos;
        self.rings[base..base + self.fifos].iter().map(|r| r.len as usize).sum()
    }

    /// Appends an in-flight packet to the pending queue of `(tile,
    /// fifo)` — the scheduler-side staging area drained into the ring by
    /// [`FifoArena::deliver_pending`].
    ///
    /// # Errors
    ///
    /// Returns [`PumaError::Execution`] for an out-of-range FIFO id (the
    /// same fault a full-queue delivery into that FIFO would raise).
    pub fn pending_push(&mut self, tile: usize, fifo: u8, packet: Packet) -> Result<()> {
        let f = self.check_fifo(fifo)?;
        self.pending[tile * self.fifos + f].push_back(packet);
        Ok(())
    }

    /// Moves packets from the pending queue of `(tile, fifo)` into the
    /// ring, in order, while ring space lasts. Returns how many packets
    /// were delivered.
    pub fn deliver_pending(&mut self, tile: usize, fifo: u8) -> usize {
        let Ok(f) = self.check_fifo(fifo) else { return 0 };
        let base = tile * self.fifos + f;
        let mut delivered = 0;
        while self.rings[base].len < self.depth as u32 {
            let Some(packet) = self.pending[base].pop_front() else { break };
            let ring = self.rings[base];
            let idx = self.slot_index(tile, f, ring.head + ring.len);
            self.slots[idx] = packet;
            self.rings[base].len += 1;
            delivered += 1;
        }
        delivered
    }

    /// True if `(tile, fifo)` has in-flight packets waiting for ring
    /// space.
    pub fn has_pending(&self, tile: usize, fifo: u8) -> bool {
        self.check_fifo(fifo)
            .map(|f| !self.pending[tile * self.fifos + f].is_empty())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(tag: i16) -> Packet {
        Packet { words: vec![Fixed::from_bits(tag)] }
    }

    /// Tile 0 of a one-tile arena: the single-tile receive buffer.
    fn one_tile(fifos: usize, depth: usize) -> FifoArena {
        FifoArena::new(1, fifos, depth)
    }

    /// Every FIFO's queued packets, oldest first, and pending packets.
    fn contents(a: &FifoArena) -> (Vec<Vec<Packet>>, Vec<Vec<Packet>>) {
        let rings = a
            .rings
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let (tile, fifo) = (i / a.fifos, i % a.fifos);
                (0..r.len).map(|k| a.slots[a.slot_index(tile, fifo, r.head + k)].clone()).collect()
            })
            .collect();
        (rings, a.pending.iter().map(|q| q.iter().cloned().collect()).collect())
    }

    #[test]
    fn fifo_preserves_order() {
        let mut rb = one_tile(16, 2);
        assert!(rb.try_push(0, 3, packet(1)).unwrap().is_none());
        assert!(rb.try_push(0, 3, packet(2)).unwrap().is_none());
        assert_eq!(rb.pop(0, 3).unwrap().unwrap(), packet(1));
        assert_eq!(rb.pop(0, 3).unwrap().unwrap(), packet(2));
        assert!(rb.pop(0, 3).unwrap().is_none());
    }

    #[test]
    fn depth_limits_occupancy() {
        let mut rb = one_tile(2, 2);
        assert!(rb.try_push(0, 0, packet(1)).unwrap().is_none());
        assert!(rb.try_push(0, 0, packet(2)).unwrap().is_none());
        assert!(rb.is_full(0, 0).unwrap());
        assert!(rb.try_push(0, 0, packet(3)).unwrap().is_some(), "third push must be refused");
        let _ = rb.pop(0, 0).unwrap();
        assert!(rb.try_push(0, 0, packet(3)).unwrap().is_none());
    }

    #[test]
    fn fifos_are_independent() {
        let mut rb = one_tile(2, 1);
        assert!(rb.try_push(0, 0, packet(1)).unwrap().is_none());
        assert!(rb.try_push(0, 1, packet(2)).unwrap().is_none());
        assert_eq!(rb.pop(0, 1).unwrap().unwrap(), packet(2));
        assert_eq!(rb.pop(0, 0).unwrap().unwrap(), packet(1));
    }

    #[test]
    fn out_of_range_fifo_is_error() {
        let mut rb = one_tile(4, 2);
        assert!(rb.try_push(0, 4, packet(0)).is_err());
        assert!(rb.pop(0, 200).is_err());
        assert!(rb.is_full(0, 4).is_err());
        assert!(rb.front(0, 4).is_err());
    }

    #[test]
    fn blocked_ops_leave_the_arena_unchanged() {
        let mut a = FifoArena::new(2, 2, 1);
        a.try_push(0, 0, packet(1)).unwrap();
        a.pending_push(0, 0, packet(2)).unwrap();
        a.try_push(1, 1, packet(3)).unwrap();
        let before = contents(&a);
        // A push into a full ring hands the packet back.
        assert_eq!(a.try_push(0, 0, packet(4)).unwrap(), Some(packet(4)));
        assert_eq!(contents(&a), before, "refused try_push");
        // A pop on an empty FIFO finds nothing.
        assert_eq!(a.pop(0, 1).unwrap(), None);
        assert_eq!(contents(&a), before, "pop on an empty fifo");
    }

    #[test]
    fn queued_packets_sums_fifos() {
        let mut rb = one_tile(3, 2);
        rb.try_push(0, 0, packet(1)).unwrap();
        rb.try_push(0, 2, packet(2)).unwrap();
        assert_eq!(rb.queued_packets(0), 2);
        assert_eq!(rb.front(0, 0).unwrap().unwrap(), &packet(1));
    }

    #[test]
    fn ring_wraps_past_capacity_many_times() {
        let mut rb = one_tile(1, 3);
        // Push/pop well past one lap of the ring; order must hold.
        let mut next_in = 0i16;
        let mut next_out = 0i16;
        for _ in 0..2 {
            while rb.try_push(0, 0, packet(next_in)).unwrap().is_none() {
                next_in += 1;
            }
            for _ in 0..2 {
                assert_eq!(rb.pop(0, 0).unwrap().unwrap(), packet(next_out));
                next_out += 1;
            }
        }
        while let Some(p) = rb.pop(0, 0).unwrap() {
            assert_eq!(p, packet(next_out));
            next_out += 1;
        }
        assert_eq!(next_in, next_out);
    }

    #[test]
    fn arena_pending_drains_in_order_under_backpressure() {
        let mut a = FifoArena::new(2, 2, 1);
        a.pending_push(1, 0, packet(7)).unwrap();
        a.pending_push(1, 0, packet(8)).unwrap();
        assert!(a.has_pending(1, 0));
        // Ring depth 1: only the first packet fits.
        assert_eq!(a.deliver_pending(1, 0), 1);
        assert_eq!(a.front(1, 0).unwrap().unwrap(), &packet(7));
        assert!(a.has_pending(1, 0));
        // Other tiles are untouched.
        assert_eq!(a.queued_packets(0), 0);
        // Popping frees the slot; the second packet drains.
        assert_eq!(a.pop(1, 0).unwrap().unwrap(), packet(7));
        assert_eq!(a.deliver_pending(1, 0), 1);
        assert_eq!(a.pop(1, 0).unwrap().unwrap(), packet(8));
        assert!(!a.has_pending(1, 0));
    }

    #[test]
    fn arena_out_of_range_pending_push_is_error() {
        let mut a = FifoArena::new(1, 4, 2);
        let err = a.pending_push(0, 9, packet(0)).unwrap_err();
        assert!(format!("{err}").contains("fifo 9 out of range (4 fifos)"), "{err}");
    }
}
