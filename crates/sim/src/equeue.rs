//! The simulator's scheduler queue: one small **ready list per tile**
//! under one global **tile heap**.
//!
//! Every queued event targets exactly one tile: an agent's next
//! instruction (a core or the tile control unit) or a packet delivery
//! into one of the tile's receive FIFOs. Each tile keeps its own events in
//! a short list sorted by the reference order, and the global heap holds
//! one entry per tile with queued events, keyed by that tile's next
//! event. Popping the heap's minimum tile and then that tile's next event
//! therefore yields events in exactly the global `(time, priority, seq)`
//! order of one flat event heap — which is how the reference engine steps
//! — while the compiled engine keeps the popped tile and runs its events
//! back to back (see the scheduler section of [`crate::machine`]).
//!
//! A tile's list holds at most one event per agent plus the deliveries in
//! flight to it, so it is a handful of entries: a sorted `Vec` with the
//! next event last beats any search structure. The heap is indexed (each
//! tile knows its slot), so a delivery that becomes a tile's new next
//! event re-keys that tile in place, and the tile being run stays at the
//! root until it is re-keyed: one sift per tile entry.
//!
//! # Order
//!
//! Events order by time, then by priority class — deliveries, then
//! wakes, then scheduled agents by id — then by push sequence, with one
//! exception: two deliveries into the same tile at the same cycle order
//! by their [`PacketOrigin`] (send cycle, sender node, sender tile,
//! duplicate index). Push sequence is an artifact of execution order,
//! which the engines deliberately do not share across tiles; the origin
//! is fixed by the program, so same-cycle packets from different senders
//! land in one FIFO in the same order on every engine. Sequence order
//! still decides between events of one tile otherwise (wakes issued by
//! one transition, in park order), and a tile's own events are pushed in
//! the same relative order by every engine.

use crate::fifo::Packet;
use crate::machine::PacketOrigin;
use std::cmp::Ordering;

/// Event priority classes: deliveries outrank wakes, wakes outrank
/// scheduled agent events, and scheduled agents order by id. Within a
/// class, ties resolve by push sequence — which is what gives woken
/// agents their FIFO park-order guarantee (see `apply_wakes`) — except
/// that same-cycle deliveries order by origin (module docs).
pub(crate) const PRIO_DELIVER: u64 = 0;
/// Priority of agent wake-ups issued by `apply_wakes`: all wakes share
/// one class, so same-cycle wakes pop in seq (= park) order.
pub(crate) const PRIO_WAKE: u64 = 1;

/// Priority of a scheduled (non-wake) agent event: after deliveries and
/// wakes, agents order by id for deterministic same-cycle interleaving.
pub(crate) fn agent_priority(tile: u32, core: u32) -> u64 {
    2 + (tile as u64) * 64 + (core as u64).min(63)
}

/// A packet delivery event's payload, boxed so the common agent events
/// keep [`Event`] at 32 bytes (every ordered insert moves events around).
#[derive(Debug)]
pub(crate) struct DeliverEvent {
    pub tile: u32,
    pub fifo: u8,
    pub packet: Packet,
    pub origin: PacketOrigin,
}

#[derive(Debug)]
pub(crate) enum EventKind {
    AgentReady(crate::machine::AgentId),
    Deliver(Box<DeliverEvent>),
}

/// Bit position of the priority class within [`Event::prio_seq`]: the low
/// 40 bits hold the push sequence (2^40 events per run is far beyond the
/// cycle cap), the high 24 the priority (tile counts cap well under
/// 2^18).
pub(crate) const PRIO_SHIFT: u64 = 40;

#[derive(Debug)]
pub(crate) struct Event {
    pub time: u64,
    /// Packed tie-break: `priority << PRIO_SHIFT | seq` — one comparison
    /// orders by class first, then push sequence.
    pub prio_seq: u64,
    pub kind: EventKind,
}

impl Event {
    /// The tile this event targets — every event touches exactly one
    /// tile's state.
    pub(crate) fn tile(&self) -> u32 {
        match &self.kind {
            EventKind::AgentReady(agent) => agent.tile,
            EventKind::Deliver(d) => d.tile,
        }
    }

    /// The heap key: `(time, prio_seq)`, unique per event.
    fn key(&self) -> (u64, u64) {
        (self.time, self.prio_seq)
    }

    /// The reference order between two events of one tile (module docs).
    fn order(&self, other: &Event) -> Ordering {
        if self.time != other.time {
            return self.time.cmp(&other.time);
        }
        match (&self.kind, &other.kind) {
            (EventKind::Deliver(a), EventKind::Deliver(b)) => {
                a.origin.cmp(&b.origin).then(self.prio_seq.cmp(&other.prio_seq))
            }
            _ => self.prio_seq.cmp(&other.prio_seq),
        }
    }
}

/// Marks a tile that holds no heap slot (its list is empty), and the
/// absence of a taken tile.
const NO_SLOT: u32 = u32::MAX;

/// Per-tile ready lists under an indexed tile heap (see the module docs).
///
/// # Invariant
///
/// Every tile with queued events holds exactly one heap slot, keyed by
/// its next event's `(time, prio_seq)` — except the taken tile, which
/// sits at the root under the key it was taken with, whatever its list
/// holds meanwhile. Events pushed into other tiles while it runs are
/// later than that key, so it stays the root. `next[t]` is the time of
/// tile `t`'s next event (`u64::MAX` for an empty list).
#[derive(Debug)]
pub(crate) struct TileQueue {
    /// Each tile's events, sorted descending by [`Event::order`], so the
    /// next one is last.
    lists: Vec<Vec<Event>>,
    /// Each tile's next event time, `u64::MAX` when its list is empty.
    next: Vec<u64>,
    /// Binary min-heap of `(next event key, tile)`.
    heap: Vec<((u64, u64), u32)>,
    /// Each tile's index in `heap`, or [`NO_SLOT`].
    slot: Vec<u32>,
    /// The tile taken by [`TileQueue::pop_tile`] and not yet re-keyed by
    /// [`TileQueue::requeue`] ([`NO_SLOT`] for none). Pushes into it stay
    /// in its list.
    taken: u32,
    /// Bumped whenever another tile's next event changes while a tile is
    /// taken — the only way [`TileQueue::min_time`] and the other tiles'
    /// [`TileQueue::next_time`] can move before the taken tile is
    /// re-keyed.
    epoch: u64,
}

impl TileQueue {
    pub fn new(tiles: usize) -> Self {
        TileQueue {
            lists: (0..tiles).map(|_| Vec::new()).collect(),
            next: vec![u64::MAX; tiles],
            heap: Vec::with_capacity(tiles),
            slot: vec![NO_SLOT; tiles],
            taken: NO_SLOT,
            epoch: 0,
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Earliest event time over every tile except the taken one, `None`
    /// when they have none. O(1): the taken tile is the root, so the
    /// others' minimum is at one of its children.
    pub fn min_time(&self) -> Option<u64> {
        let others = if self.taken == NO_SLOT { &self.heap[..] } else { &self.heap[1..] };
        others.iter().take(2).map(|&((time, _), _)| time).min()
    }

    /// The change counter of the other tiles' next events (see the field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The time of `tile`'s next event (`u64::MAX` when it has none).
    pub fn next_time(&self, tile: u32) -> u64 {
        self.next[tile as usize]
    }

    /// `tile`'s next event, if any.
    pub fn peek(&self, tile: u32) -> Option<&Event> {
        self.lists[tile as usize].last()
    }

    pub fn clear(&mut self) {
        for list in &mut self.lists {
            list.clear();
        }
        self.next.fill(u64::MAX);
        self.heap.clear();
        self.slot.fill(NO_SLOT);
        self.taken = NO_SLOT;
    }

    /// Files an event into its tile's list; re-keys the tile in the heap
    /// when the event becomes its next one.
    pub fn push(&mut self, ev: Event) {
        let tile = ev.tile();
        let t = tile as usize;
        let list = &mut self.lists[t];
        let at = list.partition_point(|e| e.order(&ev) == Ordering::Greater);
        let key = ev.key();
        list.insert(at, ev);
        if at + 1 == list.len() {
            self.next[t] = key.0;
            if tile != self.taken {
                self.epoch += 1;
                match self.slot[t] {
                    NO_SLOT => {
                        self.heap.push((key, tile));
                        self.sift_up(self.heap.len() - 1);
                    }
                    i => {
                        // A new next event only ever lowers the key.
                        self.heap[i as usize].0 = key;
                        self.sift_up(i as usize);
                    }
                }
            }
        }
    }

    /// Takes the tile with the earliest next event: its events are
    /// popped with [`TileQueue::pop`], and it is re-keyed with
    /// [`TileQueue::requeue`].
    pub fn pop_tile(&mut self) -> Option<u32> {
        debug_assert_eq!(self.taken, NO_SLOT, "a tile is already taken");
        let &(_, tile) = self.heap.first()?;
        self.taken = tile;
        Some(tile)
    }

    /// Pops the taken tile's next event.
    pub fn pop(&mut self, tile: u32) -> Option<Event> {
        debug_assert_eq!(tile, self.taken, "only the taken tile pops");
        let list = &mut self.lists[tile as usize];
        let ev = list.pop();
        self.next[tile as usize] = list.last().map_or(u64::MAX, |e| e.time);
        ev
    }

    /// Re-keys the taken tile under its next event, or drops it from the
    /// heap if it has none left.
    pub fn requeue(&mut self, tile: u32) {
        debug_assert_eq!(tile, self.taken, "only the taken tile requeues");
        self.taken = NO_SLOT;
        match self.lists[tile as usize].last().map(Event::key) {
            Some(key) => self.heap[0].0 = key,
            None => {
                self.slot[tile as usize] = NO_SLOT;
                let last = self.heap.pop().expect("the taken tile is in the heap");
                if self.heap.is_empty() {
                    return;
                }
                self.heap[0] = last;
            }
        }
        self.sift_down(0);
    }

    fn place(&mut self, i: usize, entry: ((u64, u64), u32)) {
        self.heap[i] = entry;
        self.slot[entry.1 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= entry.0 {
                break;
            }
            debug_assert!(parent > 0 || self.taken == NO_SLOT, "an event before the taken tile's");
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, entry);
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child =
                if right < n && self.heap[right].0 < self.heap[left].0 { right } else { left };
            if entry.0 <= self.heap[child].0 {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::AgentId;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(tile: u32, time: u64, priority: u64, seq: u64) -> Event {
        Event {
            time,
            prio_seq: (priority << PRIO_SHIFT) | seq,
            kind: EventKind::AgentReady(AgentId { tile, core: 0 }),
        }
    }

    fn delivery(tile: u32, time: u64, seq: u64, origin: PacketOrigin) -> Event {
        Event {
            time,
            prio_seq: (PRIO_DELIVER << PRIO_SHIFT) | seq,
            kind: EventKind::Deliver(Box::new(DeliverEvent {
                tile,
                fifo: 0,
                packet: Packet { words: Vec::new() },
                origin,
            })),
        }
    }

    fn packed(time: u64, priority: u64, seq: u64) -> (u64, u64) {
        (time, (priority << PRIO_SHIFT) | seq)
    }

    /// Pops one event per tile entry (the reference engine's step) and
    /// returns the keys in pop order.
    fn drain_keys(q: &mut TileQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(tile) = q.pop_tile() {
            out.push(q.pop(tile).expect("a queued tile has events").key());
            q.requeue(tile);
        }
        out
    }

    #[test]
    fn pops_in_time_priority_seq_order() {
        let mut q = TileQueue::new(3);
        q.push(ev(0, 10, 1, 3));
        q.push(ev(1, 10, 0, 4));
        q.push(ev(2, 5, 9, 1));
        q.push(ev(0, 10, 1, 2));
        assert_eq!(q.min_time(), Some(5));
        assert_eq!(
            drain_keys(&mut q),
            vec![packed(5, 9, 1), packed(10, 0, 4), packed(10, 1, 2), packed(10, 1, 3)]
        );
        assert_eq!(q.len(), 0);
        assert_eq!(q.min_time(), None);
    }

    #[test]
    fn same_cycle_deliveries_order_by_origin_not_push_order() {
        let mut q = TileQueue::new(1);
        let from = |sent_at, tile| PacketOrigin { sent_at, node: 0, tile, copy: 0 };
        // Pushed latest-sender first, as a run-ahead engine may.
        q.push(delivery(0, 20, 1, from(12, 3)));
        q.push(delivery(0, 20, 2, from(9, 7)));
        q.push(delivery(0, 20, 3, from(12, 1)));
        q.push(ev(0, 20, PRIO_WAKE, 4));
        let tile = q.pop_tile().unwrap();
        let mut order = Vec::new();
        while let Some(e) = q.pop(tile) {
            order.push(match e.kind {
                EventKind::Deliver(d) => (d.origin.sent_at, d.origin.tile),
                EventKind::AgentReady(_) => (u64::MAX, 0),
            });
        }
        assert_eq!(order, vec![(9, 7), (12, 1), (12, 3), (u64::MAX, 0)]);
    }

    #[test]
    fn matches_binary_heap_on_random_monotone_traffic() {
        // xorshift64 so the case is reproducible without a rand dep.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let tiles = 37u64;
        let mut q = TileQueue::new(tiles as usize);
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        let mut pushed = 0usize;
        for step in 0..20_000 {
            let r = rng();
            let push = heap.is_empty() || (r % 5 != 0 && pushed < 15_000);
            if push {
                // Mostly near-frontier deltas, occasionally far-future
                // ones.
                let delta = if r % 97 == 0 { r % 50_000 } else { r % 2500 };
                seq += 1;
                let (prio, time) = (r % 4, now + delta);
                q.push(ev(((r >> 32) % tiles) as u32, time, prio, seq));
                heap.push(Reverse(packed(time, prio, seq)));
                pushed += 1;
            } else {
                let Reverse(want) = heap.pop().unwrap();
                let got = drain_one(&mut q);
                assert_eq!(got, want, "divergence at step {step}");
                now = want.0;
            }
            assert_eq!(q.len(), heap.len());
            assert_eq!(q.min_time(), heap.peek().map(|Reverse(k)| k.0));
        }
        while let Some(Reverse(want)) = heap.pop() {
            assert_eq!(drain_one(&mut q), want);
        }
        assert_eq!(q.len(), 0);
    }

    fn drain_one(q: &mut TileQueue) -> (u64, u64) {
        let tile = q.pop_tile().unwrap();
        let key = q.pop(tile).unwrap().key();
        q.requeue(tile);
        key
    }

    #[test]
    fn non_monotone_pushes_stay_exact() {
        // The simulator never pushes below the last pop, but the queue
        // must not depend on that.
        let mut q = TileQueue::new(2);
        q.push(ev(0, 100_000, 0, 1));
        q.push(ev(1, 50, 0, 2));
        q.push(ev(0, 100_001, 0, 3));
        assert_eq!(q.min_time(), Some(50));
        assert_eq!(
            drain_keys(&mut q),
            vec![packed(50, 0, 2), packed(100_000, 0, 1), packed(100_001, 0, 3)]
        );
    }

    #[test]
    fn pushes_into_the_taken_tile_stay_local_until_requeued() {
        let mut q = TileQueue::new(2);
        q.push(ev(0, 10, 2, 1));
        q.push(ev(1, 12, 2, 2));
        let tile = q.pop_tile().unwrap();
        assert_eq!(tile, 0);
        assert_eq!(q.pop(tile).unwrap().key(), packed(10, 2, 1));
        // The taken tile's own pushes do not enter the heap...
        q.push(ev(0, 11, 1, 3));
        assert_eq!(q.min_time(), Some(12));
        assert_eq!(q.next_time(0), 11);
        // ...until it is put back.
        q.requeue(tile);
        assert_eq!(q.min_time(), Some(11));
        assert_eq!(drain_keys(&mut q), vec![packed(11, 1, 3), packed(12, 2, 2)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut q = TileQueue::new(4);
        for i in 0..128u64 {
            q.push(ev((i % 4) as u32, i, 0, i + 1));
        }
        let _ = q.pop_tile();
        q.clear();
        assert_eq!(q.len(), 0);
        assert_eq!(q.min_time(), None);
        q.push(ev(2, 7, 0, 3));
        assert_eq!(drain_keys(&mut q), vec![packed(7, 0, 3)]);
    }
}
