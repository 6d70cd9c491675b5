//! Property tests on the valid/count attribute protocol (Fig. 6): data is
//! never lost, never double-consumed, and producer/consumer blocking is
//! exactly complementary.

use proptest::prelude::*;
use puma_core::error::Result;
use puma_core::fixed::Fixed;
use puma_sim::lanes::Lanes;
use puma_sim::memory::{MemArena, MemOutcome};

// Every property runs on tile 0 of a one-tile arena: a single tile's
// shared memory.

fn write(m: &mut MemArena, addr: u32, data: &[Fixed], count: u16) -> Result<MemOutcome<()>> {
    m.try_write(0, addr, Lanes::one(data), count)
}

/// A consume-read of lane 0.
fn read(m: &mut MemArena, addr: u32, width: usize) -> Result<MemOutcome<Vec<Fixed>>> {
    Ok(match m.try_read(0, addr, width)? {
        MemOutcome::Done(words) => MemOutcome::Done(words.lane(0).to_vec()),
        MemOutcome::Blocked(b) => MemOutcome::Blocked(b),
    })
}

fn peek(m: &MemArena, addr: u32, width: usize) -> Result<Vec<Fixed>> {
    Ok(m.peek(0, 0, addr, width)?.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Write count=k, then exactly k reads succeed and the k+1-th blocks.
    #[test]
    fn count_is_exact(count in 1u16..8, width in 1usize..16) {
        let mut m = MemArena::new(1, 64);
        let data: Vec<Fixed> = (0..width).map(|i| Fixed::from_bits(i as i16 + 1)).collect();
        assert!(matches!(write(&mut m, 0, &data, count).unwrap(), MemOutcome::Done(())));
        for _ in 0..count {
            match read(&mut m, 0, width).unwrap() {
                MemOutcome::Done(v) => prop_assert_eq!(&v, &data),
                MemOutcome::Blocked(_) => prop_assert!(false, "read blocked early"),
            }
        }
        prop_assert!(matches!(read(&mut m, 0, width).unwrap(), MemOutcome::Blocked(_)));
        // And the producer can now overwrite.
        prop_assert!(matches!(write(&mut m, 0, &data, 1).unwrap(), MemOutcome::Done(())));
    }

    /// Random interleavings of produce/consume on disjoint slots keep
    /// every slot's ledger balanced.
    #[test]
    fn random_interleavings_balance(ops in prop::collection::vec((0usize..8, any::<bool>()), 1..200)) {
        let mut m = MemArena::new(1, 8);
        // Per-slot ledger: Some(remaining) if valid.
        let mut ledger: [Option<u16>; 8] = [None; 8];
        for (slot, is_write) in ops {
            let addr = slot as u32;
            if is_write {
                let outcome = write(&mut m, addr, &[Fixed::ONE], 2).unwrap();
                match ledger[slot] {
                    None => {
                        prop_assert!(matches!(outcome, MemOutcome::Done(())));
                        ledger[slot] = Some(2);
                    }
                    Some(_) => prop_assert!(matches!(outcome, MemOutcome::Blocked(_))),
                }
            } else {
                let outcome = read(&mut m, addr, 1).unwrap();
                match ledger[slot] {
                    Some(n) => {
                        prop_assert!(matches!(outcome, MemOutcome::Done(_)));
                        ledger[slot] = if n > 1 { Some(n - 1) } else { None };
                    }
                    None => prop_assert!(matches!(outcome, MemOutcome::Blocked(_))),
                }
            }
        }
    }

    /// Vector operations are all-or-nothing: a blocked read consumes
    /// nothing, a blocked write writes nothing.
    #[test]
    fn blocked_ops_have_no_side_effects(valid_prefix in 1usize..7) {
        let mut m = MemArena::new(1, 8);
        let data = vec![Fixed::ONE; valid_prefix];
        write(&mut m, 0, &data, 1).unwrap();
        // Read past the valid prefix blocks and must not consume.
        prop_assert!(matches!(read(&mut m, 0, 8).unwrap(), MemOutcome::Blocked(_)));
        match read(&mut m, 0, valid_prefix).unwrap() {
            MemOutcome::Done(v) => prop_assert_eq!(v.len(), valid_prefix),
            _ => prop_assert!(false, "prefix must still be consumable"),
        }
        // Overlapping write blocks while any word is valid, writes nothing.
        write(&mut m, 2, &[Fixed::ONE], 1).unwrap();
        let before = peek(&m, 0, 8).unwrap();
        prop_assert!(matches!(write(&mut m, 0, &[Fixed::ZERO; 8], 1).unwrap(), MemOutcome::Blocked(_)));
        prop_assert_eq!(peek(&m, 0, 8).unwrap(), before);
    }

    // ---- Fig. 6 protocol edge cases: multi-consumer reads and
    // ---- write-after-write to the same address --------------------------

    /// Concurrent multi-consumer reads: `count = k` consumers drain one
    /// production in any interleaving across multiple addresses; every
    /// consumer sees identical data (reads don't mutate values, only the
    /// count), and consumer k+1 always blocks no matter which order the
    /// slots drain in.
    #[test]
    fn multi_consumer_reads_interleave_safely(
        consumers in 2u16..6,
        order in prop::collection::vec(0usize..4, 8..64),
    ) {
        let width = 4usize;
        let mut m = MemArena::new(1, 4 * width);
        let payloads: Vec<Vec<Fixed>> = (0..4)
            .map(|s| (0..width).map(|i| Fixed::from_bits((s * 17 + i as i32 + 1) as i16)).collect())
            .collect();
        for (s, p) in payloads.iter().enumerate() {
            assert!(matches!(
                write(&mut m, (s * width) as u32, p, consumers).unwrap(),
                MemOutcome::Done(())
            ));
        }
        let mut remaining = [consumers; 4];
        for slot in order {
            let addr = (slot * width) as u32;
            match read(&mut m, addr, width).unwrap() {
                MemOutcome::Done(v) => {
                    prop_assert!(remaining[slot] > 0, "slot {} over-consumed", slot);
                    // Every consumer observes the producer's exact data.
                    prop_assert_eq!(&v, &payloads[slot]);
                    remaining[slot] -= 1;
                }
                MemOutcome::Blocked(_) => {
                    prop_assert_eq!(remaining[slot], 0, "slot {} blocked early", slot);
                }
            }
        }
        // Drain the stragglers; then every slot must block.
        for (slot, &rem) in remaining.iter().enumerate() {
            let addr = (slot * width) as u32;
            for _ in 0..rem {
                prop_assert!(matches!(read(&mut m, addr, width).unwrap(), MemOutcome::Done(_)));
            }
            prop_assert!(matches!(read(&mut m, addr, width).unwrap(), MemOutcome::Blocked(_)));
        }
    }

    /// Write-after-write to the same address: the second producer blocks
    /// until the *last* consumer of the first production reads, the
    /// blocked attempt leaves both data and count untouched, and once
    /// unblocked the new production is what consumers observe.
    #[test]
    fn write_after_write_waits_for_last_consumer(
        consumers in 1u16..5,
        width in 1usize..8,
    ) {
        let mut m = MemArena::new(1, 16);
        let first: Vec<Fixed> = (0..width).map(|i| Fixed::from_bits(i as i16 + 1)).collect();
        let second: Vec<Fixed> = (0..width).map(|i| Fixed::from_bits(-(i as i16) - 1)).collect();
        assert!(matches!(write(&mut m, 0, &first, consumers).unwrap(), MemOutcome::Done(())));

        // While any consumer is outstanding, an overwrite must block and
        // must not disturb the first production.
        for drained in 0..consumers {
            prop_assert!(
                matches!(write(&mut m, 0, &second, 1).unwrap(), MemOutcome::Blocked(_)),
                "overwrite proceeded with {} of {} consumers outstanding",
                consumers - drained, consumers
            );
            prop_assert_eq!(peek(&m, 0, width).unwrap(), first.clone());
            match read(&mut m, 0, width).unwrap() {
                MemOutcome::Done(v) => prop_assert_eq!(&v, &first),
                MemOutcome::Blocked(_) => prop_assert!(false, "read blocked early"),
            }
        }

        // Fully drained: the overwrite lands and its data wins.
        prop_assert!(matches!(write(&mut m, 0, &second, 1).unwrap(), MemOutcome::Done(())));
        match read(&mut m, 0, width).unwrap() {
            MemOutcome::Done(v) => prop_assert_eq!(&v, &second),
            MemOutcome::Blocked(_) => prop_assert!(false, "second production unreadable"),
        }
    }

    /// Partially-overlapping write-after-write: a second production that
    /// overlaps any still-valid word of the first blocks as a unit, even
    /// when some of its words are invalid.
    #[test]
    fn overlapping_waw_blocks_as_a_unit(offset in 1u32..8, width in 2usize..6) {
        let mut m = MemArena::new(1, 16);
        let first = vec![Fixed::ONE; width];
        assert!(matches!(write(&mut m, 0, &first, 1).unwrap(), MemOutcome::Done(())));
        // Overlap: [offset, offset + width) intersects [0, width).
        let offset = (offset % width as u32).max(1);
        let second = vec![Fixed::ZERO; width];
        prop_assert!(matches!(
            write(&mut m, offset, &second, 1).unwrap(),
            MemOutcome::Blocked(_)
        ));
        // Disjoint region is still writable.
        prop_assert!(matches!(
            write(&mut m, (width + 4) as u32, &second, 1).unwrap(),
            MemOutcome::Done(())
        ));
        // The original production is intact and consumable.
        match read(&mut m, 0, width).unwrap() {
            MemOutcome::Done(v) => prop_assert_eq!(v, first),
            MemOutcome::Blocked(_) => prop_assert!(false, "first production lost"),
        }
    }
}
