//! What the two split-ordered resizable tables (Shalev & Shavit) share:
//! the split-order key arithmetic and the lazily doubled bucket
//! [`Directory`]. Bucket sentinels carry even bit-reversed keys, regular
//! nodes odd ones, so doubling the bucket mask splits every bucket's
//! contiguous so-key range without moving a node.
//!
//! # The lazily-doubled directory
//!
//! Bucket words live in a `zero` slot plus [`SPINE_LEVELS`] lazily
//! allocated segments, segment `l` holding buckets `[2^l, 2^{l+1})`. The
//! directory only ever grows and published segments are never replaced, so
//! there is no migration epoch and no array retirement. A thread observing
//! a *stale* (smaller) mask simply starts its list walk at an ancestor
//! sentinel: correct, just a few hops longer.
//!
//! The directory is generic over the slot word `W` and never looks inside
//! one: the manual table stores sentinel addresses in `AtomicUsize`s, the
//! RC table strong references in `AtomicSharedPtr`s.

use smr::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use smr::Tid;

use crate::LanePairs;

/// Directory segments; segment `l` holds buckets `[2^l, 2^{l+1})`, so
/// a table tops out at 2^33 buckets — far past any in-memory key count.
const SPINE_LEVELS: usize = 33;

/// Split-order key of bucket `b`'s sentinel: even, low bits all zero.
#[inline]
pub(crate) fn so_dummy(b: u64) -> u64 {
    b.reverse_bits()
}

/// Split-order key of a regular node with hash `h`: odd, so it sorts
/// strictly after every sentinel sharing its reversed prefix.
#[inline]
pub(crate) fn so_regular(h: u64) -> u64 {
    h.reverse_bits() | 1
}

/// Approximate live-element counter driving the growth decisions:
/// per-thread single-writer lanes (no shared `fetch_add` on the insert
/// path), folded only on the growth-check cadence.
#[derive(Debug)]
struct ElementCount {
    lanes: LanePairs,
}

impl ElementCount {
    /// How many successful inserts a lane absorbs between growth checks.
    /// The live count can therefore lag by `MAX_THREADS * GROW_CHECK_EVERY`
    /// in the worst case — bounded slack, spent on keeping the insert fast
    /// path free of cross-thread folds.
    const GROW_CHECK_EVERY: u64 = 64;

    /// Records one successful insert by thread `t`; returns `true` on the
    /// lane's growth-check cadence (every [`Self::GROW_CHECK_EVERY`]th
    /// insert), when the caller should fold the count and consider growing.
    #[inline]
    fn on_insert(&self, t: Tid) -> bool {
        self.lanes.up(t).is_multiple_of(Self::GROW_CHECK_EVERY)
    }

    /// Records one successful remove by thread `t`.
    #[inline]
    fn on_remove(&self, t: Tid) {
        self.lanes.down(t);
    }

    /// Inserts − removes; removes are folded first, so the estimate only
    /// errs high (see [`crate::NodeStats::in_flight`]).
    fn live(&self) -> u64 {
        self.lanes.net()
    }
}

/// The bucket directory of a split-ordered table: a `zero` slot, the spine
/// of lazily published segments, the routing mask and the element count
/// that decides when the mask doubles.
pub(crate) struct Directory<W> {
    /// Bucket 0's slot — its sentinel heads the entire list. Set at
    /// construction, never rewritten.
    zero: W,
    /// Segment `l` (once published) is a `Box<[W; 2^l]>` leaked to a raw
    /// pointer and freed in `Drop`; its slots start vacant and are
    /// installed at most once, by the table.
    spine: [AtomicPtr<W>; SPINE_LEVELS],
    /// `buckets - 1`; buckets is always a power of two. Grows by
    /// `m -> 2m + 1`, monotonically.
    mask: AtomicU64,
    count: ElementCount,
}

impl<W> Directory<W> {
    /// A directory pre-sized for `capacity` elements (rounded up to a power
    /// of two; sentinels still splice in lazily) whose bucket 0 is `zero`.
    pub(crate) fn with_capacity(capacity: usize, zero: W) -> Self {
        let buckets = capacity
            .max(1)
            .next_power_of_two()
            .min(1usize << SPINE_LEVELS) as u64;
        Directory {
            zero,
            spine: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            mask: AtomicU64::new(buckets - 1),
            count: ElementCount {
                lanes: LanePairs::new(),
            },
        }
    }

    /// Current bucket count (monotone; grows under load).
    pub(crate) fn buckets(&self) -> u64 {
        // Ordering: Relaxed — reporting read of a monotone routing mask; a
        // stale value is just an older (still valid) size.
        self.mask.load(Ordering::Relaxed) + 1
    }

    /// Approximate live element count (exact once concurrent operations
    /// have happened-before the call, e.g. after joining workers).
    pub(crate) fn len(&self) -> u64 {
        self.count.live()
    }

    /// The bucket hash `h` routes to under the current mask.
    #[inline]
    pub(crate) fn bucket_of(&self, h: u64) -> usize {
        // Ordering: Relaxed — the mask is a routing hint, not a guard: a
        // stale mask routes to an ancestor sentinel, which reaches the same
        // bucket through a few extra hops.
        (h & self.mask.load(Ordering::Relaxed)) as usize
    }

    /// Bucket 0's slot.
    #[inline]
    pub(crate) fn zero(&self) -> &W {
        &self.zero
    }

    /// The parent of bucket `b > 0`: `b` with its most significant set bit
    /// cleared — the bucket whose so-key range contained `b`'s until the
    /// split. Following parents reaches bucket 0 in popcount(`b`) steps.
    #[inline]
    pub(crate) fn parent(b: usize) -> usize {
        b - (1usize << Self::level(b))
    }

    /// The segment holding bucket `b > 0`: the index of its top set bit.
    #[inline]
    fn level(b: usize) -> usize {
        (usize::BITS - 1 - b.leading_zeros()) as usize
    }

    /// The directory slot of bucket `b`, publishing its segment (filled by
    /// `vacant`) first if no thread has touched a bucket in that segment's
    /// range yet.
    #[inline]
    pub(crate) fn slot(&self, b: usize, vacant: impl Fn() -> W) -> &W {
        if b == 0 {
            return self.zero();
        }
        let level = Self::level(b);
        &self.segment(level, vacant)[b - (1usize << level)]
    }

    /// The directory segment for `level`, publishing it first if needed.
    fn segment(&self, level: usize, vacant: impl Fn() -> W) -> &[W] {
        let slot = &self.spine[level];
        let len = 1usize << level;
        // Ordering: Acquire load / AcqRel CAS — the segment is a heap
        // allocation published through this slot: the winner's Release
        // makes the fresh slots visible, and every reader (including a
        // losing CAS, via its Acquire failure ordering) acquires them
        // before indexing into the segment.
        let mut p = slot.load(Ordering::Acquire);
        if p.is_null() {
            let fresh: Box<[W]> = (0..len).map(|_| vacant()).collect();
            let raw = Box::into_raw(fresh) as *mut W;
            match slot.compare_exchange(
                std::ptr::null_mut(),
                raw,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => p = raw,
                Err(winner) => {
                    // Safety: `raw` was never published; rebuild the boxed
                    // slice (all slots still vacant) and drop it.
                    unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, len))) };
                    p = winner;
                }
            }
        }
        // Safety: published segments are never replaced and outlive `&self`
        // (freed only in `Drop`, which has exclusive access).
        unsafe { std::slice::from_raw_parts(p, len) }
    }

    /// Every slot that exists: `zero`, then each published segment's.
    pub(crate) fn slots(&self) -> impl Iterator<Item = &W> {
        let published = self.spine.iter().enumerate().flat_map(|(level, slot)| {
            // Ordering: Acquire — pairs with the publishing CAS in
            // `segment`; a caller's exclusivity (teardown) covers mutation,
            // not the visibility of another thread's published allocation.
            let p = slot.load(Ordering::Acquire);
            let len = if p.is_null() { 0 } else { 1usize << level };
            // Safety: as in `segment` (a null `p` is never read: `len` 0).
            (0..len).map(move |i| unsafe { &*p.add(i) })
        });
        std::iter::once(&self.zero).chain(published)
    }

    /// Records one successful insert by thread `t` and, on the insert-count
    /// cadence only, doubles the mask if the live estimate exceeds the
    /// bucket count (load factor ≈ 1).
    #[inline]
    pub(crate) fn on_insert(&self, t: Tid) {
        if self.count.on_insert(t) {
            self.maybe_grow();
        }
    }

    /// Records one successful remove by thread `t`.
    #[inline]
    pub(crate) fn on_remove(&self, t: Tid) {
        self.count.on_remove(t);
    }

    fn maybe_grow(&self) {
        let live = self.count.live();
        // Ordering: Relaxed — the mask is a routing hint, not a guard; the
        // CAS below revalidates it and a stale read only delays growth.
        let mask = self.mask.load(Ordering::Relaxed);
        let buckets = mask + 1;
        if live > buckets && buckets < (1u64 << SPINE_LEVELS) {
            // Ordering: Relaxed — the mask is a routing hint, not a guard:
            // an operation using the old mask lands on an ancestor sentinel
            // and walks a few extra hops, which is always correct. Losing
            // the CAS means another thread already grew past `mask`.
            let _ = self.mask.compare_exchange(
                mask,
                mask * 2 + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }
}

impl<W> Drop for Directory<W> {
    fn drop(&mut self) {
        for (level, slot) in self.spine.iter().enumerate() {
            // Ordering: Acquire — pairs with the publishing CAS in
            // `segment`; Drop's exclusivity covers mutation, not the
            // visibility of another thread's published allocation.
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                let len = 1usize << level;
                // Safety: exclusive access; published from a `Box<[W]>` of
                // this length and never replaced.
                unsafe { drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(p, len))) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::sync::atomic::AtomicUsize;
    use std::collections::HashSet;
    use std::sync::{Arc, Barrier};

    fn plain(capacity: usize) -> Directory<AtomicUsize> {
        Directory::with_capacity(capacity, AtomicUsize::new(0))
    }

    #[test]
    fn slots_are_distinct_and_parents_clear_the_top_bit() {
        let dir = plain(1);
        let mut seen = HashSet::new();
        for b in 0..1usize << 12 {
            let slot = dir.slot(b, || AtomicUsize::new(0)) as *const AtomicUsize;
            assert!(seen.insert(slot), "bucket {b} shares a slot");
            assert_eq!(slot, dir.slot(b, || unreachable!("already published")));
        }
        assert_eq!(dir.slots().count(), 1 << 12, "zero + levels 0..12");
        for b in 1..1usize << 12 {
            let top = 1usize << (usize::BITS - 1 - b.leading_zeros());
            let parent = Directory::<AtomicUsize>::parent(b);
            assert_eq!(parent, b & !top, "parent of {b:#b}");
            assert!(parent < b && so_dummy(parent as u64) < so_dummy(b as u64));
        }
    }

    /// A slot word that counts itself, so a leaked segment shows.
    struct Probe(Arc<AtomicUsize>);

    impl Probe {
        fn new(live: &Arc<AtomicUsize>) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Probe(Arc::clone(live))
        }
    }

    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn racing_publishers_agree_and_losers_free_their_segments() {
        const LEVEL: usize = 9;
        for round in 0..50 {
            let live = Arc::new(AtomicUsize::new(0));
            let dir = Arc::new(Directory::with_capacity(1, Probe::new(&live)));
            let gate = Arc::new(Barrier::new(8));
            let b = (1usize << LEVEL) + round;
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    let (dir, live, gate) =
                        (Arc::clone(&dir), Arc::clone(&live), Arc::clone(&gate));
                    std::thread::spawn(move || {
                        gate.wait();
                        dir.slot(b, || Probe::new(&live)) as *const Probe as usize
                    })
                })
                .collect();
            let addrs: HashSet<usize> = racers.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(addrs.len(), 1, "every racer sees the winner's segment");
            assert_eq!(
                live.load(Ordering::SeqCst),
                1 + (1 << LEVEL),
                "zero + one segment: each loser dropped its own"
            );
            drop(Arc::try_unwrap(dir).ok().expect("racers joined"));
            assert_eq!(
                live.load(Ordering::SeqCst),
                0,
                "Drop frees the published segment"
            );
        }
    }

    #[test]
    fn sized_for_its_keys_it_never_grows() {
        let dir = plain(100);
        let t = smr::current_tid();
        assert_eq!(dir.buckets(), 128, "rounded up to a power of two");
        for _ in 0..128 {
            dir.on_insert(t);
        }
        assert_eq!(
            (dir.len(), dir.buckets()),
            (128, 128),
            "load factor 1 holds"
        );
        // Churn at the full size crosses many growth checks; none fires.
        for _ in 0..1024 {
            dir.on_remove(t);
            dir.on_insert(t);
        }
        assert_eq!((dir.len(), dir.buckets()), (128, 128));
        // The next check above load factor 1 doubles the mask, once.
        for _ in 0..64 {
            dir.on_insert(t);
        }
        assert_eq!((dir.len(), dir.buckets()), (192, 256));
        assert_eq!(dir.bucket_of(u64::MAX), 255);
    }
}
