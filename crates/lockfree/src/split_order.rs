//! The split-ordered resizable map (Shalev & Shavit), written once for both
//! families over [`crate::list`]: the split-order key arithmetic, the
//! lazily doubled bucket [`Directory`], and the map's operations from a
//! bucket sentinel. Bucket sentinels carry even bit-reversed keys, regular
//! nodes odd ones, so doubling the bucket mask splits every bucket's
//! contiguous so-key range without moving a node. What stays with each
//! family is how a directory slot holds its sentinel (`ensure_bucket`) and
//! teardown.
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

use std::cmp::Ordering as KeyOrder;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

use smr::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use smr::util::LanePairs;

use crate::family::{Edge, Family, Kind, Link};
use crate::list;

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

/// The bucket directory of a split-ordered table: a `zero` slot, the spine
/// of lazily published segments, the routing mask and the element count
/// that decides when the mask doubles.
///
/// The count is per-thread inserts (`up`) and removes (`down`), so the
/// insert path does no shared `fetch_add`; it is folded only on a lane's
/// growth-check cadence, and the fold only errs high.
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
    count: LanePairs,
}

impl<W> Directory<W> {
    /// How many successful inserts a lane absorbs between growth checks.
    /// The live count can therefore lag by `MAX_THREADS * GROW_CHECK_EVERY`
    /// in the worst case — bounded slack, spent on keeping the insert fast
    /// path free of cross-thread folds.
    const GROW_CHECK_EVERY: u64 = 64;

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
            count: LanePairs::new(),
        }
    }

    /// Current bucket count (monotone; grows under load).
    pub(crate) fn buckets(&self) -> u64 {
        // Ordering: Relaxed — reporting read of a monotone routing mask; a
        // stale value is just an older (still valid) size.
        self.mask.load(Ordering::Relaxed) + 1
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

    /// Records one successful insert by the calling thread and, every
    /// [`GROW_CHECK_EVERY`](Self::GROW_CHECK_EVERY)th insert of its lane,
    /// doubles the mask if the live estimate exceeds the bucket count (load
    /// factor ≈ 1).
    #[inline]
    pub(crate) fn on_insert(&self) {
        if self
            .count
            .up(smr::current_tid())
            .is_multiple_of(Self::GROW_CHECK_EVERY)
        {
            self.maybe_grow();
        }
    }

    /// Records one successful remove by the calling thread.
    #[inline]
    pub(crate) fn on_remove(&self) {
        self.count.down(smr::current_tid());
    }

    fn maybe_grow(&self) {
        let live = self.count.net();
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

/// A split-ordered node of either family: a bucket sentinel (`kv` is
/// `None`) or a regular node. `repr(C)`, in the order a hop reads: `find`
/// loads `next` and compares `so_key` first.
#[repr(C)]
pub(crate) struct Node<K, V, M: Kind> {
    pub(crate) next: M::Edge<Self>,
    so_key: u64,
    pub(crate) birth: M::Birth,
    /// Sentinels are never removed and never surface through the map API.
    kv: Option<(K, V)>,
}

impl<K: Ord, V, M: Kind> Node<K, V, M> {
    pub(crate) fn new(
        next: M::Edge<Self>,
        birth: M::Birth,
        so_key: u64,
        kv: Option<(K, V)>,
    ) -> Self {
        Node {
            next,
            so_key,
            birth,
            kv,
        }
    }

    #[inline]
    fn key(&self) -> Option<&K> {
        self.kv.as_ref().map(|(k, _)| k)
    }

    /// This node against `(so_key, key)` in split order: so-key first,
    /// then the real key (two distinct keys can share an odd so-key;
    /// sentinels have none and sort before every regular node).
    #[inline(always)]
    fn order(&self, so_key: u64, key: Option<&K>) -> KeyOrder {
        (self.so_key, self.key()).cmp(&(so_key, key))
    }
}

impl<K, V, M: Kind> Link<M> for Node<K, V, M> {
    #[inline(always)]
    fn next(&self) -> &M::Edge<Self> {
        &self.next
    }
}

/// The edge a bucket's walks start (and restart) from: its sentinel's
/// `next`. Sentinels are never deleted, so the edge is never marked.
#[inline(always)]
fn head<'a, F: Family>(start: &'a F::Held) -> &'a Edge<F>
where
    F::Node: 'a,
{
    F::node(start).expect("sentinels are non-null").next()
}

/// A split-ordered map: one Harris-Michael list sorted by split-order key,
/// and the directory of shortcuts to its bucket sentinels, each slot an
/// edge of the family's kind.
pub(crate) struct SplitOrdered<K, V, M: Kind> {
    /// Bucket 0's slot holds the sentinel that heads the whole list.
    pub(crate) dir: Directory<M::Edge<Node<K, V, M>>>,
    hasher: RandomState,
}

impl<K: Ord + Hash, V, M: Kind> SplitOrdered<K, V, M> {
    /// A map pre-sized for `capacity` elements whose bucket 0 is `zero`.
    pub(crate) fn with_capacity(capacity: usize, zero: M::Edge<Node<K, V, M>>) -> Self {
        SplitOrdered {
            dir: Directory::with_capacity(capacity, zero),
            hasher: RandomState::new(),
        }
    }

    /// `k`'s sentinel under the current mask, and its split-order key. The
    /// bucket is read once per operation: after a concurrent grow splits
    /// it, its sentinel is an ancestor of the key's, which a walk passes
    /// through.
    #[inline]
    fn route<F>(&self, f: F, k: &K) -> (F::Held, u64)
    where
        F: Family<Kind = M, Node = Node<K, V, M>>,
    {
        let h = self.hasher.hash_one(k);
        (self.bucket(f, self.dir.bucket_of(h)), so_regular(h))
    }

    /// Returns bucket `b`'s sentinel, splicing it (and, recursively, any
    /// missing ancestors) into the list on first touch: walking from the
    /// parent's sentinel, it inserts or finds the one node with `b`'s
    /// so-key, then installs it in `b`'s slot. Recursion depth is the
    /// popcount of `b`.
    fn bucket<F>(&self, f: F, b: usize) -> F::Held
    where
        F: Family<Kind = M, Node = Node<K, V, M>>,
    {
        let slot = self.dir.slot(b, || F::null(self.dir.zero()));
        if let Some(s) = f.sentinel(slot) {
            return s;
        }
        debug_assert!(b > 0, "bucket 0's sentinel is installed at construction");
        let parent = self.bucket(f, Directory::<Edge<F>>::parent(b));
        let (edge, so) = (head::<F>(&parent), so_dummy(b as u64));
        let make = |so| f.alloc(edge, |next, birth| Node::new(next, birth, so, None));
        let by_so = |n: &Node<K, V, M>, so: &u64| n.order(*so, None);
        list::find_or_link(f, edge, so, by_so, make, |n| &n.so_key);
        let c = list::find(f, edge, |n| n.order(so, None));
        debug_assert!(c.found, "a spliced sentinel is never deleted");
        F::install(slot, &c.cur);
        drop(c);
        f.release(parent);
        f.sentinel(slot).expect("installed")
    }

    pub(crate) fn insert<F>(&self, f: F, k: K, v: V) -> bool
    where
        F: Family<Kind = M, Node = Node<K, V, M>>,
    {
        let (start, so) = self.route(f, &k);
        let at = head::<F>(&start);
        let make = |k| f.alloc(at, |next, birth| Node::new(next, birth, so, Some((k, v))));
        let by_key = |n: &Node<K, V, M>, k: &K| n.order(so, Some(k));
        let linked =
            list::find_or_link(f, at, k, by_key, make, |n| n.key().expect("a regular node"));
        f.release(start);
        f.end();
        if linked {
            self.dir.on_insert();
        }
        linked
    }

    pub(crate) fn remove<F>(&self, f: F, k: &K) -> bool
    where
        F: Family<Kind = M, Node = Node<K, V, M>>,
    {
        let (start, so) = self.route(f, k);
        let removed = list::remove(f, head::<F>(&start), |n| n.order(so, Some(k)));
        f.release(start);
        if removed {
            self.dir.on_remove();
        }
        removed
    }

    pub(crate) fn get<F>(&self, f: F, k: &K) -> Option<V>
    where
        F: Family<Kind = M, Node = Node<K, V, M>>,
        V: Clone,
    {
        let (start, so) = self.route(f, k);
        let by_key = |n: &Node<K, V, M>| n.order(so, Some(k));
        let out = list::get(f, head::<F>(&start), by_key, |n| {
            n.kv.as_ref().map(|kv| kv.1.clone())
        });
        f.release(start);
        out.flatten()
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
        assert_eq!(dir.buckets(), 128, "rounded up to a power of two");
        for _ in 0..128 {
            dir.on_insert();
        }
        assert_eq!(
            (dir.count.net(), dir.buckets()),
            (128, 128),
            "load factor 1 holds"
        );
        // Churn at the full size crosses many growth checks; none fires.
        for _ in 0..1024 {
            dir.on_remove();
            dir.on_insert();
        }
        assert_eq!((dir.count.net(), dir.buckets()), (128, 128));
        // The next check above load factor 1 doubles the mask, once.
        for _ in 0..64 {
            dir.on_insert();
        }
        assert_eq!((dir.count.net(), dir.buckets()), (192, 256));
        assert_eq!(dir.bucket_of(u64::MAX), 255);
    }
}
