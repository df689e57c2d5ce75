//! Split-ordered resizable hash map (manual reclamation): the
//! Shalev-Shavit lock-free extensible hash table over the generalized
//! acquire-retire interface.
//!
//! The one split-ordered body of `src/split_order.rs` — one
//! Harris-Michael list sorted by bit-reversed hash, a lazily-doubled
//! directory of sentinel shortcuts, growth by publishing a bigger mask —
//! run under the manual family, which does the chores the RC variant
//! deletes: every unlinking CAS must `retire` its victim, and every ejected
//! node must be freed.
//!
//! Sentinels are *immortal*: never marked, never retired, freed only at
//! teardown. That is what makes the directory sound under manual SMR — a
//! bucket shortcut read from the directory needs no guard at all, because
//! the node it names cannot be reclaimed while the map exists.

use smr::sync::atomic::{AtomicUsize, Ordering};
use std::hash::Hash;

use smr::{untagged, AcquireRetire, SectionGuard};

use super::{Manual, ManualKind, ManualNode, Reclaimer};
use crate::split_order::{self, so_dummy, SplitOrdered};
use crate::ConcurrentMap;

/// The map node, with plain-word edges and a birth epoch.
pub(super) type Node<K, V> = split_order::Node<K, V, ManualKind>;

impl<K, V> ManualNode for Node<K, V> {
    fn birth(&self) -> u64 {
        self.birth
    }

    fn out_edges(&self, out: &mut Vec<usize>) {
        out.push(untagged(self.next.load(Ordering::SeqCst)));
    }
}

/// Lock-free resizable (split-ordered) hash map under manual SMR scheme
/// `S` ("EBR", "IBR", "HP", "Hyaline" depending on `S`). Grows without
/// stopping the world: no node is ever copied, no array ever retired.
pub struct ResizableHashMap<K, V, S: AcquireRetire> {
    /// Slots hold sentinel addresses (0 = bucket untouched), CAS-installed
    /// at most once; bucket 0's sentinel — the head of the entire list — is
    /// installed at construction.
    map: SplitOrdered<K, V, ManualKind>,
    reclaimer: Reclaimer<Node<K, V>, S>,
}

// Safety: nodes are only dereferenced under scheme protection; keys and
// values cross threads inside nodes and as `V: Send + Sync` clones.
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Send for ResizableHashMap<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Sync for ResizableHashMap<K, V, S> {}

impl<K, V, S> ResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates a map with one bucket and its own scheme instance.
    pub fn new() -> Self {
        Self::with_capacity(1)
    }

    /// Creates a map pre-sized for `capacity` elements (rounded up to a
    /// power of two; sentinels still splice in lazily), with its own
    /// scheme instance. The table doubles once its element count exceeds
    /// its bucket count, so one sized for its key range never grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let reclaimer = Reclaimer::new(S::default_config());
        let zero = reclaimer.alloc(smr::current_tid(), |birth| {
            Node::new(AtomicUsize::new(0), birth, so_dummy(0), None)
        });
        let zero = AtomicUsize::new(Box::into_raw(zero) as usize);
        let map = SplitOrdered::with_capacity(capacity, zero);
        ResizableHashMap { map, reclaimer }
    }

    /// Current bucket count (monotone; grows under load).
    pub fn buckets(&self) -> u64 {
        self.map.dir.buckets()
    }

    fn op<'g>(&'g self, guard: &'g SectionGuard<S>) -> Manual<'g, Node<K, V>, S> {
        // Safety: every node behind the sentinels is a `Box<Node<K, V>>` of
        // `self.reclaimer`, retired through it once unlinked; sentinels are
        // never retired.
        unsafe { Manual::new(&self.reclaimer, guard) }
    }
}

impl<K, V, S> ConcurrentMap<K, V> for ResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    type Guard = smr::SectionGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.reclaimer.pin()
    }

    fn insert_with(&self, key: K, value: V, guard: &Self::Guard) -> bool {
        self.map.insert(self.op(guard), key, value)
    }

    fn remove_with(&self, key: &K, guard: &Self::Guard) -> bool {
        self.map.remove(self.op(guard), key)
    }

    fn get_with(&self, key: &K, guard: &Self::Guard) -> Option<V> {
        self.map.get(self.op(guard), key)
    }

    fn in_flight_nodes(&self) -> u64 {
        self.reclaimer.in_flight()
    }
}

impl<K, V, S> Default for ResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: AcquireRetire> Drop for ResizableHashMap<K, V, S> {
    fn drop(&mut self) {
        // The zero sentinel heads the entire list, so one root reaches
        // every node — sentinels, live nodes and marked-but-linked ones.
        // Directory slots hold plain addresses (no ownership): the
        // directory frees its own segments.
        let head = self.map.dir.zero().load(Ordering::SeqCst);
        // Safety: exclusive access; linked nodes are never retired.
        unsafe { self.reclaimer.teardown([head]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for ResizableHashMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResizableHashMap")
            .field("scheme", &S::scheme_name())
            .field("buckets", &self.map.dir.buckets())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{Ebr, Hp, Hyaline, Ibr};
    use std::sync::Arc;

    fn smoke_on<S: AcquireRetire>() {
        let m: ResizableHashMap<u64, u64, S> = ResizableHashMap::new();
        assert!(m.insert(5, 50));
        assert!(m.insert(3, 30));
        assert!(!m.insert(5, 55), "duplicate rejected");
        assert_eq!(m.get(&5), Some(50));
        assert_eq!(m.get(&4), None);
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert_eq!(m.get(&5), None);
        assert_eq!(m.get(&3), Some(30));
    }

    #[test]
    fn smoke_all_schemes() {
        smoke_on::<Ebr>();
        smoke_on::<Ibr>();
        smoke_on::<Hp>();
        smoke_on::<Hyaline>();
    }

    #[test]
    fn a_failed_insert_allocates_nothing() {
        fn on<S: AcquireRetire>() {
            let m: ResizableHashMap<u64, u64, S> = ResizableHashMap::new();
            crate::a_failed_insert_allocates_nothing(&m, || m.reclaimer.nodes.totals().0);
        }
        on::<Ebr>();
        on::<Ibr>();
        on::<Hp>();
        on::<Hyaline>();
    }

    #[test]
    fn grows_under_single_threaded_load() {
        let m: ResizableHashMap<u64, u64, Ebr> = ResizableHashMap::new();
        assert_eq!(m.buckets(), 1);
        for k in 0..4096u64 {
            assert!(m.insert(k, k));
        }
        assert!(m.buckets() > 1, "mask never grew");
        for k in 0..4096u64 {
            assert_eq!(m.get(&k), Some(k), "key {k} lost across growth");
        }
    }

    #[test]
    fn concurrent_grow_under_churn() {
        let seed = crate::test_seed();
        let m: Arc<ResizableHashMap<u64, u64, Hp>> = Arc::new(ResizableHashMap::new());
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 500) {
                        let k = i * 10_000 + j;
                        assert!(m.insert(k, k));
                        assert_eq!(m.get(&k), Some(k));
                        if j % 2 == 0 {
                            assert!(m.remove(&k));
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
        assert!(m.buckets() > 1, "table grew during churn");
        for i in 0..8u64 {
            for j in 0..500u64 {
                let k = i * 10_000 + j;
                let want = if j % 2 == 0 { None } else { Some(k) };
                assert_eq!(m.get(&k), want, "key {k}, TEST_SEED={seed}");
            }
        }
    }

    /// `threads` workers each insert 1000 keys and remove every other one;
    /// once the map drops, every node — sentinels, live, and retired in
    /// any worker's slot — must be freed.
    fn no_leaks_after_churn(threads: u64) {
        let seed = crate::test_seed();
        let m: Arc<ResizableHashMap<u64, u64, Ebr>> = Arc::new(ResizableHashMap::new());
        let nodes = Arc::clone(&m.reclaimer.nodes);
        let hs: Vec<_> = (0..threads)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 1000) {
                        let k = i * 10_000 + j;
                        m.insert(k, k);
                        if j % 2 == 0 {
                            m.remove(&k);
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
        drop(m);
        assert_eq!(
            nodes.net(),
            0,
            "every node freed at drop (TEST_SEED={seed})"
        );
    }

    #[test]
    fn no_leaks_after_drop() {
        no_leaks_after_churn(1);
        no_leaks_after_churn(4);
    }

    // Built `with_capacity`, the way the benches and the ledger build their
    // tables.

    #[test]
    fn smoke() {
        let m: ResizableHashMap<u64, String, Ebr> = ResizableHashMap::with_capacity(16);
        assert!(m.insert(1, "one".into()));
        assert!(m.insert(17, "seventeen".into())); // same bucket candidate
        assert!(!m.insert(1, "uno".into()));
        assert_eq!(m.get(&1).as_deref(), Some("one"));
        assert!(m.remove(&1));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&17).as_deref(), Some("seventeen"));
        assert_eq!(m.buckets(), 16);
    }

    #[test]
    fn concurrent_hp() {
        let seed = crate::test_seed();
        let m: Arc<ResizableHashMap<u64, u64, Hp>> = Arc::new(ResizableHashMap::with_capacity(64));
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 500) {
                        let k = i * 1000 + j;
                        assert!(m.insert(k, k));
                        assert_eq!(m.get(&k), Some(k));
                        if j % 2 == 1 {
                            assert!(m.remove(&k));
                        }
                    }
                })
            })
            .collect();
        crate::join_seeded(hs, seed);
    }
}
