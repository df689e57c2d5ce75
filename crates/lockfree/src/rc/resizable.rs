//! Split-ordered resizable hash map over reference-counted pointers
//! (Shalev & Shavit, "Split-ordered lists: lock-free extensible hash
//! tables", adapted to the `cdrc` pointer types).
//!
//! # Why split-ordering instead of bucket-array migration
//!
//! A migrating resize must copy nodes between arrays, and every copy is a
//! window where a straggling helper can resurrect a key that was copied
//! and then deleted — closing that window costs per-bucket freeze markers
//! and claim CASes on the hot path. Split-ordering moves **no nodes,
//! ever**: the table is one Harris-Michael list sorted by *bit-reversed*
//! hash (the "split-order key"), and a bucket is merely a shortcut pointer
//! to a permanent sentinel ("dummy") node inside that list. Growing the
//! table just publishes a bigger mask; new sentinels are spliced in lazily,
//! on first touch, by the same insert CAS every other node uses. The
//! witness-returning CAS family does all the work: retry loops resume from
//! the witnessed word, and a successful unlink's displaced reference *is*
//! the reclamation hand-off.
//!
//! # Split-order keys
//!
//! Regular nodes carry `so_key = hash.reverse_bits() | 1` (odd); the
//! sentinel for bucket `b` carries `so_key = (b as u64).reverse_bits()`
//! (even, all low bits zero). With the bucket of `h` chosen as
//! `h & mask` (low bits), bit reversal sends every key of bucket `b` into
//! the contiguous so-key range beginning at `b`'s sentinel — doubling the
//! mask *splits* each range in two without reordering anything. Sentinels
//! sort strictly before the regular nodes of their bucket (the `| 1`),
//! collide with no regular key, and are never deleted, so a bucket pointer
//! read once is valid forever.
//!
//! # The lazily-doubled directory
//!
//! Bucket pointers live in a `split_order::Directory` of strong,
//! CAS-installed-once references to sentinels — the same directory the
//! manual table keeps addresses in. The map's operations are the one
//! split-ordered body of `src/split_order.rs`, run under the automatic
//! family; what is this file's own is the teardown that follows from a
//! slot's owning a reference to its sentinel.

use std::hash::Hash;

use cdrc::{AtomicSharedPtr, CsGuard, DomainRef, EdgeCollector, GraphNode, Scheme, SharedPtr};

use super::{Rc, RcKind};
use crate::split_order::{self, so_dummy, SplitOrdered};
use crate::ConcurrentMap;

/// The map node, with counted edges.
pub(super) type Node<K, V, S> = split_order::Node<K, V, RcKind<S>>;

impl<K, V, S: Scheme> GraphNode<S> for Node<K, V, S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

/// Lock-free resizable hash map over `cdrc` pointers with scheme `S`
/// ("RCEBR", "RCIBR", "RCHP", "RCHyaline" depending on `S`): a
/// split-ordered list that grows without stopping the world.
///
/// Grows by doubling the bucket mask once the (sharded, approximate) live
/// count exceeds the bucket count — load factor ≈ 1, the classic
/// split-ordered policy. No operation ever blocks on a resize; there is no
/// resize *phase* at all.
pub struct RcResizableHashMap<K, V, S: Scheme> {
    /// Each directory slot holds a strong reference to its bucket's
    /// sentinel; bucket 0's, installed at construction, heads the whole
    /// list and anchors teardown.
    map: SplitOrdered<K, V, RcKind<S>>,
    domain: DomainRef<S>,
}

impl<K, V, S> RcResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    /// Creates a map with one bucket, bound to the scheme's global domain.
    pub fn new() -> Self {
        Self::new_in(S::global_domain().clone())
    }

    /// Creates a map with one bucket, bound to `domain`.
    pub fn new_in(domain: DomainRef<S>) -> Self {
        Self::with_capacity_in(1, domain)
    }

    /// Creates a map pre-sized for `capacity` elements (rounded up to a
    /// power of two; sentinels still splice in lazily), bound to the
    /// scheme's global domain.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_in(capacity, S::global_domain().clone())
    }

    /// As [`with_capacity`](Self::with_capacity), bound to `domain`.
    pub fn with_capacity_in(capacity: usize, domain: DomainRef<S>) -> Self {
        let zero = Node::new(AtomicSharedPtr::null_in(&domain), (), so_dummy(0), None);
        let zero = AtomicSharedPtr::new_in(SharedPtr::new_graph_in(zero, &domain), &domain);
        RcResizableHashMap {
            map: SplitOrdered::with_capacity(capacity, zero),
            domain,
        }
    }

    /// The reclamation domain this map allocates and reclaims through.
    pub fn domain(&self) -> &DomainRef<S> {
        &self.domain
    }

    /// Current bucket count (monotone; grows under load).
    pub fn buckets(&self) -> u64 {
        self.map.dir.buckets()
    }

    fn op<'g>(&'g self, cs: &'g CsGuard<S>) -> Rc<'g, Node<K, V, S>, S> {
        Rc::new(cs, &self.domain)
    }
}

impl<K, V, S> ConcurrentMap<K, V> for RcResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    type Guard = CsGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.domain.cs()
    }

    fn insert_with(&self, k: K, v: V, cs: &Self::Guard) -> bool {
        self.map.insert(self.op(cs), k, v)
    }

    fn remove_with(&self, k: &K, cs: &Self::Guard) -> bool {
        self.map.remove(self.op(cs), k)
    }

    fn get_with(&self, k: &K, cs: &Self::Guard) -> Option<V> {
        self.map.get(self.op(cs), k)
    }

    /// Exact for this map's own domain (live nodes — including sentinels —
    /// plus deferred garbage).
    fn in_flight_nodes(&self) -> u64 {
        self.domain.in_flight()
    }
}

impl<K, V, S> Default for RcResizableHashMap<K, V, S>
where
    K: Ord + Hash + Send + Sync,
    V: Clone + Send + Sync,
    S: Scheme,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: Scheme> Drop for RcResizableHashMap<K, V, S> {
    fn drop(&mut self) {
        // Null every directory slot. The `zero` slot owns the list head, so
        // dropping its reference cascades down the chain (immediate
        // recursive destruction via `pop_edges`); the other slots hold
        // additional strong references to sentinels and must be released
        // too (the directory then frees its segments). Finally flush the
        // domain so a private-domain map leaves `allocated() == freed()`.
        for slot in self.map.dir.slots() {
            slot.store(SharedPtr::null());
        }
        self.domain.process_deferred(smr::current_tid());
    }
}

impl<K, V, S: Scheme> std::fmt::Debug for RcResizableHashMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcResizableHashMap")
            .field("buckets", &self.map.dir.buckets())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdrc::{EbrScheme, HpScheme, HyalineScheme, IbrScheme};
    use std::sync::Arc;

    fn smoke_on<S: Scheme>() {
        let m: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::new();
        assert!(m.insert(5, 50));
        assert!(m.insert(3, 30));
        assert!(!m.insert(5, 55));
        assert_eq!(m.get(&5), Some(50));
        assert_eq!(m.get(&4), None);
        assert!(m.remove(&5));
        assert!(!m.remove(&5));
        assert_eq!(m.get(&5), None);
        assert_eq!(m.get(&3), Some(30));
    }

    /// `kv_cold_read` is bound by node size: the map node is what it was
    /// with a handle in every edge (an `AtomicSharedPtr` is still a word
    /// and a domain), 48 bytes behind the control-block header (24 B, 32 B
    /// under IBR).
    #[test]
    fn node_is_no_larger_than_with_counted_edges() {
        let node = std::mem::size_of::<Node<u64, u64, EbrScheme>>();
        let (block, header) = cdrc::block_layout::<Node<u64, u64, EbrScheme>, EbrScheme>();
        let (ibr_block, ibr_header) = cdrc::block_layout::<Node<u64, u64, IbrScheme>, IbrScheme>();
        println!(
            "map node {node} B (parent: 48 B); with the {header} B header a {block} B block, \
             with IBR's {ibr_header} B header {ibr_block} B"
        );
        assert!(node <= 48);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke_on::<EbrScheme>();
        smoke_on::<IbrScheme>();
        smoke_on::<HpScheme>();
        smoke_on::<HyalineScheme>();
    }

    #[test]
    fn a_failed_insert_allocates_nothing() {
        fn on<S: Scheme>() {
            let d: DomainRef<S> = DomainRef::new();
            let m: RcResizableHashMap<u64, u64, S> = RcResizableHashMap::new_in(d.clone());
            crate::a_failed_insert_allocates_nothing(&m, || d.allocated());
        }
        on::<EbrScheme>();
        on::<IbrScheme>();
        on::<HpScheme>();
        on::<HyalineScheme>();
    }

    #[test]
    fn grows_under_single_threaded_load() {
        let m: RcResizableHashMap<u64, u64, EbrScheme> = RcResizableHashMap::new();
        assert_eq!(m.buckets(), 1);
        for k in 0..4096u64 {
            assert!(m.insert(k, k));
        }
        assert!(m.buckets() > 1, "mask never grew");
        for k in 0..4096u64 {
            assert_eq!(m.get(&k), Some(k), "key {k} lost across growth");
        }
        for k in 0..4096u64 {
            assert!(m.remove(&k));
        }
        for k in 0..4096u64 {
            assert_eq!(m.get(&k), None);
        }
    }

    #[test]
    fn domain_balances_after_drop() {
        let domain: DomainRef<EbrScheme> = DomainRef::new();
        let m: RcResizableHashMap<u64, u64, EbrScheme> = RcResizableHashMap::new_in(domain.clone());
        for k in 0..1024u64 {
            assert!(m.insert(k, k));
        }
        for k in 0..512u64 {
            assert!(m.remove(&k));
        }
        drop(m);
        assert_eq!(domain.allocated(), domain.freed(), "Drop flushes all");
    }

    #[test]
    fn concurrent_grow_under_churn() {
        let seed = crate::test_seed();
        let m: Arc<RcResizableHashMap<u64, u64, HpScheme>> = Arc::new(RcResizableHashMap::new());
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

    #[test]
    fn with_capacity_rounds_up() {
        let m: RcResizableHashMap<u64, u64, EbrScheme> = RcResizableHashMap::with_capacity(100);
        assert_eq!(m.buckets(), 128);
    }

    // Built `with_capacity(_in)`, the way the benches and the ledger build
    // their tables.

    #[test]
    fn smoke() {
        let m: RcResizableHashMap<u64, String, EbrScheme> = RcResizableHashMap::with_capacity(16);
        assert!(m.insert(1, "one".into()));
        assert!(!m.insert(1, "uno".into()));
        assert_eq!(m.get(&1).as_deref(), Some("one"));
        assert!(m.remove(&1));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.buckets(), 16);
    }

    #[test]
    fn buckets_share_the_tables_domain() {
        let domain: DomainRef<EbrScheme> = DomainRef::new();
        let m: RcResizableHashMap<u64, u64, EbrScheme> =
            RcResizableHashMap::with_capacity_in(8, domain.clone());
        for k in 0..100u64 {
            assert!(m.insert(k, k));
        }
        domain.process_deferred(smr::current_tid());
        // Sentinels are nodes of the same domain: one per touched bucket.
        let sentinels = m
            .map
            .dir
            .slots()
            .filter(|s| !s.load_tagged().is_null())
            .count();
        assert!(sentinels >= 1, "bucket 0's sentinel always exists");
        assert_eq!(
            m.in_flight_nodes(),
            100 + sentinels as u64,
            "all buckets meter one domain"
        );
        drop(m);
        assert_eq!(domain.allocated(), domain.freed());
    }

    #[test]
    fn concurrent_hp() {
        let seed = crate::test_seed();
        let m: Arc<RcResizableHashMap<u64, u64, HpScheme>> =
            Arc::new(RcResizableHashMap::with_capacity(64));
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for j in crate::seeded_order(seed, i, 400) {
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
