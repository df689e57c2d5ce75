//! Split-ordered resizable hash map (manual reclamation): the
//! Shalev-Shavit lock-free extensible hash table over the generalized
//! acquire-retire interface.
//!
//! Same algorithm as [`crate::rc::resizable`] — one Harris-Michael list
//! sorted by bit-reversed hash, a lazily-doubled `split_order::Directory`
//! of sentinel shortcuts (`src/split_order.rs`), growth by
//! publishing a bigger mask — over the manual list's search
//! ([`super::list`]), which does the chores the RC variant deletes: every
//! unlinking CAS must `retire` its victim, every ejected node must be
//! freed, and traversal protection is hand-over-hand guards ending in
//! `Held`s instead of snapshot lifetimes.
//!
//! Sentinels are *immortal*: never marked, never retired, freed only at
//! teardown. That is what makes the directory sound under manual SMR — a
//! bucket shortcut read from the directory needs no guard at all, because
//! the node it names cannot be reclaimed while the map exists.

use smr::sync::atomic::{AtomicUsize, Ordering};
use std::cmp::Ordering as KeyOrder;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

use smr::{untagged, AcquireRetire, Tid};

use super::list::{find, find_or_link, remove_at, Cursor, Link};
use super::{ManualNode, Reclaimer};
use crate::split_order::{so_dummy, so_regular, Directory};
use crate::ConcurrentMap;

struct Node<K, V> {
    birth: u64,
    so_key: u64,
    /// `None` marks a bucket sentinel; sentinels are never removed and
    /// never surface through the map API.
    kv: Option<(K, V)>,
    /// Next pointer; low bit set = this node is logically deleted.
    next: AtomicUsize,
}

impl<K: Ord, V> Node<K, V> {
    #[inline]
    fn key(&self) -> Option<&K> {
        self.kv.as_ref().map(|(k, _)| k)
    }

    /// This node against `(so_key, key)` in split order: so-key first,
    /// then the real key (two distinct keys can share an odd so-key;
    /// sentinels are `None` and sort before every regular node).
    #[inline(always)]
    fn order(&self, so_key: u64, key: Option<&K>) -> KeyOrder {
        (self.so_key, self.key()).cmp(&(so_key, key))
    }
}

impl<K, V> Link for Node<K, V> {
    #[inline(always)]
    fn next(&self) -> &AtomicUsize {
        &self.next
    }
}

impl<K, V> ManualNode for Node<K, V> {
    #[inline(always)]
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
    dir: Directory<AtomicUsize>,
    reclaimer: Reclaimer<Node<K, V>, S>,
    hasher: RandomState,
}

// Safety: nodes are only dereferenced under scheme protection (or sentinel
// immortality); values cross threads only via `V: Send + Sync` clones.
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
        let map = ResizableHashMap {
            dir: Directory::with_capacity(capacity, AtomicUsize::new(0)),
            reclaimer: Reclaimer::new(S::default_config()),
            hasher: RandomState::new(),
        };
        let zero = Box::into_raw(map.new_node(smr::current_tid(), so_dummy(0), None));
        map.dir.zero().store(zero as usize, Ordering::SeqCst);
        map
    }

    /// Current bucket count (monotone; grows under load).
    pub fn buckets(&self) -> u64 {
        self.dir.buckets()
    }

    /// Approximate live element count (exact after joining workers).
    pub fn len(&self) -> u64 {
        self.dir.len()
    }

    /// Whether the map is (approximately) empty; see [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn new_node(&self, t: Tid, so_key: u64, kv: Option<(K, V)>) -> Box<Node<K, V>> {
        self.reclaimer.alloc(t, |birth| Node {
            birth,
            so_key,
            kv,
            next: AtomicUsize::new(0),
        })
    }

    /// Returns bucket `b`'s sentinel address, splicing it (and any missing
    /// ancestors, recursively) into the list on first touch. Must be called
    /// inside a critical section.
    fn ensure_bucket(&self, t: Tid, b: usize) -> usize {
        let slot = self.dir.slot(b, || AtomicUsize::new(0));
        let w = slot.load(Ordering::SeqCst);
        if w != 0 {
            return w;
        }
        debug_assert!(b > 0, "bucket 0's sentinel is installed at construction");
        let parent = self.ensure_bucket(t, Directory::<AtomicUsize>::parent(b));
        // Splice the sentinel in, or find the one a racing toucher did,
        // walking from the parent's. Either way its address is usable
        // unguarded forever, since sentinels are immortal.
        // Safety: as in `find_from`, from the parent sentinel's edge.
        let (Ok(addr) | Err(addr)) = unsafe {
            find_or_link(
                &self.reclaimer,
                t,
                &self.reclaimer.unguarded(t, parent).node().next,
                so_dummy(b as u64),
                |n, &so_key| n.order(so_key, None),
                |so_key| self.new_node(t, so_key, None),
                |n| &n.so_key,
            )
        };
        // Losing this install race is harmless: the list admits exactly one
        // node per (even) so-key, so any competing install wrote `addr` too.
        let _ = slot.compare_exchange(0, addr, Ordering::SeqCst, Ordering::SeqCst);
        addr
    }

    /// The sentinel to start `h`'s operation from under the current mask
    /// (re-read each attempt: a concurrent grow between attempts may have
    /// split the key's bucket).
    fn bucket_for(&self, t: Tid, h: u64) -> usize {
        self.ensure_bucket(t, self.dir.bucket_of(h))
    }

    /// The list module's Harris-Michael find from sentinel `start`'s edge
    /// to the first node ≥ `(so_key, key)` in split order
    /// ([`Node::order`]). Restarts are bucket-local. Must be called inside
    /// a critical section.
    #[inline(always)]
    fn find_from(
        &self,
        t: Tid,
        start: usize,
        so_key: u64,
        key: Option<&K>,
    ) -> Cursor<'_, Node<K, V>, S> {
        let r = &self.reclaimer;
        // Safety: sentinels are never retired, so `start`'s edge lives as
        // long as the map and is never marked (cf. `&self.head` in the
        // plain list); every node linked behind it is a `Box<Node<K, V>>`
        // retired through `self.reclaimer` once unlinked.
        unsafe {
            let start = r.unguarded(t, start);
            find(r, t, &start.node().next, |n| n.order(so_key, key))
        }
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
        let r = &self.reclaimer;
        let t = r.tid(guard);
        let h = self.hasher.hash_one(&key);
        let so = so_regular(h);
        // The bucket is read once: after a concurrent grow splits it, its
        // sentinel is an ancestor of the key's, which a walk passes through.
        // Safety: as in `find_from`, from the bucket sentinel's edge, in
        // `guard`'s section over `r`.
        let linked = unsafe {
            find_or_link(
                r,
                t,
                &r.unguarded(t, self.bucket_for(t, h)).node().next,
                key,
                |n, key| n.order(so, Some(key)),
                |key| self.new_node(t, so, Some((key, value))),
                |n| n.key().expect("a regular node"),
            )
            .is_ok()
        };
        if linked {
            self.dir.on_insert(t);
        }
        r.collect(t);
        linked
    }

    fn remove_with(&self, key: &K, guard: &Self::Guard) -> bool {
        let r = &self.reclaimer;
        let t = r.tid(guard);
        let h = self.hasher.hash_one(key);
        let removed = loop {
            let c = self.find_from(t, self.bucket_for(t, h), so_regular(h), Some(key));
            if !c.found {
                break false;
            }
            // Safety: `c` is this section's cursor over `r`, found.
            if unsafe { remove_at(c) } {
                self.dir.on_remove(t);
                break true;
            }
            // Retry from find so it can help the competing delete.
        };
        r.collect(t);
        removed
    }

    fn get_with(&self, key: &K, guard: &Self::Guard) -> Option<V> {
        let r = &self.reclaimer;
        let t = r.tid(guard);
        let h = self.hasher.hash_one(key);
        let c = self.find_from(t, self.bucket_for(t, h), so_regular(h), Some(key));
        let out = c.found.then(|| c.cur.node().kv.as_ref().unwrap().1.clone());
        drop(c);
        r.collect(t);
        out
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
        let head = self.dir.zero().load(Ordering::SeqCst);
        // Safety: exclusive access; linked nodes are never retired.
        unsafe { self.reclaimer.teardown([head]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for ResizableHashMap<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResizableHashMap")
            .field("scheme", &S::scheme_name())
            .field("buckets", &self.dir.buckets())
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
