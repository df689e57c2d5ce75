//! Natarajan-Mittal lock-free external binary search tree (manual
//! reclamation).
//!
//! An external (leaf-oriented) BST: internal nodes route, leaves store
//! key/value pairs. Deletion *flags* the edge to the victim leaf, *tags* the
//! sibling edge to freeze it, and swings the ancestor's edge to splice the
//! whole chain out with one CAS. The winner of that CAS must then walk the
//! spliced-out chain retiring every internal node and flagged leaf — the
//! easy-to-forget loop of the paper's Figure 1a (the code this crate's `rc`
//! variant deletes entirely).
//!
//! Edge words carry two low bits: `FLAG` (bit 0 — the child leaf is being
//! deleted) and `TAG` (bit 1 — the edge is frozen because the child internal
//! node is being spliced out).
//!
//! Protection: each operation runs in one critical section; traversal holds
//! hand-over-hand guards on the ancestor / parent / current roles (the
//! successor is only ever used as a CAS comparand, never dereferenced), so
//! the structure is safe under protected-pointer schemes as well — the
//! "modified, correct HP variant" the paper mentions (§5.1).

use smr::sync::atomic::{AtomicUsize, Ordering};

use smr::{AcquireRetire, Tid};

use super::{ManualNode, Reclaimer};
use crate::nm::{NmKey, FLAG, TAG};
use crate::ConcurrentMap;

const BITS: usize = FLAG | TAG;

#[inline]
fn addr(w: usize) -> usize {
    w & !BITS
}

#[inline]
fn flagged(w: usize) -> bool {
    w & FLAG != 0
}

#[inline]
fn tagged(w: usize) -> bool {
    w & TAG != 0
}

struct Node<K, V> {
    birth: u64,
    key: NmKey<K>,
    /// Present on value-bearing leaves only.
    value: Option<V>,
    left: AtomicUsize,
    right: AtomicUsize,
}

impl<K, V> ManualNode for Node<K, V> {
    fn birth(&self) -> u64 {
        self.birth
    }

    fn out_edges(&self, out: &mut Vec<usize>) {
        // Ordering: Relaxed — edge harvest runs at destruction time, when
        // the reclaimer has exclusive access to the node; the words can no
        // longer change and their pointees were acquired at unlink.
        out.push(addr(self.left.load(Ordering::Relaxed)));
        out.push(addr(self.right.load(Ordering::Relaxed)));
    }
}

impl<K, V> Node<K, V> {
    fn internal(birth: u64, key: NmKey<K>, left: usize, right: usize) -> Self {
        Node {
            birth,
            key,
            value: None,
            left: AtomicUsize::new(left),
            right: AtomicUsize::new(right),
        }
    }

    fn leaf(birth: u64, key: NmKey<K>, value: Option<V>) -> Self {
        Node {
            value,
            ..Self::internal(birth, key, 0, 0)
        }
    }
}

/// Seek record (paper Fig. 1): the last untagged edge on the search path is
/// `ancestor → successor`; `parent → leaf` is the final edge.
struct SeekRecord<G> {
    ancestor: usize,
    ancestor_guard: Option<G>,
    /// CAS comparand only — never dereferenced.
    successor: usize,
    parent: usize,
    parent_guard: Option<G>,
    leaf: usize,
    leaf_guard: Option<G>,
}

/// The Natarajan-Mittal tree under manual SMR scheme `S`.
pub struct NatarajanMittalTree<K, V, S: AcquireRetire> {
    /// Root internal node R (key ∞₂); R.left = S (key ∞₁); sentinels are
    /// never unlinked.
    root: *mut Node<K, V>,
    s_node: *mut Node<K, V>,
    reclaimer: Reclaimer<Node<K, V>, S>,
}

unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Send
    for NatarajanMittalTree<K, V, S>
{
}
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Sync
    for NatarajanMittalTree<K, V, S>
{
}

impl<K, V, S> NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates an empty tree with its own scheme instance.
    pub fn new() -> Self {
        let reclaimer = Reclaimer::new(S::default_config());
        // Initial shape (paper [21]): R(∞₂){ S(∞₁){ leaf ∞₀, leaf ∞₁ },
        // leaf ∞₂ }. Real keys all route left of S.
        // Sentinels are never retired, so their birth epoch goes unread.
        let t = smr::current_tid();
        let new = |n: Node<K, V>| Box::into_raw(reclaimer.alloc(t, |_| n)) as usize;
        let l0 = new(Node::leaf(0, NmKey::Inf0, None));
        let l1 = new(Node::leaf(0, NmKey::Inf1, None));
        let l2 = new(Node::leaf(0, NmKey::Inf2, None));
        let s_node = new(Node::internal(0, NmKey::Inf1, l0, l1));
        let root = new(Node::internal(0, NmKey::Inf2, s_node, l2));
        NatarajanMittalTree {
            root: root as *mut _,
            s_node: s_node as *mut _,
            reclaimer,
        }
    }

    /// The child edge of `node` on the search path for `key`.
    ///
    /// Safety: `node` must be protected (or a sentinel).
    unsafe fn child_edge(&self, node: usize, key: &NmKey<K>) -> *const AtomicUsize {
        let n = node as *const Node<K, V>;
        if *key < (*n).key {
            &(*n).left
        } else {
            &(*n).right
        }
    }

    unsafe fn is_leaf(&self, node: usize) -> bool {
        let n = node as *const Node<K, V>;
        addr((*n).left.load(Ordering::SeqCst)) == 0
    }

    fn release_seek(&self, t: Tid, s: &mut SeekRecord<S::Guard>) {
        for g in [
            s.ancestor_guard.take(),
            s.parent_guard.take(),
            s.leaf_guard.take(),
        ]
        .into_iter()
        .flatten()
        {
            self.reclaimer.release(t, g);
        }
    }

    /// Walks from the root to the leaf on `key`'s search path, maintaining
    /// the seek record. Runs inside the operation's critical section.
    fn seek(&self, t: Tid, key: &NmKey<K>) -> SeekRecord<S::Guard> {
        let mut s = SeekRecord {
            ancestor: self.root as usize,
            ancestor_guard: None,
            successor: self.s_node as usize,
            parent: self.s_node as usize,
            parent_guard: None,
            leaf: 0,
            leaf_guard: None,
        };
        // Safety: sentinels are never unlinked; S's edges are valid.
        let edge = unsafe { self.child_edge(s.parent, key) };
        let (mut child_w, g) = self
            .reclaimer
            .try_acquire(t, unsafe { &*edge })
            .expect("seek holds at most 4 guards");
        let mut child_guard = Some(g);
        loop {
            let cur = addr(child_w);
            // External tree: edges always lead to a node.
            debug_assert_ne!(cur, 0);
            // Safety: cur is protected by child_guard.
            if unsafe { self.is_leaf(cur) } {
                s.leaf = cur;
                s.leaf_guard = child_guard.take();
                return s;
            }
            if !tagged(child_w) {
                // Last untagged edge so far: parent becomes the ancestor
                // (its guard moves along), cur becomes the successor (plain
                // word — only ever CAS-compared).
                if let Some(g) = s.ancestor_guard.take() {
                    self.reclaimer.release(t, g);
                }
                s.ancestor = s.parent;
                s.ancestor_guard = s.parent_guard.take();
                s.successor = cur;
            }
            // cur becomes the parent.
            if let Some(g) = s.parent_guard.take() {
                self.reclaimer.release(t, g);
            }
            s.parent = cur;
            s.parent_guard = child_guard.take();
            // Descend. Safety: cur protected by parent_guard now.
            let edge = unsafe { self.child_edge(cur, key) };
            let (w, g) = self
                .reclaimer
                .try_acquire(t, unsafe { &*edge })
                .expect("seek holds at most 4 guards");
            child_w = w;
            child_guard = Some(g);
        }
    }

    /// Splices the chain `successor … parent + flagged leaf` out by CASing
    /// the ancestor's edge to the sibling subtree; on success retires every
    /// node of the chain (Fig. 1a's loop). Returns whether this call won.
    fn cleanup(&self, t: Tid, key: &NmKey<K>, s: &SeekRecord<S::Guard>) -> bool {
        // Safety: ancestor and parent are protected by the seek record (or
        // sentinels).
        unsafe {
            let ancestor_edge = self.child_edge(s.ancestor, key);
            let p = s.parent as *const Node<K, V>;
            let (child_loc, mut sibling_loc): (*const AtomicUsize, *const AtomicUsize) =
                if *key < (*p).key {
                    (&(*p).left, &(*p).right)
                } else {
                    (&(*p).right, &(*p).left)
                };
            let child_w = (*child_loc).load(Ordering::SeqCst);
            if !flagged(child_w) {
                // The flag is on the other side: we are helping a delete
                // whose victim is the other child.
                sibling_loc = child_loc;
            }
            // Freeze the sibling edge, preserving a pending flag on it.
            let sib_w = (*sibling_loc).fetch_or(TAG, Ordering::SeqCst);
            let new_w = addr(sib_w) | (sib_w & FLAG);
            if (*ancestor_edge)
                .compare_exchange(s.successor, new_w, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                return false;
            }
            // We won: retire the spliced-out chain. Every chain node has a
            // flagged child that dies with it (a deleted leaf); the walk
            // follows the other child and ends at the surviving sibling.
            // At the parent *both* children can be flagged — two deletes of
            // sibling leaves — and the sibling, which lives on under the
            // ancestor with its flag, is never the one to retire.
            let sibling = addr(sib_w);
            let mut n = s.successor;
            while n != sibling {
                let node = n as *const Node<K, V>;
                let lw = (*node).left.load(Ordering::SeqCst);
                let rw = (*node).right.load(Ordering::SeqCst);
                let next = if flagged(lw) && addr(lw) != sibling {
                    self.reclaimer.retire(t, addr(lw));
                    addr(rw)
                } else {
                    self.reclaimer.retire(t, addr(rw));
                    addr(lw)
                };
                self.reclaimer.retire(t, n);
                n = next;
            }
            true
        }
    }

    fn leaf_key_matches(&self, leaf: usize, key: &NmKey<K>) -> bool {
        // Safety: leaf protected by the seek record.
        unsafe { (*(leaf as *const Node<K, V>)).key == *key }
    }

    fn insert_impl(&self, t: Tid, key: K, value: V) -> bool {
        let nmkey = NmKey::Fin(key);
        loop {
            let mut s = self.seek(t, &nmkey);
            if self.leaf_key_matches(s.leaf, &nmkey) {
                self.release_seek(t, &mut s);
                return false;
            }
            // Build the replacement: an internal node whose children are the
            // old leaf and the new leaf, ordered by key (internal key = the
            // larger of the two, external-BST style). Rebuilt per attempt;
            // contention is the uncommon case.
            // Safety: leaf protected; keys immutable.
            let leaf_key = unsafe { (*(s.leaf as *const Node<K, V>)).key.clone() };
            let new_leaf = Box::into_raw(self.reclaimer.alloc(t, |birth| {
                Node::leaf(birth, nmkey.clone(), Some(value.clone()))
            }));
            let (ikey, l, r) = if nmkey < leaf_key {
                (leaf_key, new_leaf as usize, s.leaf)
            } else {
                (nmkey.clone(), s.leaf, new_leaf as usize)
            };
            let new_internal = Box::into_raw(
                self.reclaimer
                    .alloc(t, |birth| Node::internal(birth, ikey, l, r)),
            );
            // Safety: parent protected by the seek record.
            let edge = unsafe { self.child_edge(s.parent, &nmkey) };
            let witness = unsafe {
                (*edge).compare_exchange(
                    s.leaf,
                    new_internal as usize,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
            };
            match witness {
                Ok(_) => {
                    self.release_seek(t, &mut s);
                    return true;
                }
                Err(w) => {
                    // Failed: free the unpublished nodes, then use the CAS's
                    // own witness (no re-load) to decide whether a pending
                    // delete on this leaf needs help before retrying.
                    // Safety: never published, exclusively ours.
                    unsafe {
                        self.reclaimer.discard(t, Box::from_raw(new_internal));
                        self.reclaimer.discard(t, Box::from_raw(new_leaf));
                    }
                    if addr(w) == s.leaf && (flagged(w) || tagged(w)) {
                        self.cleanup(t, &nmkey, &s);
                    }
                    self.release_seek(t, &mut s);
                }
            }
        }
    }

    fn remove_impl(&self, t: Tid, key: &K) -> bool {
        let nmkey = NmKey::Fin(key.clone());
        let mut injecting = true;
        let mut target: usize = 0;
        let mut target_guard: Option<S::Guard> = None;
        loop {
            let mut s = self.seek(t, &nmkey);
            if injecting {
                if !self.leaf_key_matches(s.leaf, &nmkey) {
                    self.release_seek(t, &mut s);
                    return false;
                }
                // Safety: parent protected.
                let edge = unsafe { self.child_edge(s.parent, &nmkey) };
                let flag_cas = unsafe {
                    (*edge).compare_exchange(
                        s.leaf,
                        s.leaf | FLAG,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                };
                match flag_cas {
                    Ok(_) => {
                        injecting = false;
                        target = s.leaf;
                        // Keep the leaf protected across retries so its
                        // address cannot be recycled under us (ABA defence).
                        target_guard = s.leaf_guard.take();
                        if self.cleanup(t, &nmkey, &s) {
                            self.release_seek(t, &mut s);
                            if let Some(g) = target_guard.take() {
                                self.reclaimer.release(t, g);
                            }
                            return true;
                        }
                    }
                    // The witness replaces the old re-load: a competing
                    // flag/tag on our leaf's edge means a delete is already
                    // in progress there — help it along before re-seeking.
                    Err(w) => {
                        if addr(w) == s.leaf && (flagged(w) || tagged(w)) {
                            self.cleanup(t, &nmkey, &s);
                        }
                    }
                }
            } else {
                if s.leaf != target {
                    // A helper finished our removal.
                    self.release_seek(t, &mut s);
                    if let Some(g) = target_guard.take() {
                        self.reclaimer.release(t, g);
                    }
                    return true;
                }
                if self.cleanup(t, &nmkey, &s) {
                    self.release_seek(t, &mut s);
                    if let Some(g) = target_guard.take() {
                        self.reclaimer.release(t, g);
                    }
                    return true;
                }
            }
            self.release_seek(t, &mut s);
        }
    }

    fn get_impl(&self, t: Tid, key: &K) -> Option<V> {
        let nmkey = NmKey::Fin(key.clone());
        let mut s = self.seek(t, &nmkey);
        let out = if self.leaf_key_matches(s.leaf, &nmkey) {
            // Safety: leaf protected; values on Fin leaves are Some.
            unsafe { (*(s.leaf as *const Node<K, V>)).value.clone() }
        } else {
            None
        };
        self.release_seek(t, &mut s);
        out
    }

    /// Sequential (non-linearizable) range count over `[from, to)`, as in
    /// the paper's Fig. 11 workload. Only supported under protected-region
    /// schemes (manual HP cannot protect an unbounded path — which is why
    /// Fig. 11 has no manual-HP series).
    ///
    /// Each child edge is read through `try_acquire`, as in `seek`. The
    /// section alone does not protect what it reads under IBR
    /// (`PROTECTS_SECTION_READS` is false): its interval covers only objects
    /// born up to the announced end, and an acquire is what raises that
    /// end. The raised end stays until the section closes, and a region
    /// scheme's guard carries nothing (its `try_acquire` is total), so the
    /// guard is given back at once.
    fn range_impl(&self, t: Tid, from: &K, to: &K, limit: usize) -> Option<usize> {
        if !S::PROTECTS_REGIONS {
            return None;
        }
        let lo = NmKey::Fin(from.clone());
        let hi = NmKey::Fin(to.clone());
        let mut found = 0usize;
        let mut stack = vec![self.root as usize];
        let child = |edge: &AtomicUsize| {
            let (w, g) = self.reclaimer.try_acquire(t, edge).expect("regions: total");
            self.reclaimer.release(t, g);
            addr(w)
        };
        while let Some(n) = stack.pop().filter(|_| found < limit) {
            // Safety: the whole query runs inside the caller's critical
            // section, and every node reached was read through an acquire
            // (or is the root sentinel).
            unsafe {
                let node = n as *const Node<K, V>;
                if self.is_leaf(n) {
                    if (*node).key >= lo && (*node).key < hi {
                        found += 1;
                    }
                    continue;
                }
                // External BST: left keys < node.key <= right keys.
                if hi >= (*node).key {
                    stack.push(child(&(*node).right));
                }
                if lo < (*node).key {
                    stack.push(child(&(*node).left));
                }
            }
        }
        Some(found)
    }
}

impl<K, V, S> ConcurrentMap<K, V> for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    type Guard = smr::SectionGuard<S>;

    fn pin(&self) -> Self::Guard {
        self.reclaimer.pin()
    }

    fn insert_with(&self, k: K, v: V, guard: &Self::Guard) -> bool {
        let t = self.reclaimer.tid(guard);
        let r = self.insert_impl(t, k, v);
        self.reclaimer.collect(t);
        r
    }

    fn remove_with(&self, k: &K, guard: &Self::Guard) -> bool {
        let t = self.reclaimer.tid(guard);
        let r = self.remove_impl(t, k);
        self.reclaimer.collect(t);
        r
    }

    fn get_with(&self, k: &K, guard: &Self::Guard) -> Option<V> {
        let t = self.reclaimer.tid(guard);
        let r = self.get_impl(t, k);
        self.reclaimer.collect(t);
        r
    }

    fn range_with(&self, from: &K, to: &K, limit: usize, guard: &Self::Guard) -> Option<usize> {
        let t = self.reclaimer.tid(guard);
        let r = self.range_impl(t, from, to, limit);
        self.reclaimer.collect(t);
        r
    }

    fn range(&self, from: &K, to: &K, limit: usize) -> Option<usize> {
        self.range_with(from, to, limit, &self.pin())
    }

    fn in_flight_nodes(&self) -> u64 {
        self.reclaimer.in_flight()
    }
}

impl<K, V, S> Default for NatarajanMittalTree<K, V, S>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: AcquireRetire> Drop for NatarajanMittalTree<K, V, S> {
    fn drop(&mut self) {
        // Free everything reachable (flag/tag bits notwithstanding), then
        // whatever is parked in retired lists; the sets are disjoint since
        // retired nodes are unlinked first. Safety: exclusive access.
        unsafe { self.reclaimer.teardown([self.root as usize]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for NatarajanMittalTree<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NatarajanMittalTree")
            .field("scheme", &S::scheme_name())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::{Ebr, Hp, Hyaline, Ibr};
    use std::sync::Arc;

    fn smoke<S: AcquireRetire>() {
        let tree: NatarajanMittalTree<u64, u64, S> = NatarajanMittalTree::new();
        assert_eq!(tree.get(&10), None);
        assert!(tree.insert(10, 100));
        assert!(tree.insert(5, 50));
        assert!(tree.insert(15, 150));
        assert!(!tree.insert(10, 101));
        assert_eq!(tree.get(&10), Some(100));
        assert_eq!(tree.get(&5), Some(50));
        assert!(tree.remove(&10));
        assert!(!tree.remove(&10));
        assert_eq!(tree.get(&10), None);
        assert_eq!(tree.get(&15), Some(150));
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Ebr>();
        smoke::<Ibr>();
        smoke::<Hp>();
        smoke::<Hyaline>();
    }

    #[test]
    fn sequential_model_check() {
        use std::collections::BTreeMap;
        let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
        let mut model = BTreeMap::new();
        let mut state = 0x12345678u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let k = (state >> 33) % 64;
            match (state >> 20) % 3 {
                0 => assert_eq!(tree.insert(k, k * 2), model.insert(k, k * 2).is_none()),
                1 => assert_eq!(tree.remove(&k), model.remove(&k).is_some()),
                _ => assert_eq!(tree.get(&k), model.get(&k).copied()),
            }
        }
        for k in 0..64 {
            assert_eq!(tree.get(&k), model.get(&k).copied());
        }
    }

    #[test]
    fn range_counts_keys_region_schemes() {
        let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
        for k in 0..100 {
            tree.insert(k, k);
        }
        assert_eq!(tree.range(&10, &20, 1000), Some(10));
        assert_eq!(tree.range(&0, &100, 1000), Some(100));
        assert_eq!(tree.range(&0, &100, 7), Some(7), "limit respected");
        let hp_tree: NatarajanMittalTree<u64, u64, Hp> = NatarajanMittalTree::new();
        hp_tree.insert(1, 1);
        assert_eq!(hp_tree.range(&0, &10, 10), None, "manual HP: unsupported");
    }

    fn concurrent<S: AcquireRetire>() {
        let tree: Arc<NatarajanMittalTree<u64, u64, S>> = Arc::new(NatarajanMittalTree::new());
        let hs: Vec<_> = (0..8)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    for j in 0..400u64 {
                        let k = i * 1000 + j;
                        assert!(tree.insert(k, k));
                        assert_eq!(tree.get(&k), Some(k));
                        if j % 2 == 0 {
                            assert!(tree.remove(&k));
                            assert_eq!(tree.get(&k), None);
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap();
        }
        for i in 0..8u64 {
            for j in 0..400u64 {
                let k = i * 1000 + j;
                assert_eq!(tree.get(&k), if j % 2 == 0 { None } else { Some(k) });
            }
        }
    }

    #[test]
    fn concurrent_all_schemes() {
        concurrent::<Ebr>();
        concurrent::<Ibr>();
        concurrent::<Hp>();
        concurrent::<Hyaline>();
    }

    #[test]
    fn contended_deletes_same_key_range() {
        // Every thread's key stream derives from one seed, so a failing
        // run can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let tree: Arc<NatarajanMittalTree<u64, u64, Ebr>> = Arc::new(NatarajanMittalTree::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for _ in 0..2000 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 32;
                        match (state >> 20) % 2 {
                            0 => {
                                tree.insert(k, k);
                            }
                            _ => {
                                tree.remove(&k);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join()
                .unwrap_or_else(|_| panic!("a worker died; replay with TEST_SEED={seed}"));
        }
    }

    /// Ranges race inserts and removes of the keys they count: a node a
    /// range reaches may be unlinked and retired under it (under IBR one
    /// born after the range's section began, which only an acquire covers).
    fn contended_mixed_with_ranges<S: AcquireRetire>() {
        // Every thread's op stream derives from one seed, so a failing run
        // can be replayed with `TEST_SEED`.
        let seed = crate::test_seed();
        let tree: Arc<NatarajanMittalTree<u64, u64, S>> = Arc::new(NatarajanMittalTree::new());
        let hs: Vec<_> = (0..8u64)
            .map(|i| {
                let tree = Arc::clone(&tree);
                std::thread::spawn(move || {
                    let mut state = seed ^ i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1;
                    for _ in 0..1500 {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = (state >> 33) % 128;
                        match (state >> 20) % 4 {
                            0 => {
                                tree.insert(k, k);
                            }
                            1 => {
                                tree.remove(&k);
                            }
                            2 => assert!(tree.get(&k).is_none_or(|v| v == k)),
                            _ => assert!(tree.range(&k, &(k + 16), 16).unwrap() <= 16),
                        }
                    }
                })
            })
            .collect();
        for h in hs {
            h.join().unwrap_or_else(|_| {
                panic!(
                    "{}: a worker died; replay with TEST_SEED={seed}",
                    S::scheme_name()
                )
            });
        }
    }

    #[test]
    fn contended_mixed_with_ranges_ebr() {
        contended_mixed_with_ranges::<Ebr>();
    }

    #[test]
    fn contended_mixed_with_ranges_ibr() {
        contended_mixed_with_ranges::<Ibr>();
    }

    #[test]
    fn contended_mixed_with_ranges_hyaline() {
        contended_mixed_with_ranges::<Hyaline>();
    }

    #[test]
    fn no_leaks_after_drop() {
        let nodes;
        {
            let tree: NatarajanMittalTree<u64, u64, Ebr> = NatarajanMittalTree::new();
            nodes = Arc::clone(&tree.reclaimer.nodes);
            for k in 0..300u64 {
                tree.insert(k, k);
            }
            for k in 0..150u64 {
                tree.remove(&k);
            }
        }
        assert_eq!(nodes.net(), 0, "every node freed at drop");
    }
}
