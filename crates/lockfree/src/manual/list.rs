//! Harris-Michael lock-free ordered linked list (manual reclamation).
//!
//! Michael's 2002 algorithm: deletion first *marks* the victim's `next` word
//! (low bit), then unlinks it with a CAS on the predecessor's edge; searches
//! help unlink marked nodes they encounter. Reclamation is manual: the
//! thread whose CAS unlinks a node retires it, and freed nodes come back
//! through `eject`.
//!
//! Traversal protection is hand-over-hand: the current node is acquired
//! (with validation, for protected-pointer schemes) from an edge that lives
//! in a node that is itself still protected, so no unprotected memory is
//! ever dereferenced.

use smr::sync::atomic::{AtomicUsize, Ordering};
use std::cmp::Ordering as KeyOrder;

use smr::{untagged, AcquireRetire, SmrConfig, Tid};

use super::{ManualNode, Reclaimer};
use crate::ConcurrentMap;

const MARK: usize = 1;

/// What the Harris-Michael search needs of a node: its successor edge (low
/// bit set = this node is logically deleted). The split-ordered map
/// ([`super::resizable`]) is one such list too and runs the same [`find`],
/// [`link_at`] and [`remove_at`] from a bucket sentinel's edge.
pub(super) trait Link: ManualNode {
    fn next(&self) -> &AtomicUsize;
}

/// Where a [`find`] stopped: `prev_loc` is the edge holding `cur_w`. Owns
/// the 0–2 guards protecting the node around that edge and the node at it;
/// hand it to [`link_at`], [`remove_at`] or [`release`] to give them back.
pub(super) struct Cursor<G> {
    prev_loc: *const AtomicUsize,
    prev_guard: Option<G>,
    /// Unmarked word at `prev_loc` (0 = end of list).
    pub(super) cur_w: usize,
    cur_guard: Option<G>,
    pub(super) found: bool,
}

/// Gives back the guards a search position holds.
pub(super) fn release<N: ManualNode, S: AcquireRetire>(
    r: &Reclaimer<N, S>,
    t: Tid,
    c: Cursor<S::Guard>,
) {
    release_guards(r, t, [c.prev_guard, c.cur_guard]);
}

fn release_guards<N: ManualNode, S: AcquireRetire, const G: usize>(
    r: &Reclaimer<N, S>,
    t: Tid,
    guards: [Option<S::Guard>; G],
) {
    // Not `.into_iter().flatten()`: the adaptor does not fold away under a
    // region scheme (`Guard = ()`) and costs ~5 % per hop (traversal_parity).
    for g in guards {
        let Some(g) = g else { continue };
        r.release(t, g);
    }
}

/// Michael's find: walks from the edge `head` to the first node that `cmp`
/// (node against the target) does not order `Less`, unlinking — and
/// retiring — marked nodes on the way. Restarts begin at `head` again, so
/// it must be an edge that is never marked: the list head, or an immortal
/// sentinel's `next`. Returns with 0–2 guards held, in the cursor.
///
/// # Safety
///
/// Every nonzero word reachable from `head` is the address of a live
/// `Box<N>` that is freed only after being retired through `r`, and `t`
/// is inside a critical section of `r` that stays open for as long as the
/// returned cursor is used.
// Always inlined into the caller's own `find`/`find_from` method, which is
// where the loop lived before it was shared: out of line the cursor comes
// back through memory on every operation (−4 … −7 % on the ledger's
// `kv_cold_read` manual cells). Whether *that* method is inlined is left
// to the compiler, as it was.
#[inline(always)]
pub(super) unsafe fn find<N: Link, S: AcquireRetire>(
    r: &Reclaimer<N, S>,
    t: Tid,
    head: &AtomicUsize,
    mut cmp: impl FnMut(&N) -> KeyOrder,
) -> Cursor<S::Guard> {
    'retry: loop {
        let mut prev_loc: *const AtomicUsize = head;
        let mut prev_guard: Option<S::Guard> = None;
        let (mut cur_w, g) = r
            .try_acquire(t, head)
            .expect("list traversal holds at most 3 guards");
        let mut cur_guard = Some(g);
        if cur_w & MARK != 0 {
            // The start edge is never marked; a marked word here means we
            // raced an unlink mid-publication — restart.
            release_guards(r, t, [cur_guard]);
            continue 'retry;
        }
        loop {
            let cur = untagged(cur_w);
            if cur == 0 {
                return Cursor {
                    prev_loc,
                    prev_guard,
                    cur_w,
                    cur_guard,
                    found: false,
                };
            }
            // Safety: `cur` is protected by cur_guard.
            let node = unsafe { &*(cur as *const N) };
            let (next_w, next_g) = r
                .try_acquire(t, node.next())
                .expect("list traversal holds at most 3 guards");
            let next_guard = Some(next_g);
            // Validate that cur is still linked, unmarked, at prev_loc.
            // Safety: prev_loc is `head` or an edge in a guarded node.
            let edge = unsafe { &*prev_loc };
            if edge.load(Ordering::SeqCst) != cur_w {
                release_guards(r, t, [prev_guard, cur_guard, next_guard]);
                continue 'retry;
            }
            if next_w & MARK != 0 {
                // cur is logically deleted: help unlink it.
                let clean_next = next_w & !MARK;
                if edge
                    .compare_exchange(cur_w, clean_next, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // We unlinked cur: retire it (the manual chore).
                    // Safety: our CAS unlinked it; cur_guard protects it.
                    unsafe { r.retire(t, cur) };
                    release_guards(r, t, [cur_guard]);
                    cur_w = clean_next;
                    cur_guard = next_guard;
                    continue;
                }
                release_guards(r, t, [prev_guard, cur_guard, next_guard]);
                continue 'retry;
            }
            // cur is protected and its key immutable after insert.
            match cmp(node) {
                KeyOrder::Less => {
                    // Advance hand-over-hand: cur becomes prev.
                    release_guards(r, t, [prev_guard]);
                    prev_guard = cur_guard;
                    prev_loc = node.next();
                    cur_w = next_w;
                    cur_guard = next_guard;
                }
                order => {
                    release_guards(r, t, [next_guard]);
                    return Cursor {
                        prev_loc,
                        prev_guard,
                        cur_w,
                        cur_guard,
                        found: order == KeyOrder::Equal,
                    };
                }
            }
        }
    }
}

/// Links `node` in at the cursor (which did not find its key) and gives the
/// cursor's guards back. `Ok` is the linked node's address; a lost race
/// hands `node` back untouched: re-find.
///
/// # Safety
///
/// `c` came from [`find`] on this `r` and `t`, inside the critical
/// section that is still open.
pub(super) unsafe fn link_at<N: Link, S: AcquireRetire>(
    r: &Reclaimer<N, S>,
    t: Tid,
    c: Cursor<S::Guard>,
    node: Box<N>,
) -> Result<usize, Box<N>> {
    node.next().store(c.cur_w, Ordering::SeqCst);
    let addr = Box::into_raw(node);
    // Safety: prev_loc protected per find's contract.
    let linked = unsafe { &*c.prev_loc }.compare_exchange(
        c.cur_w,
        addr as usize,
        Ordering::SeqCst,
        Ordering::SeqCst,
    );
    release(r, t, c);
    match linked {
        Ok(_) => Ok(addr as usize),
        // Safety: never published, still ours.
        Err(_) => Err(unsafe { Box::from_raw(addr) }),
    }
}

/// Links the freshly allocated `node` where `locate` — a [`find`] for its
/// key, re-run after every lost race — says it goes. `Ok` is its address
/// once linked; if the key is already present the node is discarded and
/// `Err` is the incumbent's address (protected no longer: only meaningful
/// for nodes that are never retired).
///
/// # Safety
///
/// As [`link_at`], for every cursor `locate` returns.
pub(super) unsafe fn find_or_link<N: Link, S: AcquireRetire>(
    r: &Reclaimer<N, S>,
    t: Tid,
    mut node: Box<N>,
    mut locate: impl FnMut(&N) -> Cursor<S::Guard>,
) -> Result<usize, usize> {
    loop {
        let c = locate(&node);
        if c.found {
            let incumbent = untagged(c.cur_w);
            release(r, t, c);
            r.discard(t, node); // never published
            return Err(incumbent);
        }
        // Safety: per this function's contract.
        match unsafe { link_at(r, t, c, node) } {
            Ok(addr) => return Ok(addr),
            Err(back) => node = back,
        }
    }
}

/// Deletes the node the cursor found and gives the cursor's guards back:
/// marks its next word, then tries the physical unlink and, if that
/// succeeds, retires it (a later [`find`] does both otherwise). `false` if
/// a competing delete marked it first — re-find, which helps that delete
/// along.
///
/// # Safety
///
/// As [`link_at`], and `c.found`.
pub(super) unsafe fn remove_at<N: Link, S: AcquireRetire>(
    r: &Reclaimer<N, S>,
    t: Tid,
    c: Cursor<S::Guard>,
) -> bool {
    let cur = untagged(c.cur_w);
    // Safety: cur protected by the cursor's guard.
    let node = unsafe { &*(cur as *const N) };
    // Logically delete: mark cur's next word. A failed mark CAS hands back
    // the witnessed word, so we retry in place (cur stays protected by the
    // cursor) instead of re-finding — the word only changes when a
    // successor is inserted or unlinked, or when a competing delete marks
    // it (which ends our attempt).
    let mut next_w = node.next().load(Ordering::SeqCst);
    let marked = loop {
        if next_w & MARK != 0 {
            break false; // someone else is deleting it
        }
        match node.next().compare_exchange(
            next_w,
            next_w | MARK,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => break true,
            Err(w) => next_w = w,
        }
    };
    // Physically unlink (best effort — find() helps otherwise).
    // Safety: prev_loc protected per find's contract.
    if marked
        && unsafe { &*c.prev_loc }
            .compare_exchange(c.cur_w, next_w, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        // Safety: our CAS unlinked it; the cursor still protects it.
        unsafe { r.retire(t, cur) };
    }
    release(r, t, c);
    marked
}

struct Node<K, V> {
    birth: u64,
    key: K,
    value: V,
    /// Next pointer; low bit set = this node is logically deleted.
    next: AtomicUsize,
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

/// A Harris-Michael ordered map under manual SMR scheme `S`, which owns
/// its scheme instance.
pub struct HarrisMichaelList<K, V, S: AcquireRetire> {
    head: AtomicUsize,
    reclaimer: Reclaimer<Node<K, V>, S>,
}

// Safety: nodes are only dereferenced under scheme protection; values cross
// threads only via `V: Send + Sync`-bounded clones.
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Send for HarrisMichaelList<K, V, S> {}
unsafe impl<K: Send + Sync, V: Send + Sync, S: AcquireRetire> Sync for HarrisMichaelList<K, V, S> {}

impl<K, V, S> HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    /// Creates an empty list with its own scheme instance.
    pub fn new() -> Self {
        Self::with_config(S::default_config())
    }

    /// As [`new`](Self::new), with the scheme instance configured by `cfg`.
    pub fn with_config(cfg: SmrConfig) -> Self {
        HarrisMichaelList {
            head: AtomicUsize::new(0),
            reclaimer: Reclaimer::new(cfg),
        }
    }

    /// [`find`] from the list head. Must be called inside a critical
    /// section.
    fn find(&self, t: Tid, key: &K) -> Cursor<S::Guard> {
        // Safety: every node linked under `head` is a `Box<Node<K, V>>`
        // retired through `self.reclaimer` once unlinked.
        unsafe { find(&self.reclaimer, t, &self.head, |n| n.key.cmp(key)) }
    }

    /// Counts live (unmarked) nodes — test helper, not linearizable.
    pub fn iter_count(&self) -> usize {
        // RAII section (not bare begin/end): a panic while traversing must
        // not strand the announcement open and pin reclamation forever.
        let guard = self.reclaimer.pin();
        let t = guard.tid();
        let mut n = 0;
        let mut w = self.head.load(Ordering::SeqCst);
        while untagged(w) != 0 {
            let node = untagged(w) as *const Node<K, V>;
            let next = unsafe { (*node).next.load(Ordering::SeqCst) };
            if next & MARK == 0 {
                n += 1;
            }
            w = next & !MARK;
        }
        drop(guard);
        self.reclaimer.collect(t);
        n
    }
}

impl<K, V, S> ConcurrentMap<K, V> for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
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
        let node = r.alloc(t, |birth| Node {
            birth,
            key,
            value,
            next: AtomicUsize::new(0),
        });
        // Safety: `find`'s cursors, in `guard`'s section over `r`.
        let linked = unsafe { find_or_link(r, t, node, |n| self.find(t, &n.key)).is_ok() };
        r.collect(t);
        linked
    }

    fn remove_with(&self, key: &K, guard: &Self::Guard) -> bool {
        let r = &self.reclaimer;
        let t = r.tid(guard);
        let removed = loop {
            let c = self.find(t, key);
            if !c.found {
                release(r, t, c);
                break false;
            }
            // Safety: `c` is this section's cursor over `r`, found.
            if unsafe { remove_at(r, t, c) } {
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
        let c = self.find(t, key);
        let node = untagged(c.cur_w) as *const Node<K, V>;
        // Safety: protected by the cursor guard; value immutable.
        let out = c.found.then(|| unsafe { (*node).value.clone() });
        release(r, t, c);
        r.collect(t);
        out
    }

    fn in_flight_nodes(&self) -> u64 {
        self.reclaimer.in_flight()
    }
}

impl<K, V, S> Default for HarrisMichaelList<K, V, S>
where
    K: Ord + Send + Sync,
    V: Clone + Send + Sync,
    S: AcquireRetire,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, S: AcquireRetire> Drop for HarrisMichaelList<K, V, S> {
    fn drop(&mut self) {
        // Free reachable nodes (marked-but-linked included), then retired
        // ones. Safety: exclusive access; linked nodes are not retired.
        let head = untagged(self.head.load(Ordering::SeqCst));
        unsafe { self.reclaimer.teardown([head]) };
    }
}

impl<K, V, S: AcquireRetire> std::fmt::Debug for HarrisMichaelList<K, V, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarrisMichaelList")
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
        let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
        assert!(list.insert(5, 50));
        assert!(list.insert(3, 30));
        assert!(list.insert(7, 70));
        assert!(!list.insert(5, 55), "duplicate rejected");
        assert_eq!(list.get(&5), Some(50));
        assert_eq!(list.get(&4), None);
        assert!(list.remove(&5));
        assert!(!list.remove(&5));
        assert_eq!(list.get(&5), None);
        assert_eq!(list.iter_count(), 2);
    }

    #[test]
    fn smoke_all_schemes() {
        smoke::<Ebr>();
        smoke::<Ibr>();
        smoke::<Hp>();
        smoke::<Hyaline>();
    }

    fn concurrent<S: AcquireRetire>() {
        let list: Arc<HarrisMichaelList<u64, u64, S>> = Arc::new(HarrisMichaelList::new());
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for j in 0..300u64 {
                        let k = i * 300 + j;
                        assert!(list.insert(k, k * 10));
                        assert_eq!(list.get(&k), Some(k * 10));
                        if j % 2 == 0 {
                            assert!(list.remove(&k));
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(list.iter_count(), 8 * 150);
    }

    #[test]
    fn concurrent_all_schemes() {
        concurrent::<Ebr>();
        concurrent::<Ibr>();
        concurrent::<Hp>();
        concurrent::<Hyaline>();
    }

    #[test]
    fn contended_same_keys() {
        let list: Arc<HarrisMichaelList<u64, u64, Ebr>> = Arc::new(HarrisMichaelList::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let list = Arc::clone(&list);
                std::thread::spawn(move || {
                    for j in 0..500u64 {
                        let k = j % 16;
                        if j % 3 == 0 {
                            list.insert(k, j);
                        } else if j % 3 == 1 {
                            list.remove(&k);
                        } else {
                            list.get(&k);
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
    }

    #[test]
    fn no_leaks_after_drop() {
        let nodes;
        {
            let list: HarrisMichaelList<u64, u64, Ebr> = HarrisMichaelList::new();
            nodes = Arc::clone(&list.reclaimer.nodes);
            for k in 0..500u64 {
                list.insert(k, k);
            }
            for k in 0..250u64 {
                list.remove(&k);
            }
        }
        assert_eq!(nodes.net(), 0, "every node freed at drop");
    }

    type TestReclaimer<S> = Reclaimer<Node<u64, u64>, S>;

    /// The helping path, deterministically: behind `head` hang keys 1, 2, 3
    /// and a deleter of 2 has stalled right after its mark CAS (replayed
    /// here by setting the mark by hand). One `walk` to key 3 must unlink
    /// the victim and retire it exactly once; a second walk must find
    /// nothing left to help.
    fn walk_past_a_stalled_delete<S: AcquireRetire>(
        r: &TestReclaimer<S>,
        head: &AtomicUsize,
        walk: impl Fn(u64) -> bool,
    ) {
        let t = smr::current_tid();
        let settle = || {
            r.smr.flush(t);
            r.collect(t);
        };
        // Safety: single-threaded; nothing is freed before `settle`.
        let node = |w: usize| unsafe { &*(untagged(w) as *const Node<u64, u64>) };
        settle();
        let nodes_before = r.in_flight();
        let first = node(head.load(Ordering::SeqCst));
        let victim_w = first.next.load(Ordering::SeqCst);
        let last_w = node(victim_w).next.load(Ordering::SeqCst);
        assert_eq!((first.key, node(victim_w).key, node(last_w).key), (1, 2, 3));
        node(victim_w).next.fetch_or(MARK, Ordering::SeqCst);

        assert!(walk(3), "the walk gets past the marked node");
        assert_eq!(first.next.load(Ordering::SeqCst), last_w, "victim unlinked");
        let edges = || {
            (
                head.load(Ordering::SeqCst),
                first.next.load(Ordering::SeqCst),
            )
        };
        let after_first = edges();
        assert!(walk(3) && !walk(2));
        assert_eq!(edges(), after_first, "nothing left to CAS on a second walk");
        settle();
        assert_eq!(
            r.in_flight(),
            nodes_before - 1,
            "victim retired once and freed once; a second retire would free twice"
        );
    }

    fn helping<S: AcquireRetire>() {
        // From the list head, through the map interface.
        let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
        for k in [2, 3, 1] {
            assert!(list.insert(k, k * 10));
        }
        walk_past_a_stalled_delete(&list.reclaimer, &list.head, |k| {
            list.get(&k) == Some(k * 10)
        });
        assert_eq!(list.iter_count(), 2);

        // From a sentinel's edge, as the split-ordered map starts its
        // walks: the anchor is a `next` word inside a node that is never
        // deleted, not a list head. The free functions run on a reclaimer
        // of their own.
        let r: TestReclaimer<S> = Reclaimer::new(S::default_config());
        let new_node = |key: u64| {
            r.alloc(smr::current_tid(), |birth| Node {
                birth,
                key,
                value: key * 10,
                next: AtomicUsize::new(0),
            })
        };
        let sentinel = new_node(0);
        let walk = |key: u64| {
            let guard = r.pin();
            // Safety: everything behind `sentinel.next` is a node of this
            // test, retired through `r`; the section is open.
            let c = unsafe { find(&r, guard.tid(), &sentinel.next, |n| n.key.cmp(&key)) };
            (c, guard)
        };
        for k in [2, 3, 1] {
            let (c, guard) = walk(k);
            assert!(!c.found);
            // Safety: `c` is `guard`'s cursor.
            assert!(unsafe { link_at(&r, guard.tid(), c, new_node(k)) }.is_ok());
        }
        walk_past_a_stalled_delete(&r, &sentinel.next, |k| {
            let (c, guard) = walk(k);
            let found = c.found;
            release(&r, guard.tid(), c);
            found
        });
        let chain = untagged(sentinel.next.load(Ordering::SeqCst));
        // Safety: exclusive; the chain's nodes are linked, so not retired.
        unsafe { r.teardown([chain]) };
        r.discard(smr::current_tid(), sentinel);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn a_walk_helps_a_stalled_delete_exactly_once() {
        helping::<Ebr>();
        helping::<Ibr>();
        helping::<Hp>();
        helping::<Hyaline>();
    }
}
