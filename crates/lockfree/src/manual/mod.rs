//! Manually memory-managed variants, generic over any [`smr::AcquireRetire`]
//! scheme. Every unlinked node must be explicitly retired and every ejected
//! node freed — the discipline the paper's automatic variants remove.
//!
//! Each structure owns one `Reclaimer`, the only place it touches its
//! scheme's reclamation side: the chores the paper's Fig. 1a repeats per
//! structure are written once there, and the reclamation sanitizer
//! ([`smr::sanitize`]) sees every node's allocation, retire and free there.
//!
//! The list and the split-ordered map are not written here: both families
//! run one list and one map (`src/list.rs`, `src/split_order.rs`), and
//! `Manual`, this family's impl of the crate's `Family` hook, is what makes
//! them manual. It retires what a winning unlink CAS takes out, collects at
//! the end of an operation, links by storing a word and CASing it in, and
//! gives guards back. What it holds of a node is a `Raw`, a word and its raw
//! guard: the search hop runs hundreds of times per operation of a long
//! list, and a `Held` per hop, which carries its thread and reclaimer
//! through every iteration, doubled the manual HP hop in `traversal_parity`.
//!
//! The queue and the tree hold nodes as `Held`s: the word an acquire read
//! and the guard that protects the node it names, given back on drop — the
//! way an RC structure holds a `cdrc::SnapshotPtr`. `Held::node` is where
//! such a node is dereferenced (and the sanitizer checks it is not freed);
//! `Reclaimer::read` is how one is made, or `Reclaimer::unguarded` for a
//! node nothing else can free: a sentinel, or a chain the caller has just
//! unlinked and not yet retired. So a manual structure gives nothing back
//! by hand and leaks no guard on an early return; what it still does by
//! hand is what reclamation is — retiring what it unlinks.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::DoubleLinkQueue;
pub use list::HarrisMichaelList;
pub use nmtree::NatarajanMittalTree;
pub use resizable::ResizableHashMap;

use std::marker::PhantomData;
use std::sync::Arc;

use smr::sanitize::{self, Channel};
use smr::sync::atomic::{AtomicUsize, Ordering};
use smr::util::LanePairs;
use smr::{untagged, AcquireRetire, Retired, SectionGuard, SmrConfig, Tid};

use crate::family::{Family, Kind, Link};
use crate::list::MARK;

/// What the [`Reclaimer`] needs of a manual node — the manual-side mirror
/// of [`cdrc::GraphNode`].
pub(crate) trait ManualNode {
    /// The birth epoch `retire` hands the scheme.
    fn birth(&self) -> u64;

    /// Appends the untagged addresses of this node's *owned* out-edges
    /// (zeroes are fine; the walker skips them), so one teardown serves
    /// every structure. Back-pointers (e.g. the queue's `prev`) are not
    /// owned and must not be reported — following them would double-free.
    fn out_edges(&self, out: &mut Vec<usize>);
}

/// One manual structure's scheme instance, with its node counts on a
/// [`LanePairs`] (the tally `cdrc`'s domain keeps its blocks on): the
/// manual mirror of `cdrc::DomainRef`. Every address retired through it is
/// a `Box<N>` — the type parameter is what lets [`collect`](Self::collect)
/// free ejected nodes safely. The instance is never shared with another
/// structure, so nothing else retires into it.
pub(crate) struct Reclaimer<N, S: AcquireRetire> {
    smr: Arc<S>,
    /// Per-thread allocs (`up`) and frees (`down`).
    nodes: Arc<LanePairs>,
    /// Owns its nodes, for drop check and auto-trait purposes.
    _marker: PhantomData<Box<N>>,
}

impl<N: ManualNode, S: AcquireRetire> Reclaimer<N, S> {
    /// A fresh scheme instance on its own epoch clock.
    pub(crate) fn new(cfg: SmrConfig) -> Self {
        Reclaimer {
            smr: Arc::new(S::new(Arc::new(smr::GlobalEpoch::new()), cfg)),
            nodes: Arc::new(LanePairs::new()),
            _marker: PhantomData,
        }
    }

    /// Opens a critical section on this instance for the current thread.
    pub(crate) fn pin(&self) -> SectionGuard<S> {
        SectionGuard::enter(Arc::clone(&self.smr))
    }

    /// The thread a caller-held `guard` runs under; debug builds check that
    /// its section is on this instance (a foreign one protects nothing).
    #[inline]
    pub(crate) fn tid(&self, guard: &SectionGuard<S>) -> Tid {
        debug_assert!(guard.covers(&self.smr), "guard from a foreign instance");
        guard.tid()
    }

    /// Reads the edge `src` and protects the node it names until the
    /// returned [`Held`] drops. `t` is inside a critical section on this
    /// instance that outlives the `Held`, and `src` holds 0 or a node of
    /// this reclaimer (tag bits allowed).
    #[inline(always)]
    pub(crate) fn read(&self, t: Tid, src: &AtomicUsize) -> Held<'_, N, S> {
        let (word, g) = self
            .smr
            .try_acquire(t, src)
            .expect("a manual structure holds at most 5 guards at once");
        Held {
            word,
            guard: Some(g),
            t,
            r: self,
        }
    }

    /// A [`Held`] on `word` without a guard.
    ///
    /// # Safety
    ///
    /// `word` is 0 or names a node of this reclaimer that cannot be freed
    /// while the `Held` lives: a sentinel, which is never retired, or a
    /// node only the caller can retire.
    #[inline(always)]
    pub(crate) unsafe fn unguarded(&self, t: Tid, word: usize) -> Held<'_, N, S> {
        Held {
            word,
            guard: None,
            t,
            r: self,
        }
    }

    /// Allocates and counts a node, built from its birth epoch.
    #[inline]
    pub(crate) fn alloc(&self, t: Tid, make: impl FnOnce(u64) -> N) -> Box<N> {
        self.nodes.up(t);
        let node = Box::new(make(self.smr.birth_epoch(t)));
        sanitize::on_alloc(&*node as *const N as usize);
        node
    }

    /// Frees a node that was never published.
    pub(crate) fn discard(&self, t: Tid, node: Box<N>) {
        // Safety: a `Box<N>` from `alloc`, never published.
        unsafe { self.free(t, Box::into_raw(node) as usize) };
    }

    /// Uncounts and frees the node at `addr`.
    ///
    /// # Safety
    ///
    /// `addr` is a `Box<N>` from [`alloc`](Self::alloc) that no reader can
    /// reach any more, freed once.
    #[inline]
    unsafe fn free(&self, t: Tid, addr: usize) {
        self.nodes.down(t);
        // A manual node is disposed and freed in one step.
        sanitize::on_dispose(addr);
        sanitize::on_free(addr);
        drop(Box::from_raw(addr as *mut N));
    }

    /// Retires the node at `addr`; a later [`collect`](Self::collect) frees
    /// it once no reader can hold it.
    ///
    /// # Safety
    ///
    /// `addr` is a `Box<N>` from [`alloc`](Self::alloc), unlinked by the
    /// caller's CAS — so retired exactly once — and still protected (or
    /// otherwise live) for the read of its birth epoch.
    #[inline]
    #[track_caller]
    pub(crate) unsafe fn retire(&self, t: Tid, addr: usize) {
        // A manual retire is a deferred dispose-and-free: the sanitizer
        // sees it on the dispose channel, so a second retire is caught.
        sanitize::on_retire(addr, Channel::Dispose);
        // Safety: per this function's contract.
        let birth = unsafe { (*(addr as *const N)).birth() };
        self.smr.retire(t, Retired::new(addr, birth));
    }

    /// Applies every ready eject: frees the node memory (the other manual
    /// chore).
    #[inline]
    pub(crate) fn collect(&self, t: Tid) {
        while let Some(addr) = self.smr.eject(t) {
            // Safety: only `Box<N>`s are retired through this instance
            // (`retire`'s contract), each once.
            unsafe { self.free(t, addr) };
        }
    }

    /// Allocated − freed (live + deferred garbage).
    pub(crate) fn in_flight(&self) -> u64 {
        self.nodes.net()
    }

    /// Frees every node reachable from `roots` through
    /// [`ManualNode::out_edges`] with an explicit worklist — teardown of a
    /// million-node chain must not grow the call stack — then everything
    /// parked in the instance's retired lists. The two sets are disjoint:
    /// linked nodes are never retired.
    ///
    /// # Safety
    ///
    /// Caller has exclusive access to the structure; every reachable
    /// address is a live `Box<N>` it owns.
    pub(crate) unsafe fn teardown(&self, roots: impl IntoIterator<Item = usize>) {
        let t = smr::current_tid();
        let mut stack: Vec<usize> = roots.into_iter().filter(|&a| a != 0).collect();
        let mut edges = Vec::new();
        while let Some(a) = stack.pop() {
            let node = a as *mut N;
            (*node).out_edges(&mut edges);
            stack.extend(edges.drain(..).filter(|&e| e != 0));
            self.free(t, a);
        }
        // `drain_all` requires that no critical section is active. Every
        // `SectionGuard` holds the instance's `Arc`, so a count of one means
        // none is; while one outlives its structure the retired nodes stay
        // parked (and leak with the instance) rather than be freed under
        // that open section.
        if Arc::strong_count(&self.smr) == 1 {
            for addr in self.smr.drain_all() {
                self.free(t, addr);
            }
        }
    }
}

/// A node a manual structure reads: the word an acquire read (tag bits
/// kept) and the guard protecting the node it names, given back when this
/// drops — the manual mirror of `cdrc::SnapshotPtr`. Made by
/// [`Reclaimer::read`], or [`Reclaimer::unguarded`] without a guard. It
/// lives inside the operation's critical section; under a region scheme the
/// guard carries nothing and the section is what protects.
pub(crate) struct Held<'r, N, S: AcquireRetire> {
    word: usize,
    guard: Option<S::Guard>,
    t: Tid,
    r: &'r Reclaimer<N, S>,
}

impl<N, S: AcquireRetire> Held<'_, N, S> {
    /// The word as read, tag bits included.
    #[inline(always)]
    pub(crate) fn word(&self) -> usize {
        self.word
    }

    /// The node's address: the word without its tag bits (0 = none).
    #[inline(always)]
    pub(crate) fn addr(&self) -> usize {
        untagged(self.word)
    }

    /// The node — the one place a manual node is dereferenced. The word
    /// must not be 0.
    #[inline(always)]
    #[track_caller]
    pub(crate) fn node(&self) -> &N {
        debug_assert_ne!(self.addr(), 0, "a null word names no node");
        sanitize::check_payload(self.addr());
        // Safety: the guard (or the open section, or the node's being a
        // sentinel) keeps the node from being freed while `self` lives.
        unsafe { &*(self.addr() as *const N) }
    }
}

impl<N, S: AcquireRetire> Drop for Held<'_, N, S> {
    #[inline(always)]
    fn drop(&mut self) {
        if let Some(g) = self.guard {
            self.r.smr.release(self.t, g);
        }
    }
}

/// The manual family's nodes: plain words for edges, and the birth epoch
/// `retire` hands the scheme.
pub(crate) struct ManualKind;

impl Kind for ManualKind {
    type Edge<N> = AtomicUsize;
    type Birth = u64;
}

/// An operation of the manual family: thread `t` inside a critical section
/// of `r`'s scheme instance, over nodes `N` that `r` allocated.
pub(crate) struct Manual<'r, N, S: AcquireRetire> {
    r: &'r Reclaimer<N, S>,
    t: Tid,
}

impl<'r, N: ManualNode, S: AcquireRetire> Manual<'r, N, S> {
    /// The context of an operation under `guard`, a section of `r`'s
    /// instance that outlives it.
    ///
    /// # Safety
    ///
    /// Every edge the operation is handed holds 0 or the address of a node
    /// `r` allocated, and a node is freed only through `r`'s `retire` once
    /// it is unlinked (or at teardown, for a sentinel).
    #[inline(always)]
    pub(crate) unsafe fn new(r: &'r Reclaimer<N, S>, guard: &'r SectionGuard<S>) -> Self {
        Manual { r, t: r.tid(guard) }
    }
}

impl<N, S: AcquireRetire> Clone for Manual<'_, N, S> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<N, S: AcquireRetire> Copy for Manual<'_, N, S> {}

/// What the manual family holds of a node: the word an acquire read and the
/// raw guard protecting it (none for a sentinel, which is never retired).
/// The list hop moves these, not `Held`s (module docs).
pub(crate) struct Raw<S: AcquireRetire> {
    word: usize,
    guard: Option<S::Guard>,
}

impl<N: Link<ManualKind> + ManualNode, S: AcquireRetire> Family for Manual<'_, N, S> {
    type Kind = ManualKind;
    type Node = N;
    type Held = Raw<S>;
    type Owned = Box<N>;

    #[inline(always)]
    fn read(self, e: &AtomicUsize) -> Raw<S> {
        let (word, g) = (self.r.smr)
            .try_acquire(self.t, e)
            .expect("a list operation holds at most 3 guards");
        let guard = Some(g);
        Raw { word, guard }
    }

    fn load(e: &AtomicUsize) -> usize {
        e.load(Ordering::SeqCst)
    }

    fn word(h: &Raw<S>) -> usize {
        h.word
    }

    #[inline(always)]
    fn node(h: &Raw<S>) -> Option<&N> {
        let addr = untagged(h.word);
        if addr == 0 {
            return None;
        }
        sanitize::check_payload(addr);
        // Safety: a node of `r` (`new`'s contract), which `h`'s guard, the
        // open section, or its being a sentinel keeps from being freed.
        Some(unsafe { &*(addr as *const N) })
    }

    #[inline(always)]
    fn release(self, h: Raw<S>) {
        if let Some(g) = h.guard {
            self.r.smr.release(self.t, g);
        }
    }

    /// The successor comes back as its word alone: `unlink` only stores it,
    /// and it is not dereferenced (once the marked node is unlinked by
    /// another thread, it may be freed).
    fn mark(self, e: &AtomicUsize) -> Option<Raw<S>> {
        let mut w = e.load(Ordering::SeqCst);
        while w & MARK == 0 {
            match e.compare_exchange(w, w | MARK, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => {
                    return Some(Raw {
                        word: w,
                        guard: None,
                    })
                }
                Err(witness) => w = witness,
            }
        }
        None
    }

    fn link(e: &AtomicUsize, at: &Raw<S>, node: Box<N>) -> Result<(), Box<N>> {
        node.next().store(at.word, Ordering::SeqCst);
        let addr = Box::into_raw(node);
        match e.compare_exchange(at.word, addr as usize, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => Ok(()),
            // Safety: never published, still ours.
            Err(_) => Err(unsafe { Box::from_raw(addr) }),
        }
    }

    /// The winning CAS retires `cur`: the manual chore.
    #[inline(always)]
    fn unlink(self, e: &AtomicUsize, cur: &Raw<S>, next: Raw<S>) -> Option<Raw<S>> {
        let word = next.word & !MARK;
        if e.compare_exchange(cur.word, word, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            self.release(next);
            return None;
        }
        // Safety: our CAS unlinked it, so it is retired once; `cur` still
        // protects it for the read of its birth.
        unsafe { self.r.retire(self.t, untagged(cur.word)) };
        Some(Raw { word, ..next })
    }

    fn alloc(self, _: &AtomicUsize, make: impl FnOnce(AtomicUsize, u64) -> N) -> Box<N> {
        self.r
            .alloc(self.t, |birth| make(AtomicUsize::new(0), birth))
    }

    fn built(o: &Box<N>) -> &N {
        o
    }

    fn discard(self, o: Box<N>) {
        self.r.discard(self.t, o);
    }

    /// Frees whatever the scheme ejects: the other manual chore.
    fn end(self) {
        self.r.collect(self.t);
    }

    fn null(_: &AtomicUsize) -> AtomicUsize {
        AtomicUsize::new(0)
    }

    /// A sentinel is never retired, so its address needs no guard.
    fn sentinel(self, slot: &AtomicUsize) -> Option<Raw<S>> {
        let word = slot.load(Ordering::SeqCst);
        (word != 0).then_some(Raw { word, guard: None })
    }

    fn install(slot: &AtomicUsize, s: &Raw<S>) {
        let _ = slot.compare_exchange(0, s.word, Ordering::SeqCst, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::Ebr;

    /// A singly linked cell: the smallest node a reclaimer can own.
    struct Cell {
        birth: u64,
        next: usize,
    }

    impl ManualNode for Cell {
        fn birth(&self) -> u64 {
            self.birth
        }

        fn out_edges(&self, out: &mut Vec<usize>) {
            out.push(self.next);
        }
    }

    /// The manual nodes, the denominator of every RC/manual ratio, keep
    /// their sizes with the `u64` keys and values the ledger runs: the list
    /// node 32 B (the glibc 48 B chunk), the map node 48 B (64 B; its pair
    /// is an `Option`, `None` for a sentinel), the queue node 40 B (48 B).
    /// The list and map nodes are shared with the RC family; a field added
    /// there for one family must not grow the other unseen.
    #[test]
    fn manual_node_sizes_keep_their_size_classes() {
        use std::mem::size_of;
        let list = size_of::<list::Node<u64, u64>>();
        let map = size_of::<resizable::Node<u64, u64>>();
        let queue = size_of::<dlqueue::Node<u64>>();
        println!("manual nodes: list {list} B, map {map} B, queue {queue} B");
        assert_eq!((list, map, queue), (32, 48, 40));
    }

    /// A guard from `pin` that outlives its structure: the structure's
    /// teardown frees what is linked but must not drain the retired nodes
    /// under the still-open section (`drain_all`'s contract); dropping the
    /// guard afterwards must be sound.
    #[test]
    fn a_guard_outliving_its_structure_defers_the_drain() {
        let r: Reclaimer<Cell, Ebr> = Reclaimer::new(Ebr::default_config());
        let nodes = Arc::clone(&r.nodes);
        let guard = r.pin();
        let t = r.tid(&guard);
        let mut head = 0;
        for _ in 0..32 {
            head = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: head })) as usize;
        }
        for _ in 0..32 {
            let addr = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: 0 })) as usize;
            // Safety: a `Box<Cell>` from `alloc`, never linked, retired once.
            unsafe { r.retire(t, addr) };
            r.collect(t);
        }
        // The open section pins EBR's epoch: nothing retired was ejected.
        assert_eq!(nodes.net(), 64);
        // Safety: exclusive; `head`'s chain is linked, so none of it retired.
        unsafe { r.teardown([head]) };
        drop(r);
        assert_eq!(nodes.net(), 32, "chain freed, retired cells not drained");
        drop(guard);
    }

    /// Runs `f`, which must panic, and returns the panic message.
    fn panic_msg(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("expected a sanitizer panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    /// A node unlinked once and retired twice: the reclaimer tells the
    /// sanitizer of each retire, and the second is caught before it reaches
    /// the scheme.
    #[test]
    fn the_sanitizer_catches_a_double_retire() {
        if !sanitize::enabled() {
            return;
        }
        let r: Reclaimer<Cell, Ebr> = Reclaimer::new(Ebr::default_config());
        let guard = r.pin();
        let t = r.tid(&guard);
        let addr = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: 0 })) as usize;
        // Safety: a `Box<Cell>` from `alloc`, never linked, retired once.
        unsafe { r.retire(t, addr) };
        // Safety: none — the seeded bug; the sanitizer stops it first.
        let msg = panic_msg(|| unsafe { r.retire(t, addr) });
        assert!(msg.contains("double retire"), "{msg}");
        drop(guard);
        // Safety: exclusive; drains the one retire that reached the scheme.
        unsafe { r.teardown([]) };
        assert_eq!(r.in_flight(), 0);
    }

    /// A word held without a guard whose node is retired and collected
    /// under it: `Held::node` is caught before it dereferences.
    #[test]
    fn the_sanitizer_catches_a_held_node_after_its_free() {
        if !sanitize::enabled() {
            return;
        }
        let r: Reclaimer<Cell, Ebr> = Reclaimer::new(Ebr::default_config());
        let t = smr::current_tid();
        let addr = Box::into_raw(r.alloc(t, |birth| Cell { birth, next: 0 })) as usize;
        // Safety: none — the seeded bug: nothing keeps this node from being
        // freed while it is held.
        let held = unsafe { r.unguarded(t, addr) };
        // Safety: a `Box<Cell>` from `alloc`, never linked, retired once.
        unsafe { r.retire(t, addr) };
        // No section is open: the retire ejects at once.
        r.smr.flush(t);
        r.collect(t);
        assert_eq!(r.in_flight(), 0, "the node was freed");
        let msg = panic_msg(|| {
            held.node();
        });
        assert!(msg.contains("use after free"), "{msg}");
    }
}
