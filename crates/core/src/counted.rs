//! The control block: a managed object together with its strong and weak
//! reference counts and enough type information to destroy and free it from
//! type-erased code.
//!
//! Layout (`#[repr(C)]`, header first) lets the deferred-operation machinery
//! treat every control block as a [`Header`] regardless of the payload type;
//! the per-type vtable restores typing at disposal/deallocation time.
//!
//! The header is as small as the scheme allows (§4.2 gives a control block
//! two counts; a birth epoch is IBR's own concern). On x86-64:
//!
//! | bytes | field | EBR, HP, Hyaline | IBR |
//! |-------|-------|------------------|-----|
//! | 0..4 | `strong` (32-bit sticky count) | ✓ | ✓ |
//! | 4..8 | `weak` (32-bit sticky count) | ✓ | ✓ |
//! | 8..16 | `domain` | ✓ | ✓ |
//! | 16..24 | `vtable` | ✓ | ✓ |
//! | 24..32 | `birth` | — (`()`, no bytes) | ✓ |
//! | | header total | 24 B | 32 B |
//!
//! The payload starts right after, so the fields a payload declares first
//! (the `lockfree::rc` nodes put the words a traversal reads there) sit in
//! the block's first bytes. The birth is the header's *last* field: every
//! scheme-independent reader (counts, domain, vtable) sees the same offsets
//! through [`as_header`], and only domain code, which knows the scheme,
//! reads a birth ([`birth_of`]).
//!
//! Counter convention (§4.2): the weak count stores
//! `#weak refs + (1 if #strong refs > 0 else 0)`, so the control block is
//! freed exactly when the weak count hits zero, and the payload is destroyed
//! (disposed) when the strong count hits zero.
//!
//! Every block also records **which reclamation domain allocated it** (a
//! type-erased `*const Domain<S>`) and is a *passive reference* on that
//! domain under the pin rule (`domain.rs` module docs): counted up on the
//! allocating thread's lane of the domain's `blocks` tally and, when freed,
//! down on the freeing thread's lane — never on a shared word. A domain whose folded
//! `live` count is nonzero cannot be torn down, so while a block is alive
//! its domain is alive: that is what lets the single-word owned pointer
//! types ([`SharedPtr`](crate::SharedPtr), [`WeakPtr`](crate::WeakPtr))
//! find their domain without carrying a handle. The header grants no right
//! to *run* domain code, though: a handle-free drop first takes the calling
//! thread's pin from the header's domain pointer (one RMW at the outermost
//! level, a thread-local bump under a guard), because its cascade may free
//! the very block that was keeping the domain alive.
//!
//! **Where a block's memory comes from and goes.** The vtable records the
//! block's [`Layout`]. [`Counted::init`] only writes the header and the
//! value; the memory is the allocating thread's last parked block of that
//! exact layout in the domain, or fresh from the global allocator
//! ([`alloc_block`]). A freed block is parked on the freeing thread's lane
//! of its domain (`domain.rs`, `FreeLists`), or given back to the global
//! allocator when that lane's list for its size is full; the domain's drop
//! gives back every parked block. Parking happens after the free is
//! counted, so a parked block is freed as far as the counts and the pin
//! rule go: it holds no payload, no reference and no passive reference,
//! only memory that the domain owns until it drops.

use std::alloc::Layout;
use std::mem::MaybeUninit;
use std::ptr::{self, NonNull};

use smr::AcquireRetire;
use sticky::{Counter, StickyCounter};

use crate::domain::{tagged, Domain, Scheme};
use crate::engine::{RefKind, DISPLACED};
use crate::ptr::{AtomicRcPtr, RcPtr};

/// Type-erased destruction hooks for a control block.
pub(crate) struct Vtable {
    /// Drops the payload in place (the *dispose* operation).
    pub dispose: unsafe fn(*mut Header),
    /// The whole block's layout: what the global allocator is asked for
    /// and given back, and what picks the free list a freed block is parked
    /// on (module docs).
    pub layout: Layout,
    /// Extracts the payload's outgoing graph edges into an [`EdgeSink`],
    /// nulling the payload's pointer fields so the `dispose` that follows
    /// cannot re-relinquish them. `None` for payloads without a
    /// [`GraphNode`] implementation — the destruct machinery then falls
    /// back to the payload's own `Drop`, which relinquishes edges through
    /// the deferred path one at a time (always safe, never immediate).
    pub pop_edges: Option<unsafe fn(*mut Header, *mut EdgeSink)>,
}

/// The type-erased prefix of every control block: 24 bytes, plus the
/// scheme's stored birth `B` ([`AcquireRetire::Birth`]: `u64` under IBR,
/// `()` elsewhere) — the module docs give the table.
///
/// `Header` alone (`B = ()`) is the scheme-independent view every block
/// can be read through: `birth` is last, so the other offsets never move.
#[repr(C)]
pub(crate) struct Header<B = ()> {
    /// The strong count; at zero the payload is disposed.
    pub strong: StickyCounter,
    /// The weak count plus the strong side's one; at zero the block is
    /// freed. Sticky although no reader needs its sticky zero (a weak
    /// count is only raised by a holder of a reference that keeps it
    /// nonzero): one counter type keeps one count path for both kinds
    /// (`RefKind::count`), and its zero CAS is off the common path, where
    /// `Domain::destruct` frees a block whose weak count it reads as 1
    /// without any RMW.
    pub weak: StickyCounter,
    /// The `Domain<S>` this block was allocated under, erased to `()` (the
    /// scheme type is restored by the pointer types, whose `S` parameter is
    /// pinned at allocation). Stays valid for as long as the block does:
    /// the block is a passive reference on that domain.
    pub domain: *const (),
    pub vtable: &'static Vtable,
    /// Birth epoch recorded by the owning domain's scheme at allocation,
    /// in the scheme's stored form.
    pub birth: B,
}

/// A managed object: header followed by the payload in one allocation.
#[repr(C)]
pub(crate) struct Counted<T, B = ()> {
    pub header: Header<B>,
    /// `MaybeUninit` so the payload's drop runs exactly once — at dispose
    /// time — rather than again when the allocation is freed.
    pub value: MaybeUninit<T>,
}

/// The block type scheme `S` allocates for payload `T`.
pub(crate) type Block<T, S> = Counted<T, <S as AcquireRetire>::Birth>;

// Header erasure — every `*mut Counted<T, B>` read as a `*mut Header` —
// rests on the header sitting first and the birth sitting last in it.
const _: () = assert!(std::mem::offset_of!(Counted<u64, u64>, header) == 0);
const _: () =
    assert!(std::mem::offset_of!(Header<u64>, vtable) == std::mem::offset_of!(Header, vtable));

unsafe fn dispose_impl<T, B>(h: *mut Header) {
    smr::sanitize::on_dispose(h as usize);
    let counted = h as *mut Counted<T, B>;
    ptr::drop_in_place((*counted).value.as_mut_ptr());
    // Poison the disposed payload so a latent dangling read that slips past
    // the shadow-state checks still fails loudly instead of observing stale
    // but plausible bytes. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    ptr::write_bytes(
        (*counted).value.as_mut_ptr() as *mut u8,
        0xDB,
        std::mem::size_of::<T>(),
    );
}

struct VtableOf<T, B>(std::marker::PhantomData<(T, B)>);

impl<T, B> VtableOf<T, B> {
    const VTABLE: Vtable = Vtable {
        dispose: dispose_impl::<T, B>,
        layout: Layout::new::<Counted<T, B>>(),
        pop_edges: None,
    };
}

/// The vtable of a block of payload `T` without a graph hook.
pub(crate) fn vtable<T, B>() -> &'static Vtable {
    &VtableOf::<T, B>::VTABLE
}

// ---------------------------------------------------------------------
// Graph-aware payloads: immediate recursive destruction support.
// ---------------------------------------------------------------------

/// Type-erased bucket of a dead node's outgoing edges, filled by
/// [`Vtable::pop_edges`] and consumed by the domain's destruct worklist.
///
/// The split is by *safety class*, not by how the field was declared:
/// direct edges are references the dead parent itself owned, whose
/// decrement may be applied immediately under the parent's dispose rights;
/// deferred edges are displaced-class references (a concurrent reader of
/// the location they were displaced from may still be protected), which
/// must go through the domain's deferred machinery. Direct edges are
/// indexed by the edge kind's count channel (`Strong`, `Weak`); deferred
/// ones carry it as their tag, as the domain's batch does.
#[derive(Default)]
pub(crate) struct EdgeSink {
    pub direct: [Vec<usize>; 2],
    pub deferred: Vec<usize>,
}

/// A payload type that can enumerate its outgoing reference-counted edges,
/// enabling *immediate recursive destruction*: when a graph-allocated
/// object's strong count reaches zero with no weak observers, the domain
/// destructs the entire reachable zero-count subgraph iteratively inside
/// the current operation instead of re-deferring each child edge through
/// the reclamation machinery one node at a time.
///
/// # Contract
///
/// `pop_edges` must *move every reference-counted edge the payload owns*
/// into the collector — each [`SharedPtr`](crate::SharedPtr) and
/// [`WeakPtr`](crate::WeakPtr) field with [`EdgeCollector::take`], each
/// [`AtomicSharedPtr`](crate::AtomicSharedPtr) and
/// [`AtomicWeakPtr`](crate::AtomicWeakPtr) field with
/// [`EdgeCollector::take_atomic`], which null the field in place. Missing
/// an edge is safe but forfeits the optimization for it (the payload's
/// `Drop` then relinquishes it through the deferred path); relinquishing an
/// edge by any other means from inside `pop_edges` is **not** allowed. The
/// method is called at most once per object, after its strong count reached
/// zero and before its payload is dropped.
///
/// Implementing the trait has no effect unless the object is allocated
/// through the graph-aware constructor
/// [`SharedPtr::new_graph_in`](crate::SharedPtr::new_graph_in).
pub trait GraphNode<S: Scheme> {
    /// Moves all outgoing reference-counted edges into `out`, nulling the
    /// corresponding fields.
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>);
}

/// Sink handed to [`GraphNode::pop_edges`]: takes ownership of a dead
/// node's outgoing edges and classifies each for immediate or deferred
/// relinquish.
pub struct EdgeCollector<'a, S: Scheme> {
    sink: &'a mut EdgeSink,
    _scheme: std::marker::PhantomData<fn(S)>,
}

impl<'a, S: Scheme> EdgeCollector<'a, S> {
    pub(crate) fn new(sink: &'a mut EdgeSink) -> Self {
        EdgeCollector {
            sink,
            _scheme: std::marker::PhantomData,
        }
    }

    /// Takes the edge out of an owned pointer field of either kind, leaving
    /// the field null.
    pub fn take<T, K: RefKind>(&mut self, ptr: &mut RcPtr<T, S, K>) {
        let word = ptr.extract_word();
        let addr = word & !DISPLACED;
        if addr == 0 {
            return;
        }
        if word & DISPLACED != 0 {
            self.sink.deferred.push(tagged(addr, K::CHANNEL));
        } else {
            self.sink.direct[K::CHANNEL as usize].push(addr);
        }
    }

    /// Takes the edge out of an atomic pointer field of either kind,
    /// leaving the field null. Any tag bits are discarded with the dead
    /// location.
    pub fn take_atomic<T, K: RefKind>(&mut self, ptr: &mut AtomicRcPtr<T, S, K>) {
        let addr = smr::untagged(ptr.extract_word());
        if addr != 0 {
            self.sink.direct[K::CHANNEL as usize].push(addr);
        }
    }
}

impl<S: Scheme> std::fmt::Debug for EdgeCollector<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeCollector").finish_non_exhaustive()
    }
}

unsafe fn pop_edges_impl<T: GraphNode<S>, S: Scheme>(h: *mut Header, sink: *mut EdgeSink) {
    let counted = h as *mut Block<T, S>;
    let mut out = EdgeCollector::<S>::new(&mut *sink);
    T::pop_edges((*counted).value.assume_init_mut(), &mut out);
}

struct GraphVtableOf<T, S>(std::marker::PhantomData<(T, fn(S))>);

impl<T: GraphNode<S>, S: Scheme> GraphVtableOf<T, S> {
    const VTABLE: Vtable = Vtable {
        dispose: dispose_impl::<T, S::Birth>,
        layout: Layout::new::<Block<T, S>>(),
        pop_edges: Some(pop_edges_impl::<T, S>),
    };
}

/// The graph-aware vtable: the block's `pop_edges` hook enumerates the
/// payload's outgoing edges at destruction, enabling immediate recursive
/// destruction.
pub(crate) fn graph_vtable<T: GraphNode<S>, S: Scheme>() -> &'static Vtable {
    &GraphVtableOf::<T, S>::VTABLE
}

impl<T, B> Counted<T, B> {
    /// Writes a control block into `mem`: strong count 1 and weak count 1
    /// (the strong side's +1 on the weak count), `domain` as its owner.
    /// The caller has already counted the block up on the domain's
    /// `blocks` lane (or passes null for domain-less test blocks).
    ///
    /// # Safety
    ///
    /// `mem` is unused memory of this type's layout, which is
    /// `vtable.layout`: fresh from [`alloc_block`] or a parked block of
    /// that exact layout.
    pub(crate) unsafe fn init(
        mem: NonNull<u8>,
        value: T,
        birth: B,
        domain: *const (),
        vtable: &'static Vtable,
    ) -> *mut Self {
        debug_assert_eq!(vtable.layout, Layout::new::<Self>());
        let p = mem.as_ptr().cast::<Self>();
        p.write(Counted {
            header: Header {
                strong: StickyCounter::new(1),
                weak: StickyCounter::new(1),
                domain,
                vtable,
                birth,
            },
            value: MaybeUninit::new(value),
        });
        smr::sanitize::on_alloc(p as usize);
        p
    }
}

/// Fresh memory for a block of `layout` from the global allocator.
pub(crate) fn alloc_block(layout: Layout) -> NonNull<u8> {
    // Safety: a block is never zero-sized; its header is not.
    NonNull::new(unsafe { std::alloc::alloc(layout) })
        .unwrap_or_else(|| std::alloc::handle_alloc_error(layout))
}

/// Ownership marker shared by the pointer types: owns a `T` (for drop
/// check / auto-trait purposes) while staying `Send`/`Sync`-neutral in the
/// scheme and kind parameters.
pub(crate) type PtrMarker<T, S, K> = std::marker::PhantomData<(Box<T>, fn(S), fn(K))>;

/// Views an erased header address as a typed control block pointer of
/// scheme `S`.
#[inline]
pub(crate) fn as_counted<T, S: AcquireRetire>(addr: usize) -> *mut Block<T, S> {
    addr as *mut Block<T, S>
}

/// Views an erased address as a header pointer: the scheme-independent
/// view (counts, domain, vtable).
#[inline]
pub(crate) fn as_header(addr: usize) -> *mut Header {
    addr as *mut Header
}

/// The stored birth of a block allocated under scheme `S`.
///
/// # Safety
///
/// The block is alive and was allocated under `S`.
#[inline]
pub(crate) unsafe fn birth_of<S: AcquireRetire>(addr: usize) -> S::Birth {
    (*(addr as *const Header<S::Birth>)).birth
}

// ---------------------------------------------------------------------
// Header-only count operations.
//
// These touch nothing but the control block itself, so — unlike the
// deferred-operation primitives on `Domain` — they need no domain handle:
// `WeakPtr::upgrade` and friends never resolve a domain at all. (The plain
// per-kind increment is `RefKind::incr`.)
// ---------------------------------------------------------------------

/// Strong increment-if-not-zero (Fig. 8's `increment`).
///
/// # Safety
///
/// `addr` must be a live control block (caller holds a weak or strong
/// reference, or protection on a location containing one).
#[inline]
pub(crate) unsafe fn increment(addr: usize) -> bool {
    (*as_header(addr)).strong.increment_if_not_zero()
}

/// Whether the object's strong count is zero (Fig. 8's `expired`).
///
/// # Safety
///
/// The control block must be alive.
#[inline]
pub(crate) unsafe fn expired(addr: usize) -> bool {
    (*as_header(addr)).strong.load() == 0
}

/// The raw pointer to the domain a live block was allocated under.
///
/// # Safety
///
/// The control block must be alive, and `S` must be the scheme it was
/// allocated under (guaranteed by the pointer types, whose `S` parameter is
/// fixed at allocation).
#[inline]
pub(crate) unsafe fn domain_ptr_of<S: AcquireRetire>(addr: usize) -> *const Domain<S> {
    (*as_header(addr)).domain as *const Domain<S>
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn alloc_unowned<T>(value: T, birth: u64) -> *mut Counted<T, u64> {
        // Domain-less blocks: never freed through a `Domain`.
        let vtable = vtable::<T, u64>();
        unsafe {
            Counted::init(
                alloc_block(vtable.layout),
                value,
                birth,
                ptr::null(),
                vtable,
            )
        }
    }

    /// What `Domain::free_block` does for a block no lane parks.
    unsafe fn free_unowned(h: *mut Header) {
        smr::sanitize::on_free(h as usize);
        std::alloc::dealloc(h.cast(), (*h).vtable.layout);
    }

    #[test]
    fn header_is_prefix_of_counted() {
        // repr(C) with header first: the erased view must be exact.
        let p = alloc_unowned(42u64, 7);
        let h = p as *mut Header;
        unsafe {
            assert_eq!((*(p as *mut Header<u64>)).birth, 7);
            assert_eq!((*h).strong.load(), 1);
            assert_eq!((*h).weak.load(), 1);
            assert_eq!((*p).value.assume_init_read(), 42);
            // Payload was read out (Copy); dispose is a no-op drop for u64
            // but keeps the dispose-before-free lifecycle uniform (the
            // sanitizer enforces it).
            ((*h).vtable.dispose)(h);
            free_unowned(h);
        }
    }

    #[test]
    fn dispose_runs_payload_drop_exactly_once() {
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let p = alloc_unowned(Probe(Arc::clone(&drops)), 0);
        let h = p as *mut Header;
        unsafe {
            ((*h).vtable.dispose)(h);
            assert_eq!(drops.load(Ordering::SeqCst), 1);
            free_unowned(h);
            // Freeing must not re-drop the payload.
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn alignment_supports_tag_bits() {
        assert!(std::mem::align_of::<Counted<u8>>() >= 8);
        assert!(std::mem::align_of::<Counted<u8, u64>>() >= 8);
        let p = alloc_unowned(1u8, 0);
        assert_eq!(p as usize & smr::TAG_MASK, 0);
        unsafe {
            ((*(p as *mut Header)).vtable.dispose)(p as *mut Header);
            free_unowned(p as *mut Header);
        }
    }
}
