//! The reclamation domain: one acquire-retire instance and its epoch
//! clock, plus the deferred-operation primitives of Figure 8.
//!
//! # One instance, tagged entries
//!
//! The paper (§4.4) gives each domain three acquire-retire instances, one
//! per deferred operation. Here one instance, `Domain::ar`, defers all
//! three, and each retired or batched entry carries its operation in the
//! block address's low bits: the [`Channel`] discriminant (blocks are
//! 8-aligned, and `smr::TAG_MASK` is reserved for such tags).
//!
//! | tag | defers | applying an ejected entry ([`Domain::apply`]) |
//! |-----|--------|-----------------------------------------------|
//! | `Strong` (0) | a strong decrement of a reference a location owned | `decrement::<StrongKind>`; at zero, destruct or retire a `Dispose` entry |
//! | `Weak` (1) | a weak decrement of a reference a location owned | `decrement::<WeakKind>`; at zero, free the block |
//! | `Dispose` (2) | disposal of an object whose strong count hit zero but which could not be destructed on the spot (weak observers; a non-graph payload dropped by its owner; under hazard pointers, an owner's drop, or an object a hazard snapshot names) | `destruct`; under hazard pointers, after a snapshot that decides its edges |
//!
//! [`Domain::retire`] defers one operation at once; [`Domain::batch`]
//! buffers a `Strong` or `Weak` one per thread until the next flush point;
//! [`Domain::settle`] is the one place a taken batch is either applied on
//! the spot (no section is open) or issued to the instance. Sections open
//! and close in [`Domain::enter`] / [`Domain::leave`], which [`CsGuard`] and
//! the internal [`Domain::with_cs`] share. One section covers strong and
//! weak reads alike.
//!
//! Why one instance is as sound as three:
//!
//! * **One protection covers all three operations.** A strong snapshot, a
//!   weak snapshot and a protected load each hold one protection on the one
//!   instance: the section under a region scheme, a hazard on the block
//!   under hazard pointers. The instance hands an entry back only once no
//!   protection that could reach its block is left, whatever its tag; the
//!   tag only says what to do with it then. Under a region scheme that is
//!   the three instances' rule with every section open on all three. Under
//!   hazard pointers the scan keeps `min(#retired, #announced)` copies of
//!   an announced block *per tag* (`smr::Hp`), so one hazard holds back
//!   the block's weak decrement and its disposal alike: the accounting
//!   three instances gave, with every hazard now counted on all of them,
//!   so it is at least as conservative.
//! * **Entries retired inside the eject loop.** Applying an entry can
//!   retire another (a `Dispose` entry for an object a decrement zeroed)
//!   onto the very list `apply_ready` ejects from, and its threshold scan
//!   can fire in the middle of the loop. With three instances that already
//!   happened for `Strong` entries: the new entry is stamped and counted
//!   like any retire, `eject` pops the ready queue one entry at a time, and
//!   the loop ends only after a round that ejects nothing.
//! * **Hazard pointers share one set of words.** Strong and weak snapshots
//!   take their hazards from the same `hp_slots` words, so a thread that
//!   holds many runs out sooner. `try_acquire` then fails, and the snapshot
//!   falls back to an owned reference taken through the reserved word of
//!   `acquire` (`strong.rs`, `weak.rs`), as a strong one always did.
//!
//! What may be destructed on the spot, and whose out-edges may be
//! decremented on the spot, depends on who took the count to zero
//! (`Rights`): an owner's drop, an eject (or a region scheme's quiescent
//! settle, which grants the same), or an exclusive drain. Under hazard pointers an
//! eject's zero waits for a hazard snapshot taken after it
//! (`Domain::cascade`): what the snapshot does not name is destructed, and
//! its edges the snapshot does not name decremented, on the spot
//! (`Rights::Seen`; the argument is in `engine.rs`).
//!
//! # When a retired list is scanned
//!
//! A list is scanned when it has grown by a threshold since its last scan,
//! and by `flush`. A list that stops growing would otherwise keep what it
//! holds, and in a chain (the weak queue) each entry holds every node
//! behind it, since a node is destructed only after its predecessor. Two
//! flush points cover that:
//!
//! * every outermost section exit of a thread that has issued a `Dispose`
//!   entry: [`Domain::leave`] learns from the instance's
//!   `end_critical_section` that the exit was outermost and runs
//!   `exit_flush`, which flushes the thread's batch and then, per
//!   `DomainLocal::disposes`, scans its list; under a region scheme maps,
//!   lists and the tree never dispose and scan nothing here;
//! * the settling thread's list, when `settle`'s sweep finds every section
//!   closed, and at every settle under hazard pointers. A thread that
//!   seeded a structure under one guard and then went idle does not keep
//!   its decrements.
//!
//! A flush of an empty list returns at once, so neither point sweeps the
//! announcements for a thread with nothing retired.
//!
//! A thread that *exits* while another thread's section still protects
//! some of its entries settles its batch by issuing it and then hands its
//! lists to the live threads (`AcquireRetire::hand_off`): the next
//! outermost section exit or flush of any thread adopts and scans them,
//! and what the scan readies is applied by that thread's `collect` like
//! its own entries: there is one ready queue, whatever the tags.
//!
//! # Domain handles
//!
//! A [`Domain`] is owned through [`DomainRef`], a cheap-to-clone
//! `Arc`-backed handle. Every pointer type is bound to exactly one domain at
//! creation — [`Scheme::global_domain`] is merely the *convenience default*
//! used by the handle-free constructors (`SharedPtr::new`,
//! `AtomicSharedPtr::null`, …); the `_in` constructors take an explicit
//! handle. Two structures on the same scheme with separate domains are fully
//! isolated: neither's open critical sections, epoch advancement or
//! allocation counters affect the other.
//!
//! # Domain lifetime: the pin rule
//!
//! A domain's core (this struct: the engine instance, the per-thread
//! [`DomainLocal`] lanes, the counters) is torn down by exactly one thread,
//! and only when nothing can reach it any more. Two kinds of reference keep
//! it reachable, and they are counted in two different places so that a
//! node's lifetime never touches a shared count:
//!
//! * A **pin** is the right to *run domain code*: retire, flush, collect,
//!   destruct, free. Pins are counted on one shared *liveness word*
//!   (`Domain::pins`: a pin count in the low half, an acquisition stamp in
//!   the high half, all-ones = DEAD). Every [`DomainRef`] handle is one
//!   pin. A thread that needs to run domain code without a handle in reach
//!   — a guard, a pointer's handle-free drop, a location's drop — takes the
//!   *thread's* pin: the outermost one is one RMW on the liveness word,
//!   every nested one is a bump of `DomainLocal::depth`. A [`CsGuard`]
//!   raises the depth for its whole lifetime (its own section-exit flush
//!   included), so the operations under it — displaced drops, failed-insert
//!   destructs, edge creation and disposal, the batch flush — perform no
//!   shared-count RMW and no lane fold at all.
//! * **Passive references** are control blocks and atomic pointer
//!   locations. They keep the core *alive* but grant no right to tear it
//!   down, so they are counted on single-writer per-thread lanes, one
//!   [`LanePairs`] each: `Domain::blocks` (allocations up, frees down) and
//!   `Domain::locations` (creations up, drops down). `live =
//!   blocks.net() + locations.net()`. A location stores its
//!   domain pointer uncounted on the liveness word, yet *is* counted on a
//!   lane — so a standalone location keeps its domain from dying, and
//!   guard-free `load`/`store`/CAS through a borrowed `&location` need no
//!   pin of their own: the borrow is a live passive reference for the call.
//!
//! Every *decrement* of `live` (a block's free, a location's drop) that
//! could be the last happens under a pin, and a pin's release is where
//! teardown is decided (`Domain::release`): a releaser that finds itself
//! the **sole** pin knows every other pinner's lane writes happened-before
//! its Acquire load of the word, folds `live`, and then
//!
//! * `live == 0`: CASes the word to DEAD and frees the core. The CAS
//!   expects the exact word it loaded, stamp included, so it fails if
//!   anyone pinned in between — even if that pinner already released and
//!   left the count where it was.
//! * `live > 0`: no handle and no guard is left to run collection, so it
//!   runs the *orphan flush* ([`Domain::process_deferred`]) once, re-checks,
//!   and otherwise CASes its pin away, leaving an orphaned-but-live core at
//!   count 0. The next handle-free drop re-pins it from its live block
//!   (a live block proves `live > 0`, hence not DEAD) and repeats the
//!   check on its own release. This is the one orphan-flush site.
//!
//! Why a sole pin's fold is exact: every decrement of `live` happens under
//! a pin, so once the releaser is the sole pin every decrement so far
//! happened-before its fold, and each counted down brings the up it
//! answers with it (`LanePairs` reads every down lane before any up lane,
//! with Acquire). What can still race the fold is a pin-free increment —
//! a location made from the live block it is to own, which is itself a
//! passive reference — and that can only raise `live`, never hide one.
//!
//! Invariants: DEAD is reached only by a sole pin that read `live == 0`
//! with the stamp unchanged; a fold racing a pin-free writer can only
//! over-report; a pointer may outlive every handle and reclaims
//! the domain on its last drop. The scheme-global default domains are held
//! by a static handle forever, so their count never returns to one and the
//! slow path is never entered for them. The memory itself is owned by an
//! `Arc`: one anchor strong count, dropped by the DEAD winner, plus `Weak`s
//! for the dead-thread reaper and the thread-unregister callback, which must
//! `try_pin` (and give up on DEAD) before touching anything.
//!
//! A freed block whose memory a lane keeps for reuse (`FreeLists`: the
//! freeing thread's next block of the same layout in this domain takes it)
//! is counted down on `blocks` before it is parked, and it is no passive
//! reference: it holds no payload, no count and no domain pointer anyone
//! reads, and only its lane can reach it. A domain whose only blocks are
//! parked is at `live == 0` and is torn down as usual; its `Drop` gives
//! every lane's parked blocks back to the global allocator, an exited
//! thread's lane included.
//!
//! The remaining caveat is unchanged: discarding the last handle while
//! deferred garbage is pinned by a concurrent section — with no later
//! pointer drop to re-run the check — leaks those blocks; flush with
//! [`Domain::process_deferred`] first (the `lockfree` structures do this in
//! their `Drop`).

use crate::sync::atomic::{AtomicU64, Ordering};
use std::alloc::Layout;
use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::{Arc, Weak};

use smr::sanitize::Channel;
use smr::util::{CachePadded, LanePairs};
use smr::{AcquireRetire, GlobalEpoch, SmrConfig, Tid, MAX_THREADS};
use sticky::Counter;

use crate::counted::{self, as_header, birth_of, Block, EdgeSink, GraphNode, Vtable};
use crate::engine::{RefKind, Rights, StrongKind, WeakKind};

/// An SMR scheme usable as the engine of the reference-counting library.
///
/// The single obligation beyond [`AcquireRetire`] is a process-global
/// *default* [`Domain`] for the handle-free constructors. Pointer types and
/// structures that want isolation create their own domain with
/// [`DomainRef::new`] and use the `_in` constructors instead. Implemented
/// here for all four schemes of the `smr` crate; implement it for your own
/// scheme to plug it into the same pointer types.
pub trait Scheme: AcquireRetire + Sized {
    /// The process-wide default domain that the handle-free constructors of
    /// this crate bind to.
    fn global_domain() -> &'static DomainRef<Self>;
}

macro_rules! impl_scheme {
    ($ty:ty) => {
        impl Scheme for $ty {
            fn global_domain() -> &'static DomainRef<Self> {
                // Held by this static forever: the default domain's pin
                // count never returns to one, so it is never torn down and
                // never takes the sole-pin slow path.
                static DOMAIN: std::sync::OnceLock<DomainRef<$ty>> = std::sync::OnceLock::new();
                DOMAIN.get_or_init(DomainRef::new)
            }
        }
    };
}

impl_scheme!(smr::Ebr);
impl_scheme!(smr::Ibr);
impl_scheme!(smr::Hp);
impl_scheme!(smr::Hyaline);

/// An owning handle on a reclamation [`Domain`] for scheme `S`.
///
/// Each handle is one *pin* on the domain's liveness word (see the module
/// docs): clones cost one shared RMW, like an `Arc`, and all refer to the
/// same domain; the handle [`Deref`]s to [`Domain`] for the metric and
/// maintenance API. A domain's identity *is* its allocation — compare
/// handles with [`ptr_eq`](DomainRef::ptr_eq).
///
/// # Examples
///
/// Two structures on one scheme, each with its own domain:
///
/// ```
/// use cdrc::{DomainRef, EbrScheme};
///
/// let a: DomainRef<EbrScheme> = DomainRef::new();
/// let b: DomainRef<EbrScheme> = DomainRef::new();
/// assert!(!a.ptr_eq(&b));
/// assert!(a.ptr_eq(&a.clone()));
/// assert_eq!(a.in_flight(), 0);
/// ```
// `repr(transparent)` over the core's address: an atomic location stores
// the same word uncounted and lends it out as a `&DomainRef` for as long as
// the location itself is borrowed (`DomainRef::passive`).
#[repr(transparent)]
pub struct DomainRef<S: AcquireRetire>(NonNull<Domain<S>>);

// Safety: a handle is a counted reference to a `Domain`, which is
// `Send + Sync`; the count lives on an atomic word.
unsafe impl<S: AcquireRetire> Send for DomainRef<S> {}
unsafe impl<S: AcquireRetire> Sync for DomainRef<S> {}

impl<S: AcquireRetire> Clone for DomainRef<S> {
    fn clone(&self) -> Self {
        self.pin();
        DomainRef(self.0)
    }
}

impl<S: AcquireRetire> Drop for DomainRef<S> {
    fn drop(&mut self) {
        // Safety: this handle is one pin.
        unsafe { Domain::release(self.0) };
    }
}

impl<S: AcquireRetire> Deref for DomainRef<S> {
    type Target = Domain<S>;
    #[inline]
    fn deref(&self) -> &Domain<S> {
        // Safety: a `&DomainRef` is a pin or a borrowed passive reference;
        // either keeps the core from being freed for the borrow.
        unsafe { self.0.as_ref() }
    }
}

impl<S: AcquireRetire> Default for DomainRef<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: AcquireRetire> fmt::Debug for DomainRef<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("DomainRef").field(&**self).finish()
    }
}

impl<S: AcquireRetire> DomainRef<S> {
    /// Creates a fresh, fully independent domain with the scheme's preferred
    /// configuration.
    pub fn new() -> Self {
        Self::with_config(S::default_config())
    }

    /// Creates a fresh domain with explicit scheme tuning.
    pub fn with_config(cfg: SmrConfig) -> Self {
        let core = Arc::new_cyclic(|weak| Domain::with_config(cfg, weak.clone()));
        // The anchor: the one strong count on the core's memory, given back
        // by whichever release turns the word DEAD. The word starts at one
        // pin — this handle's.
        let anchor = Arc::into_raw(core).cast_mut();
        // Safety: `Arc::into_raw` never returns null.
        let d = DomainRef(unsafe { NonNull::new_unchecked(anchor) });
        d.register_reaper();
        d
    }

    /// Registers this domain with the registry's dead-thread reaper so that
    /// [`smr::reclaim_orphaned_slot`] recovers the domain's per-thread state
    /// (announcements, retired lists, pending
    /// decrement batches, a stranded pin) for a thread that died without
    /// unregistering. The closure holds only a weak handle — it never keeps
    /// the domain alive, and returns `false` (pruning itself) once the
    /// domain is gone.
    fn register_reaper(&self) {
        let weak = self.weak_self.clone();
        smr::register_orphan_reaper(Box::new(move |dead| {
            let Some(core) = weak.upgrade() else {
                return false;
            };
            // The upgrade keeps the memory; only a pin keeps the domain.
            let Some(_pin) = core.try_pin_thread(smr::current_tid()) else {
                return false;
            };
            // Safety: reapers run only from inside
            // `smr::reclaim_orphaned_slot`, whose (unsafe) caller vouches
            // that `dead`'s owner terminated and that its death
            // happened-before this call — exactly the contract
            // `Domain::reclaim_orphaned_slot` requires.
            unsafe { core.reclaim_orphaned_slot(dead) };
            true
        }));
    }

    /// Whether two handles refer to the *same* domain. Domain identity is
    /// what the misuse checks compare: a guard or pointer from a different
    /// domain provides no protection here even when the scheme type matches.
    #[inline]
    pub fn ptr_eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }

    /// The core's address: what locations store and what the identity
    /// checks compare against the domain pointer in control-block headers.
    #[inline]
    pub(crate) fn as_raw(&self) -> NonNull<Domain<S>> {
        self.0
    }

    /// Views a location's uncounted domain word as a handle for as long as
    /// the location is borrowed.
    ///
    /// Sound because everything reachable through `&DomainRef` — cloning
    /// (the pin count may rise from zero on a live core), opening a
    /// section, allocating, the metric API — needs the core *alive*, not
    /// pinned, and the location is a counted passive reference. The view is
    /// never dropped as a handle.
    #[inline]
    pub(crate) fn passive(word: &NonNull<Domain<S>>) -> &DomainRef<S> {
        // Safety: `DomainRef` is `repr(transparent)` over this exact type.
        unsafe { &*(word as *const NonNull<Domain<S>> as *const DomainRef<S>) }
    }

    /// Allocates a control block under this domain. The block records the
    /// domain and counts as one passive reference on the allocating
    /// thread's lane until it is freed, so single-word pointers can resolve
    /// their domain from the header for as long as the block lives.
    pub(crate) fn allocate<T>(&self, t: Tid, value: T) -> *mut Block<T, S> {
        self.allocate_with(t, value, counted::vtable::<T, S::Birth>())
    }

    /// As [`allocate`](Self::allocate), but with the graph-aware vtable so
    /// the destruct machinery can enumerate the payload's outgoing edges.
    pub(crate) fn allocate_graph<T>(&self, t: Tid, value: T) -> *mut Block<T, S>
    where
        S: Scheme,
        T: GraphNode<S>,
    {
        self.allocate_with(t, value, counted::graph_vtable::<T, S>())
    }

    /// The block's memory is the last one thread `t` parked with this exact
    /// layout ([`FreeLists`]), or fresh from the global allocator.
    #[inline]
    fn allocate_with<T>(&self, t: Tid, value: T, vtable: &'static Vtable) -> *mut Block<T, S> {
        let birth = self.ar.birth(t);
        self.blocks.up(t);
        let layout = Layout::new::<Block<T, S>>();
        // Safety: `t` is the calling thread's slot (the one the block was
        // just counted on), and the memory popped or allocated has the
        // block's exact layout, which is `vtable`'s.
        unsafe {
            let mem = self.locals[t.index()].free.pop(layout);
            let mem = mem.unwrap_or_else(|| counted::alloc_block(layout));
            Block::<T, S>::init(mem, value, birth, self.0.as_ptr() as *const (), vtable)
        }
    }

    /// Begins a critical section: read protection for atomic pointers and
    /// snapshots of both kinds. See [`CsGuard`].
    #[inline]
    pub fn cs(&self) -> CsGuard<S> {
        let t = smr::current_tid();
        // The guard is one unit of the thread's pin depth, given back when
        // it closes.
        self.pin_enter(t);
        self.enter(t);
        CsGuard {
            domain: self.0,
            t,
            _not_send: PhantomData,
        }
    }

    // Kept for the frozen benchmark only (`ledger/src/ladder.rs:196`), which
    // no other caller may join; the next change to the benchmark deletes it.
    #[doc(hidden)]
    pub fn weak_cs(&self) -> CsGuard<S> {
        self.cs()
    }
}

/// The domain a live control block was allocated under.
///
/// # Safety
///
/// `addr` must be a live control block allocated under scheme `S` via
/// [`DomainRef::allocate`] (so its domain pointer is non-null, and the
/// block — a passive reference — keeps the core alive across the call).
#[inline]
pub(crate) unsafe fn domain_of<S: AcquireRetire>(addr: usize) -> NonNull<Domain<S>> {
    NonNull::new_unchecked(crate::counted::domain_ptr_of::<S>(addr) as *mut Domain<S>)
}

/// Panics if a non-null block was not allocated under `domain`.
///
/// Installing a pointer into a location bound to a different domain would
/// defer its reclamation through an instance its readers never announce to —
/// a protection hole — so the store-family operations refuse it outright.
#[inline]
pub(crate) fn check_same_domain<S: AcquireRetire>(addr: usize, domain: &DomainRef<S>) {
    if addr != 0 {
        // Safety: callers pass addresses of live blocks (strong or weak
        // borrows they hold).
        let owner = unsafe { crate::counted::domain_ptr_of::<S>(addr) };
        assert!(
            std::ptr::eq(owner, domain.as_raw().as_ptr()),
            "cross-domain pointer: this location is bound to a different reclamation domain \
             than the one the pointer was allocated in"
        );
    }
}

/// One unit of the calling thread's pin depth on a domain, given back on
/// drop. Held across every handle-free entry into domain code —
/// `SharedPtr::drop`, `WeakPtr::drop`, a location's drop — whose cascade
/// may free the very block or location that was keeping the core alive.
/// Nested inside a guard or another `Pin` it is a thread-local counter
/// bump; only the outermost one touches the liveness word.
pub(crate) struct Pin<S: AcquireRetire> {
    domain: NonNull<Domain<S>>,
    t: Tid,
}

impl<S: AcquireRetire> Drop for Pin<S> {
    #[inline]
    fn drop(&mut self) {
        // Safety: this value is one unit of the thread's depth.
        unsafe { Domain::pin_exit(self.domain, self.t) };
    }
}

/// Liveness-word layout: pin count in the low half, acquisition stamp in
/// the high half (it wraps; a sole-pin check would need 2³² pins to land
/// inside its window to be fooled), all-ones for a torn-down core.
const PIN: u64 = 1;
const PIN_MASK: u64 = (1 << 32) - 1;
const STAMP: u64 = 1 << 32;
const DEAD: u64 = u64::MAX;

/// One thread's state in a domain whose scheme stores births of type `B`:
/// its pin depth, its decrement batch, the scratch of its cascades and the
/// blocks it freed for reuse. Only the thread that holds the slot touches
/// it, apart from the exclusive access of a drain, a dead slot's reclaim
/// or the core's drop.
struct DomainLocal<B> {
    /// How many guards and [`Pin`]s this thread holds on the domain. While
    /// nonzero the thread owns exactly one pin on the liveness word, taken
    /// by the `0 → 1` transition and released by `1 → 0`.
    depth: Cell<u32>,
    /// Whether this thread has issued a `Dispose` entry (sticky; inherited
    /// with the slot): from then on its section exits scan its list
    /// (`exit_flush`).
    disposes: Cell<bool>,
    /// True while this thread is applying ejected deferred operations —
    /// nested `collect` calls become no-ops, flattening what would otherwise
    /// be unbounded recursive destruction (§3.2: `eject` must not recurse).
    applying: Cell<bool>,
    /// Batched displaced-pointer decrements: each entry, tagged `Strong` or
    /// `Weak`, owes the domain one deferred decrement of that count, retired
    /// in bulk at the next flush point (section exit, capacity overflow,
    /// `process_deferred`, thread unregister) instead of one retire +
    /// collect per store.
    pending: Batch<B>,
    /// Whether this thread has registered its unregister-time flush
    /// callback with this domain. Reset by the callback itself so a
    /// recycled slot's next owner re-registers.
    flush_registered: Cell<bool>,
    /// Hazard pointers: objects whose strong count this thread took to
    /// zero and that wait for a hazard snapshot (`Rights` in `engine.rs`),
    /// tagged [`DISPOSED`] when a dispose round already proved them
    /// unread. Filled by `await_snapshot`, emptied by `cascade`.
    zeroed: Cell<Vec<usize>>,
    /// Hazard pointers: the buffer a snapshot is read into, reused.
    sigma: Cell<Vec<usize>>,
    /// Reusable worklist + edge sink for `destruct`, so steady-state
    /// reclamation of graph nodes is allocation-free. `None` while a
    /// destruct on this thread is using it; the bounded-depth nested
    /// destruct (entered through a non-graph payload's `Drop`) then
    /// allocates fresh buffers.
    destruct_scratch: Cell<Option<Box<DestructScratch>>>,
    /// Blocks this thread freed, kept for its next allocations of the same
    /// layout (`free_block`, `DomainRef::allocate`).
    free: FreeLists,
}

/// Freed control blocks that a lane keeps for reuse: one intrusive LIFO
/// list per exact block size, each block's first word linking to the
/// next. An exit cascade frees tens to hundreds of blocks at once, more
/// than the allocator's per-thread cache holds, and the same thread's next
/// operations allocate blocks of the same sizes again.
///
/// Only word-aligned blocks of at most [`POOLED_MAX`] bytes are parked, so
/// a block's size alone picks its list and a list holds one layout; a size
/// is never rounded up, so reuse keeps every block in its allocator size
/// class. Owner-thread access only, like every other `DomainLocal` field;
/// `Domain`'s `Drop` gives every parked block back.
#[derive(Default)]
struct FreeLists {
    /// The list of `(i + 1)`-word blocks at index `i`.
    lists: [FreeList; POOLED_MAX / WORD],
}

/// One size's parked blocks: the last one parked, and how many there are.
#[derive(Default)]
struct FreeList {
    head: Cell<Option<NonNull<u8>>>,
    len: Cell<u32>,
}

/// The largest block size a lane parks; larger blocks go back to the
/// global allocator at once.
const POOLED_MAX: usize = 128;
/// The alignment of every parked block and the step between list sizes.
const WORD: usize = std::mem::size_of::<usize>();
/// Blocks a lane parks per size: past this a freed block goes back to the
/// global allocator.
const POOL_CAP: u32 = 256;

impl FreeLists {
    /// The list of blocks of exactly `layout`, if blocks of it are parked.
    #[inline(always)]
    fn list(&self, layout: Layout) -> Option<&FreeList> {
        let words = layout.size() / WORD;
        (layout.align() == WORD && (1..=self.lists.len()).contains(&words))
            .then(|| &self.lists[words - 1])
    }

    /// Takes the block parked last with exactly `layout`.
    ///
    /// # Safety
    ///
    /// Owner thread or exclusive access (the `DomainLocal` contract).
    #[inline]
    unsafe fn pop(&self, layout: Layout) -> Option<NonNull<u8>> {
        let list = self.list(layout)?;
        let block = list.head.get()?;
        list.head.set(block.cast::<Option<NonNull<u8>>>().read());
        list.len.set(list.len.get() - 1);
        Some(block)
    }

    /// Parks a freed block of `layout`; `false`, leaving the block alone,
    /// if its list is full or blocks of `layout` are not parked.
    ///
    /// # Safety
    ///
    /// As [`pop`](Self::pop); `block` is unused memory of `layout` from
    /// the global allocator.
    #[inline]
    unsafe fn park(&self, block: NonNull<u8>, layout: Layout) -> bool {
        let Some(list) = self.list(layout) else {
            return false;
        };
        if list.len.get() == POOL_CAP {
            return false;
        }
        block.cast::<Option<NonNull<u8>>>().write(list.head.get());
        list.head.set(Some(block));
        list.len.set(list.len.get() + 1);
        true
    }

    /// Gives every parked block back to the global allocator.
    ///
    /// # Safety
    ///
    /// As [`pop`](Self::pop).
    unsafe fn release(&self) {
        for (i, list) in self.lists.iter().enumerate() {
            // The size is a multiple of the power of two `WORD`: a valid
            // layout, the one every block parked on this list has.
            let layout = Layout::from_size_align_unchecked((i + 1) * WORD, WORD);
            while let Some(block) = self.pop(layout) {
                std::alloc::dealloc(block.as_ptr(), layout);
            }
            debug_assert_eq!(list.len.get(), 0);
        }
    }
}

/// Scratch buffers for one `destruct` cascade; capacities persist across
/// cascades via `DomainLocal::destruct_scratch`.
#[derive(Default)]
struct DestructScratch {
    worklist: Vec<usize>,
    sink: EdgeSink,
}

/// Tag on a `DomainLocal::zeroed` entry whose dispose round already ran:
/// the scan that ejected its `Dispose` entry proved no weak snapshot reads
/// it, so it is destructed whatever the snapshot says, which only decides
/// its edges.
const DISPOSED: usize = 0b1;

/// Per-thread batch capacity: overflowing the buffer forces a flush,
/// bounding how much unreclaimed memory a thread that never reaches a
/// natural flush point can strand.
const BATCH_CAP: usize = 128;

/// One batched or issued entry: the block tagged with its [`Channel`], and
/// the block's stored birth, which the scheme keeps only under IBR — 8
/// bytes elsewhere, 16 there.
type Entry<B> = (usize, B);

/// `addr` tagged with the deferred operation `ch`.
#[inline(always)]
pub(crate) fn tagged(addr: usize, ch: Channel) -> usize {
    debug_assert_eq!(addr & smr::TAG_MASK, 0);
    addr | ch as usize
}

/// The deferred operation a tagged entry carries.
#[inline(always)]
fn channel_of(entry: usize) -> Channel {
    match entry & smr::TAG_MASK {
        0 => Channel::Strong,
        1 => Channel::Weak,
        _ => Channel::Dispose,
    }
}

/// A fixed-capacity decrement buffer: an inline array instead of a `Vec`, so
/// the batching hot path (one push per displaced pointer) never allocates
/// and a flush never frees — the `Vec` version paid a realloc ladder on
/// every fill cycle, which ate the batching win.
struct Batch<B> {
    /// Entries below `len`. Owner-thread access only (or exclusive access
    /// during `drain_and_apply_all`), like every other `DomainLocal` field.
    entries: UnsafeCell<[Entry<B>; BATCH_CAP]>,
    len: Cell<usize>,
}

impl<B: Copy + Default> Batch<B> {
    fn new() -> Self {
        Batch {
            // Placeholder padding, never read: only `entries[..len]` is.
            entries: UnsafeCell::new([(0, B::default()); BATCH_CAP]),
            len: Cell::new(0),
        }
    }

    /// Appends an entry; returns `true` when the buffer is now full.
    ///
    /// # Safety
    ///
    /// Caller must be the slot's owner thread (the `DomainLocal` access
    /// contract); the buffer must not be full.
    unsafe fn push(&self, r: Entry<B>) -> bool {
        let n = self.len.get();
        debug_assert!(n < BATCH_CAP);
        (*self.entries.get())[n] = r;
        self.len.set(n + 1);
        n + 1 == BATCH_CAP
    }

    /// Copies the entries out and empties the buffer. The copy makes the
    /// drain re-entrancy-safe: applying an entry can batch new entries,
    /// which land at index 0 of the now-empty buffer.
    ///
    /// # Safety
    ///
    /// As [`push`](Self::push): owner thread or exclusive access.
    unsafe fn take(&self) -> ([Entry<B>; BATCH_CAP], usize) {
        let n = self.len.get();
        let copy = *self.entries.get();
        self.len.set(0);
        (copy, n)
    }

    fn is_empty(&self) -> bool {
        self.len.get() == 0
    }
}

/// A reclamation domain for scheme `S`.
///
/// Holds one acquire-retire instance, which delays strong decrements, weak
/// decrements and disposals of managed objects alike (the module docs say
/// why one does the work of §4.4's three), and its [`GlobalEpoch`].
///
/// Owned through [`DomainRef`]; every pointer type and every `lockfree::rc`
/// structure is bound to exactly one domain ([`Scheme::global_domain`] by
/// default, or an explicit handle via the `_in` constructors).
pub struct Domain<S: AcquireRetire> {
    /// The one instance (module docs).
    ar: S,
    clock: Arc<GlobalEpoch>,
    /// Control blocks allocated (`up`) and freed (`down`), per thread: a
    /// shared `fetch_add` on the allocation path would serialize every
    /// allocating core on one cache line.
    blocks: LanePairs,
    /// Atomic pointer locations created (`up`) and dropped (`down`), per
    /// thread: with `blocks`, the passive references of the pin rule.
    locations: LanePairs,
    locals: Box<[CachePadded<DomainLocal<S::Birth>>]>,
    /// The liveness word (module docs): pin count, acquisition stamp, DEAD.
    /// On a line of its own — everything else in this struct is read-only
    /// after construction and shared by every operation.
    pins: CachePadded<AtomicU64>,
    /// The core's own allocation, for the two hooks that must not keep the
    /// domain alive (dead-thread reaper, thread-exit flush).
    weak_self: Weak<Domain<S>>,
}

// Safety: `locals` entries are only touched by the thread whose Tid indexes
// them; everything else is Sync.
unsafe impl<S: AcquireRetire> Send for Domain<S> {}
unsafe impl<S: AcquireRetire> Sync for Domain<S> {}

impl<S: AcquireRetire> Domain<S> {
    /// Creates a domain with explicit scheme tuning. (Use [`DomainRef`] to
    /// obtain an owned, usable handle — a bare `Domain` value only exposes
    /// the metric and maintenance API.)
    fn with_config(cfg: SmrConfig, weak_self: Weak<Self>) -> Self {
        let clock = Arc::new(GlobalEpoch::new());
        Domain {
            ar: S::new(Arc::clone(&clock), cfg),
            clock,
            blocks: LanePairs::new(),
            locations: LanePairs::new(),
            locals: (0..MAX_THREADS)
                .map(|_| {
                    CachePadded::new(DomainLocal {
                        depth: Cell::new(0),
                        disposes: Cell::new(false),
                        applying: Cell::new(false),
                        pending: Batch::new(),
                        flush_registered: Cell::new(false),
                        zeroed: Cell::new(Vec::new()),
                        sigma: Cell::new(Vec::new()),
                        destruct_scratch: Cell::new(None),
                        free: FreeLists::default(),
                    })
                })
                .collect(),
            pins: CachePadded::new(AtomicU64::new(PIN)),
            weak_self,
        }
    }

    // ------------------------------------------------------------------
    // The pin rule (module docs)
    // ------------------------------------------------------------------

    /// Takes one pin on the liveness word.
    ///
    /// Callers prove the core is not DEAD: they hold a handle (a pin), or a
    /// live block or location (`live > 0`, which no sole-pin fold can read
    /// as zero — the reference's lane increment happened-before any
    /// decrement that could cancel it).
    #[inline]
    fn pin(&self) {
        // Ordering: Relaxed — like `Arc::clone`: the caller's existing
        // reference already orders everything it is about to touch; the
        // RMW only has to land in the word's modification order, where it
        // both raises the count and moves the stamp, failing any sole-pin
        // CAS that loaded the word before it.
        self.pins.fetch_add(PIN + STAMP, Ordering::Relaxed);
    }

    /// As [`pin`](Self::pin) for callers that hold only the core's memory
    /// (a `Weak` upgrade): fails once the word is DEAD.
    fn try_pin(&self) -> bool {
        // Ordering: Relaxed — as in `pin`; the loop re-reads on failure.
        let mut w = self.pins.load(Ordering::Relaxed);
        loop {
            if w == DEAD {
                return false;
            }
            // Ordering: Relaxed / Relaxed — as in `pin`.
            match self.pins.compare_exchange_weak(
                w,
                w.wrapping_add(PIN + STAMP),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(cur) => w = cur,
            }
        }
    }

    /// Gives up one pin, and decides teardown if it was the last.
    ///
    /// Takes the core by address, not by reference: it may be freed before
    /// this returns — here, or by another thread the moment the pin is
    /// gone.
    ///
    /// # Safety
    ///
    /// The caller owns one pin on `this` and forfeits it.
    unsafe fn release(this: NonNull<Self>) {
        // Used up to the CAS that gives the pin away and not after.
        let core = this.as_ref();
        let mut flushed = false;
        loop {
            // Ordering: Acquire — pairs with the Release half of every
            // other release: a releaser that finds itself sole has every
            // earlier pinner's lane writes (and everything else they did
            // to the core) happen-before its fold and its teardown.
            let w = core.pins.load(Ordering::Acquire);
            debug_assert!(w != DEAD && w & PIN_MASK != 0, "release without a pin");
            if w & PIN_MASK > 1 {
                // Ordering: Release on success — publishes this thread's
                // lane writes to whoever ends up sole. Relaxed on failure —
                // the loop reloads. A CAS, not a `fetch_sub`: two releases
                // racing at count 2 must not both leave, and the one that
                // stays must still *hold* its pin while it folds.
                if core
                    .pins
                    .compare_exchange_weak(w, w - PIN, Ordering::Release, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue;
            }
            // Sole pin. Nobody else may run domain code or decrement `live`
            // for as long as the word stays exactly `w`; the CASes below
            // fail if it did not.
            if core.live() == 0 {
                // Ordering: AcqRel on success — Acquire re-reads the same
                // store the load above read; Release orders this thread's
                // own last uses of the core before a `try_pin` can observe
                // DEAD. Relaxed on failure — someone pinned; start over.
                if core
                    .pins
                    .compare_exchange(w, DEAD, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    // The anchor is still held, so the upgrade succeeds.
                    let anchor = core.weak_self.upgrade().expect("anchor held until DEAD");
                    // Safety: gives back the strong count leaked by
                    // `DomainRef::with_config`; DEAD is entered once.
                    unsafe { Arc::decrement_strong_count(Arc::as_ptr(&anchor)) };
                    // Unless a hook holds a `Weak` upgrade this very
                    // moment, the core is dropped and freed here.
                    drop(anchor);
                    return;
                }
                continue;
            }
            // Orphan flush, the one site: only passive references remain,
            // so no handle or guard will ever run collection again — batch
            // entries pin their blocks and blocks keep the core, so what
            // this thread deferred would leak with the domain. Flush once,
            // then look again: the flush may have freed the last block.
            // Inside an apply cascade the outermost flush loop already
            // covers whatever is pending.
            let t = smr::current_tid();
            if !flushed && !core.applying(t) {
                flushed = true;
                let _pin = core.pin_thread(t);
                core.process_deferred(t);
                continue;
            }
            // Ordering: Release / Relaxed — as the decrement above. Leaves
            // an orphaned-but-live core at count 0; the next handle-free
            // drop re-pins it from its live block.
            if core
                .pins
                .compare_exchange(w, w - PIN, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Passive references on the core: blocks + locations. Exact when the
    /// caller is the sole pin; otherwise each fold can only over-report
    /// ([`LanePairs`]).
    fn live(&self) -> u64 {
        self.blocks.net() + self.locations.net()
    }

    /// Counts a new atomic pointer location on the calling thread's lane.
    #[inline]
    pub(crate) fn location_made(&self, t: Tid) {
        self.locations.up(t);
    }

    /// Counts a location's drop. Must be the location's last use of the
    /// core apart from the caller's own [`Pin`].
    #[inline]
    pub(crate) fn location_dropped(&self, t: Tid) {
        self.locations.down(t);
    }

    /// Raises the calling thread's pin depth; at the outermost level
    /// `outermost` takes the thread's pin on the liveness word, and its
    /// refusal leaves the depth where it was.
    #[inline]
    fn pin_enter_with(&self, t: Tid, outermost: impl FnOnce(&Self) -> bool) -> bool {
        let depth = &self.locals[t.index()].depth;
        let n = depth.get();
        if n == 0 && !outermost(self) {
            return false;
        }
        depth.set(n + 1);
        true
    }

    /// As [`pin_enter_with`](Self::pin_enter_with) for callers that may
    /// [`pin`](Self::pin) unconditionally.
    #[inline]
    fn pin_enter(&self, t: Tid) {
        self.pin_enter_with(t, |core| {
            core.pin();
            true
        });
    }

    /// Lowers the calling thread's pin depth, releasing the thread's pin
    /// at the outermost level. By address, like [`release`](Self::release).
    ///
    /// # Safety
    ///
    /// The caller owns one unit of thread `t`'s depth on `this` — from
    /// [`pin_enter`](Self::pin_enter) on the calling thread — and forfeits
    /// it.
    #[inline]
    unsafe fn pin_exit(this: NonNull<Self>, t: Tid) {
        let depth = &this.as_ref().locals[t.index()].depth;
        let n = depth.get() - 1;
        depth.set(n);
        if n == 0 {
            Self::release(this);
        }
    }

    /// Pins the core for the calling thread for the returned value's
    /// lifetime. See [`pin`](Self::pin) for what the caller must hold.
    #[inline]
    pub(crate) fn pin_thread(&self, t: Tid) -> Pin<S> {
        self.pin_enter(t);
        Pin {
            domain: NonNull::from(self),
            t,
        }
    }

    /// As [`pin_thread`](Self::pin_thread) from a `Weak` upgrade.
    fn try_pin_thread(&self, t: Tid) -> Option<Pin<S>> {
        self.pin_enter_with(t, Self::try_pin).then(|| Pin {
            domain: NonNull::from(self),
            t,
        })
    }

    /// `(pin count, acquisition stamp)` of the liveness word, for the
    /// tests — here, in `lockfree` and in `bench` — that assert what does
    /// and does not touch it. Not API.
    #[doc(hidden)]
    pub fn pin_word(&self) -> (u64, u64) {
        // Ordering: Relaxed — a diagnostic sample; the tests read it on
        // the thread that moved the word, or after joining the one that did.
        let w = self.pins.load(Ordering::Relaxed);
        (w & PIN_MASK, w >> 32)
    }

    /// Whether thread `t` is currently inside this domain's collection
    /// cascade (applying ejected deferred operations).
    pub(crate) fn applying(&self, t: Tid) -> bool {
        self.locals[t.index()].applying.get()
    }

    /// Control blocks allocated through this domain so far.
    ///
    /// Monotone diagnostic counter: the fold over per-thread lanes observes
    /// every allocation that happened-before the call (e.g. via a join) —
    /// see [`LanePairs::totals`].
    pub fn allocated(&self) -> u64 {
        self.blocks.totals().0
    }

    /// Control blocks freed so far. Same contract as
    /// [`allocated`](Self::allocated).
    pub fn freed(&self) -> u64 {
        self.blocks.totals().1
    }

    /// Control blocks currently alive (allocated − freed): live objects plus
    /// deferred garbage — the paper's "extra nodes" memory metric, which the
    /// repo benchmark's (`ledger/`) garbage sampler reads.
    ///
    /// Concurrent samples only ever **over**-report, never under-report: the
    /// fold reads every free lane before any allocation lane
    /// ([`LanePairs`]), and every free has a matching allocation that
    /// happened-before it. This one-sidedness is what makes the adversarial
    /// garbage curves trustworthy — while a stalled reader pins a scheme's
    /// reclamation, a sampler racing the writers may blame the scheme for a
    /// few extra nodes, but a reported bound is never an artifact of the
    /// counter losing track of garbage that actually existed.
    pub fn in_flight(&self) -> u64 {
        self.blocks.net()
    }

    /// The shared epoch clock (exposed for tests and benchmarks).
    pub fn epoch(&self) -> u64 {
        self.clock.load()
    }

    /// Whether no critical section is currently open on the domain.
    /// Inherently racy (a section may open right after the
    /// check) and useful as a diagnostic: a dead thread that stranded an
    /// open announcement keeps this `false` until
    /// [`smr::reclaim_orphaned_slot`] force-closes it.
    pub fn quiescent(&self) -> bool {
        self.ar.quiescent()
    }

    // ------------------------------------------------------------------
    // Figure 8 primitives. `addr` is an untagged control-block address
    // unless said otherwise. All `unsafe fn`s require: `addr` points to a
    // live control block allocated under this domain and the caller upholds
    // the reference-count ownership rules stated on each. (The header-only
    // count operations — increment, expired — live in `engine`/`counted`;
    // they need no domain.)
    // ------------------------------------------------------------------

    /// The acquire-retire instance.
    #[inline(always)]
    pub(crate) fn ar(&self) -> &S {
        &self.ar
    }

    /// Direct decrement of one `K`-reference the caller owns; at zero, what
    /// the kind says zero obliges ([`RefKind::zeroed`]) given `by`.
    ///
    /// # Safety
    ///
    /// Caller owns one `K`-reference to `addr` and forfeits it, and `by`
    /// is true of it.
    pub(crate) unsafe fn decrement<K: RefKind>(&self, t: Tid, addr: usize, by: Rights) {
        smr::sanitize::on_decrement(addr, K::CHANNEL);
        if K::count(addr).decrement() {
            K::zeroed(self, t, addr, by);
        }
    }

    /// Applies one tagged deferred operation — what an eject
    /// ([`Rights::Eject`]), a quiescent batch or an exclusive drain hands
    /// back — by its tag. (Under hazard pointers `apply_ready` parks a
    /// `Dispose` eject for the snapshot instead.)
    ///
    /// # Safety
    ///
    /// The entry carries what its tag defers (module docs): one strong
    /// reference, one weak reference, or — `Dispose` — the disposal
    /// responsibility for an object whose strong count is zero, with no
    /// critical section that could hold a snapshot of it still open. `by`
    /// is true of it.
    unsafe fn apply(&self, t: Tid, entry: usize, by: Rights) {
        let addr = smr::untagged(entry);
        match channel_of(entry) {
            Channel::Strong => self.decrement::<StrongKind>(t, addr, by),
            Channel::Weak => self.decrement::<WeakKind>(t, addr, by),
            Channel::Dispose => self.destruct(t, addr, by),
        }
    }

    /// Frees a control block whose weak count has reached zero, and with
    /// it one passive reference on this domain. Its memory is parked on
    /// thread `t`'s free lists ([`FreeLists`]) or, when they are full,
    /// given back to the global allocator; a parked block counts as freed.
    ///
    /// # Safety
    ///
    /// The weak count of `addr` is zero, its payload is disposed, and
    /// nobody else will free it. `t` is the calling thread's slot. The
    /// caller must hold the core some other way — a handle, a guard, a
    /// [`Pin`], or a borrowed location — since the block may have been the
    /// last thing keeping it alive.
    pub(crate) unsafe fn free_block(&self, t: Tid, addr: usize) {
        smr::sanitize::on_free(addr);
        self.blocks.down(t);
        let layout = (*as_header(addr)).vtable.layout;
        let block = NonNull::new_unchecked(addr as *mut u8);
        if !self.locals[t.index()].free.park(block, layout) {
            std::alloc::dealloc(block.as_ptr(), layout);
        }
    }

    /// Destroys the managed object and drops the strong side's weak
    /// reference (Fig. 8's `dispose`). When `by` reaches the object's
    /// edges ([`Rights::reaches`]: a region scheme's eject, an exclusive
    /// drain, or under hazard pointers an edge a snapshot taken after the
    /// object's zero does not name) this is immediate iterative destruction
    /// (worklist, never recursion) of the zero-strong-count subgraph rooted
    /// at `addr` — the CIRC-style fast path that replaces one deferral
    /// round-trip per edge.
    ///
    /// For each node: the graph vtable hook (if any) moves the node's
    /// outgoing edges out of the payload, the payload is disposed, and the
    /// strong side's weak reference dropped. *Direct* edges (references the
    /// dead node itself owned) are decremented on the spot when `by`
    /// reaches them: reaching them through the node required a section
    /// that provably ended, or a hazard the snapshot would show. A child
    /// that zeroes with no weak observer joins the worklist; one with weak
    /// observers takes the deferred-dispose path; under hazard pointers it
    /// waits for the next snapshot. Otherwise direct edges are batched like
    /// *deferred* (displaced-class) edges always are. An owner may still
    /// read an edge it loaded through the node before its drop, and a
    /// hazard-pointer reader may have walked hand over hand past the node:
    /// a hazard on the edge protects it only from a decrement the scheme
    /// defers.
    ///
    /// # Safety
    ///
    /// The strong count of `addr` is zero, nobody else will dispose it, and
    /// the caller holds dispose rights: no critical section that could hold
    /// a snapshot of the object (strong or weak) is still open. The
    /// dispose-instance eject path guarantees exactly this. `by` is true of
    /// the zeroing.
    pub(crate) unsafe fn destruct(&self, t: Tid, addr: usize, by: Rights) {
        let h = as_header(addr);
        if (*h).vtable.pop_edges.is_none() {
            // Leaf fast path (also taken by non-graph payloads, whose
            // edges — if any — relinquish themselves through the deferred
            // machinery from inside the payload's own `Drop`).
            ((*h).vtable.dispose)(h);
            self.drop_strong_side(t, addr, by);
            return;
        }
        // Steady-state allocation-free: reuse this thread's scratch
        // buffers; a nested destruct (bounded depth) finds `None` and
        // allocates its own.
        let local = &self.locals[t.index()];
        let mut scratch = local.destruct_scratch.take().unwrap_or_default();
        let DestructScratch {
            ref mut worklist,
            ref mut sink,
        } = *scratch;
        debug_assert!(worklist.is_empty());
        worklist.push(addr);
        while let Some(a) = worklist.pop() {
            let h = as_header(a);
            if let Some(pop) = (*h).vtable.pop_edges {
                pop(h, &mut *sink as *mut EdgeSink);
            }
            ((*h).vtable.dispose)(h);
            self.drop_strong_side(t, a, by);
            for e in sink.direct[Channel::Strong as usize].drain(..) {
                if !by.reaches::<S>(e) {
                    self.batch(Channel::Strong, t, e);
                    continue;
                }
                let eh = as_header(e);
                smr::sanitize::on_decrement(e, Channel::Strong);
                if (*eh).strong.decrement() {
                    // `StrongKind::zeroed` for an owned edge, with the
                    // worklist standing in for the recursion: only graph
                    // children join it; a non-graph child's `Drop`
                    // relinquishes its own edges and could recurse, so it
                    // takes the deferred path. Under hazard pointers the
                    // child waits for the next snapshot instead.
                    if by.awaits_snapshot::<S>() {
                        self.await_snapshot(t, e);
                    } else if (*eh).weak.load() == 1 && (*eh).vtable.pop_edges.is_some() {
                        worklist.push(e);
                    } else {
                        self.retire(Channel::Dispose, t, e);
                    }
                }
            }
            for e in sink.direct[Channel::Weak as usize].drain(..) {
                if by.reaches::<S>(e) {
                    self.decrement::<WeakKind>(t, e, by);
                } else {
                    self.batch(Channel::Weak, t, e);
                }
            }
            for e in sink.deferred.drain(..) {
                self.batch(channel_of(e), t, smr::untagged(e));
            }
        }
        local.destruct_scratch.set(Some(scratch));
    }

    /// Drops the strong side's weak reference of an object
    /// [`destruct`](Self::destruct) has just disposed, freeing the block if
    /// no other weak reference is left — without an RMW when the count
    /// reads 1.
    ///
    /// Why a plain read is enough: the strong count is stuck at zero, so
    /// no strong reference is left to mint a weak one (`downgrade`, a weak
    /// store), and a count of 1 is the strong side's own +1, so no weak
    /// reference exists to clone or store either. No weak snapshot can
    /// upgrade: `destruct`'s rights say no section or hazard that could
    /// hold one is still open. So nothing can raise the count again, and
    /// this thread's reference is the last. The read is at least Acquire
    /// and every count operation is an RMW, so it reads the end of a
    /// release sequence headed by every earlier weak decrement: their
    /// owners' accesses to the block happen before the free. Any other
    /// value takes the decrement, whose sticky zero picks one freer. The
    /// sanitizer sees a decrement either way.
    ///
    /// # Safety
    ///
    /// `destruct`'s, for `addr`, after its dispose; the caller forfeits
    /// the strong side's weak reference.
    #[inline]
    unsafe fn drop_strong_side(&self, t: Tid, addr: usize, by: Rights) {
        if (*as_header(addr)).weak.load() == 1 {
            smr::sanitize::on_decrement(addr, Channel::Weak);
            self.free_block(t, addr);
        } else {
            self.decrement::<WeakKind>(t, addr, by);
        }
    }

    /// Hands one tagged entry to the instance — the single entry into its
    /// retired lists, and so the one place that marks a thread as deferring
    /// disposals and that arms its exit flush, which hands what is left on
    /// its lists to the live threads.
    fn issue(&self, t: Tid, (entry, birth): Entry<S::Birth>) {
        if channel_of(entry) == Channel::Dispose {
            self.locals[t.index()].disposes.set(true);
        }
        self.arm_exit_flush(t);
        self.ar.retire_born(t, entry, birth);
    }

    /// Hazard pointers: parks an object whose strong count this thread
    /// just took to zero until the next snapshot decides it (`cascade`).
    ///
    /// # Safety
    ///
    /// The disposal responsibility for `addr` (strong count zero) is
    /// transferred, and the caller is an eject inside `apply_ready`'s loop,
    /// whose round ends in `cascade`.
    pub(crate) unsafe fn await_snapshot(&self, t: Tid, addr: usize) {
        let local = &self.locals[t.index()];
        let mut zeroed = local.zeroed.take();
        zeroed.push(addr);
        local.zeroed.set(zeroed);
    }

    /// Hazard pointers: destructs what `await_snapshot` parked, one
    /// snapshot per level (`Rights` in `engine.rs`). An object the
    /// snapshot does not name is destructed with [`Rights::Seen`], and
    /// what that zeroes is the next level; one it names takes the dispose
    /// round. Without a snapshot everything takes today's path: a dispose
    /// round for what was zeroed, a destruct that batches its edges for
    /// what a dispose round returned. Returns whether anything was parked.
    fn cascade(&self, t: Tid) -> bool {
        let local = &self.locals[t.index()];
        let mut level = local.zeroed.take();
        if level.is_empty() {
            local.zeroed.set(level);
            return false;
        }
        let mut sigma = local.sigma.take();
        while !level.is_empty() {
            let seen = self.ar.hazard_snapshot(&mut sigma);
            sigma.sort_unstable();
            for &entry in &level {
                let addr = entry & !DISPOSED;
                // Safety: each entry carries a disposal responsibility
                // (`await_snapshot`). `Seen` holds for an entry the
                // snapshot, taken after its zero, does not name; one the
                // dispose round returned is unread whatever it names.
                unsafe {
                    if seen && sigma.binary_search(&addr).is_err() {
                        self.destruct(t, addr, Rights::Seen(&sigma));
                    } else if entry & DISPOSED != 0 {
                        self.destruct(t, addr, Rights::Eject);
                    } else {
                        self.retire(Channel::Dispose, t, addr);
                    }
                }
            }
            // What these destructs zeroed is the next level; the spent
            // buffer goes back to collect the one after.
            level.clear();
            level = local.zeroed.replace(level);
        }
        local.zeroed.set(level);
        local.sigma.set(sigma);
        true
    }

    /// Defers one `ch` operation on `addr` (module docs: a decrement of a
    /// reference a location owned, or a disposal).
    ///
    /// # Safety
    ///
    /// What `ch` defers — one strong reference, one weak reference, or the
    /// disposal responsibility for a zero-strong-count object — is
    /// transferred to the domain.
    pub(crate) unsafe fn retire(&self, ch: Channel, t: Tid, addr: usize) {
        smr::sanitize::on_retire(addr, ch);
        self.issue(t, (tagged(addr, ch), birth_of::<S>(addr)));
        self.collect(t);
    }

    // ------------------------------------------------------------------
    // Per-thread decrement batching
    // ------------------------------------------------------------------

    /// Batched flavour of [`retire`](Self::retire) for the two count
    /// channels: the retire is accumulated in a per-thread buffer and issued
    /// at the next flush point. Deferring the retire to flush time only
    /// *widens* protection: the later retire stamp classifies strictly more
    /// readers as concurrent, so every section that could reach the
    /// reference at unlink time is still waited out.
    ///
    /// # Safety
    ///
    /// One `ch`-counted reference to `addr` is transferred to the domain.
    pub(crate) unsafe fn batch(&self, ch: Channel, t: Tid, addr: usize) {
        // The batch entry *is* a retire whose engine-level issue is merely
        // deferred to the flush; ownership transfers to the domain here.
        smr::sanitize::on_retire(addr, ch);
        // Read the birth now (IBR's; a read of nothing elsewhere), while
        // the displacing operation still has the block's header warm; the
        // flush only copies entries.
        let r = (tagged(addr, ch), birth_of::<S>(addr));
        if !self.arm_exit_flush(t) {
            // The thread is already unregistering: nothing would ever
            // flush a batch entry, so issue the deferral synchronously.
            self.issue(t, r);
            return self.collect(t);
        }
        // Safety: `t` is the calling thread's slot.
        if self.locals[t.index()].pending.push(r) {
            self.flush_batches(t);
        }
    }

    /// Takes slot `from`'s pending batch and either applies it on the spot
    /// or issues it to the instance under slot `t`; `false` if it was
    /// empty. The one apply-if-quiescent-else-retire arm: the owner's flush,
    /// the adoption of a dead slot and the exclusive drain all come here.
    ///
    /// Quiescent fast path (region schemes): every batched entry was
    /// displaced from its shared location *before* it was pushed, so if no
    /// section is active now, no reader can still hold an uncounted
    /// snapshot of it — the whole batch may be applied directly, with an
    /// eject's rights ([`Rights::Eject`]), skipping the retire/scan/eject
    /// round-trip entirely. (A section that opens after the check
    /// revalidates against the live locations, none of which still name
    /// these references.)
    ///
    /// Hazard pointers take no fast path: they issue the batch and scan.
    /// Quiescence could prove no more than a scan does — each entry's own
    /// address unannounced — yet it costs a double collect of every
    /// thread's hazards (`smr::Hp`) where a scan reads each word once, and
    /// under load some hazard is nearly always held. What the scan finds
    /// unannounced comes back through `eject` at once, and what that
    /// zeroes waits for a hazard snapshot taken after the zero (`Rights`).
    ///
    /// Both scan `t`'s retired list here (a region scheme only when
    /// quiescent). A list that gets fewer than a threshold of retires is
    /// otherwise never scanned again: a thread that seeded a structure
    /// under one long guard and then went idle would keep its issued
    /// decrements forever, and with them every node behind the first one
    /// they name.
    ///
    /// # Safety
    ///
    /// `t` is the calling thread's slot, and the caller is `from`'s owner
    /// thread or has exclusive access to it (its owner is dead, or nobody
    /// else is using the domain).
    unsafe fn settle(&self, t: Tid, from: &DomainLocal<S::Birth>) -> bool {
        if from.pending.is_empty() {
            return false;
        }
        // The copy first: applying an entry can batch new ones, which land
        // at index 0 of the now-empty buffer.
        let (entries, n) = from.pending.take();
        let quiescent = S::PROTECTS_REGIONS && self.ar.quiescent();
        for r in &entries[..n] {
            if quiescent {
                // Safety: each entry owes the reference its tag names,
                // transferred at `batch`; quiescence grants the apply
                // rights the eject path would.
                self.apply(t, r.0, Rights::Eject);
            } else {
                // The block is alive: its count still includes the
                // reference the entry owes.
                self.issue(t, *r);
            }
        }
        if quiescent || !S::PROTECTS_REGIONS {
            self.ar.flush(t);
        }
        true
    }

    /// Retires every batched decrement of the calling thread, repeating
    /// until the buffer stays empty (applying a batch can destruct objects
    /// whose displaced edges batch new decrements).
    pub(crate) fn flush_batches(&self, t: Tid) {
        // Safety: `t` is the calling thread's slot.
        while unsafe { self.settle(t, &self.locals[t.index()]) } {
            self.collect(t);
        }
    }

    /// Whether the calling thread has batched decrements not yet retired.
    fn has_pending_batch(&self, t: Tid) -> bool {
        !self.locals[t.index()].pending.is_empty()
    }

    /// Makes sure the calling thread's unregister-time flush is installed
    /// ([`register_thread_flush`](Self::register_thread_flush)); `false`
    /// when the thread is already unregistering and can no longer defer
    /// work.
    #[inline]
    fn arm_exit_flush(&self, t: Tid) -> bool {
        let registered = &self.locals[t.index()].flush_registered;
        let armed = registered.get() || self.register_thread_flush();
        registered.set(armed);
        armed
    }

    /// Installs the calling thread's unregister-time flush (per thread ×
    /// domain); the other flush point, the outermost section exit, is
    /// [`leave`](Self::leave)'s. Returns `false` when the thread is already
    /// unregistering and can no longer defer work.
    fn register_thread_flush(&self) -> bool {
        // Captures a weak handle: the callback must not keep the domain
        // alive, and a dead domain has (provably) nothing left to flush —
        // batch entries pin their blocks, and every block keeps the core
        // from going DEAD.
        let weak = self.weak_self.clone();
        smr::on_thread_exit(Box::new(move |t| {
            let Some(core) = weak.upgrade() else { return };
            {
                let Some(_pin) = core.try_pin_thread(t) else {
                    return;
                };
                core.flush_batches(t);
            }
            // What another thread's section still protects goes to the
            // live threads: the slot's next owner may be a long time
            // coming. Engine code only, after the pin: an entry left on
            // the lists names a block, so the core cannot be torn down
            // under it, and the upgrade keeps the memory.
            core.ar.hand_off(t);
            // The slot is about to be recycled: its next owner is a
            // different thread that must register its own callback.
            core.locals[t.index()].flush_registered.set(false);
        }))
    }

    // ------------------------------------------------------------------
    // Sections
    // ------------------------------------------------------------------

    /// Opens thread `t`'s section.
    #[inline]
    fn enter(&self, t: Tid) {
        self.ar.begin_critical_section(t);
    }

    /// Closes what [`enter`](Self::enter) opened; an outermost exit then
    /// flushes ([`exit_flush`](Self::exit_flush)). Either way it applies
    /// what became ready: leaving a section is where region schemes
    /// (Hyaline in particular) ready new ejects.
    ///
    /// Panic-safe: a section can end while the thread is unwinding (the
    /// RAII guards close it on purpose, so the announcement never pins
    /// other threads' garbage). Flushing and applying ejects execute user
    /// destructors and a second panic would abort the process, so both are
    /// skipped then and run at the next natural flush point: entries pin
    /// their blocks, so nothing is lost, merely deferred.
    #[inline]
    fn leave(&self, t: Tid) {
        let outermost = self.ar.end_critical_section(t);
        if !std::thread::panicking() {
            if outermost {
                self.exit_flush(t);
            }
            self.collect(t);
        }
    }

    /// The outermost section exit's flush: the thread's decrement batch,
    /// then, once the thread has issued a `Dispose` entry, a scan of its
    /// list (the caller applies what the scan readies). The section is
    /// fully over, so what this retires is a fresh retire.
    ///
    /// A dispose entry waits for a scan, and a thread whose list never
    /// reaches the threshold is scanned nowhere else. In a chain, each
    /// entry holds every node behind it: a node is destructed only after
    /// its predecessor, whose destruct gives up the `next` reference to it.
    //
    // Out of line so that `leave` stays small enough to inline into every
    // operation's section: inlined, it took `leave` out of line and
    // `kv_zipf`'s `rc_ebr_p50_ns` read 5 % higher (ten ledger pairs, 2-core
    // x86-64).
    #[inline(never)]
    fn exit_flush(&self, t: Tid) {
        if self.has_pending_batch(t) {
            self.flush_batches(t);
        }
        // Every exit, not only after an issue: an entry the scan finds still
        // protected must be looked at again, and no later retire may come
        // (the tail's predecessor, say, which holds every node behind it).
        // Only threads that defer disposals pay, and an empty list costs no
        // sweep.
        if self.locals[t.index()].disposes.get() {
            self.ar.flush(t);
        }
    }

    /// Runs `f` inside a temporary section of thread `t` — what an
    /// operation invoked without a guard opens for its own duration. The
    /// section is closed by a drop guard, so a panic in `f` unwinds with the
    /// announcement closed. No pin: the caller's borrowed location keeps
    /// the core alive.
    #[inline]
    pub(crate) fn with_cs<R>(&self, t: Tid, f: impl FnOnce() -> R) -> R {
        struct End<'a, S: AcquireRetire>(&'a Domain<S>, Tid);
        impl<S: AcquireRetire> Drop for End<'_, S> {
            fn drop(&mut self) {
                self.0.leave(self.1);
            }
        }
        self.enter(t);
        let _end = End(self, t);
        f()
    }

    // ------------------------------------------------------------------
    // Applying ejected deferred operations
    // ------------------------------------------------------------------

    /// Applies every ready ejected operation.
    ///
    /// Re-entrant calls (triggered by retires issued while destroying
    /// objects) return immediately; the outermost call loops until nothing
    /// is ready, bounding both recursion depth and the amount of
    /// ready-but-unapplied garbage.
    pub(crate) fn collect(&self, t: Tid) {
        // Fast path: nothing is ready — the overwhelmingly common case for
        // the per-retire calls (the ready queue only fills when a scan runs
        // or a section is left). One thread-local peek instead of the
        // re-entrancy bookkeeping and eject loop of `apply_ready`.
        if self.ar.has_ready(t) {
            self.apply_ready(t);
        }
    }

    /// The slow half of [`collect`](Self::collect): ejects unconditionally
    /// and reports how many rounds applied anything (0 when re-entered).
    fn apply_ready(&self, t: Tid) -> usize {
        let local = &self.locals[t.index()];
        if local.applying.get() {
            return 0;
        }
        local.applying.set(true);
        // Reset the flag even if a payload destructor panics: subsequent
        // operations then leak instead of deadlocking collection.
        struct Reset<'a>(&'a Cell<bool>);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.set(false);
            }
        }
        let _reset = Reset(&local.applying);
        let mut applied = 0;
        loop {
            let mut any = false;
            while let Some(entry) = self.ar.eject(t) {
                any = true;
                if !S::PROTECTS_REGIONS && channel_of(entry) == Channel::Dispose {
                    // Safety: the entry carries a disposal; its edges wait
                    // for this round's snapshot.
                    unsafe { self.await_snapshot(t, smr::untagged(entry) | DISPOSED) };
                    continue;
                }
                // Safety: an ejected entry carries what its tag defers,
                // transferred at `retire`/`batch`, and the eject grants the
                // apply rights.
                unsafe { self.apply(t, entry, Rights::Eject) };
            }
            // Hazard pointers: what the ejects zeroed, after the ejects.
            if !S::PROTECTS_REGIONS {
                any |= self.cascade(t);
            }
            if !any {
                break;
            }
            applied += 1;
        }
        applied
    }

    /// Flushes the instance and applies everything that becomes ready,
    /// repeating until a round makes no progress. Recursive teardown
    /// of linked structures completes here (each round releases one more
    /// "level").
    ///
    /// Intended for tests, benchmark phase boundaries and orderly shutdown;
    /// concurrent use is safe, but entries protected by other threads'
    /// critical sections or guards necessarily remain deferred.
    pub fn process_deferred(&self, t: Tid) {
        // Under the thread's pin, as a guard runs its collection: a
        // destruct cascade drops one location per edge, and each drop
        // outside a pin would take and give back the shared liveness word.
        // Safety of the pin: every caller reaches `&Domain` through a
        // handle, a guard, a live location or an already pinned thread.
        let _pin = self.pin_thread(t);
        loop {
            self.flush_batches(t);
            self.ar.flush(t);
            if self.apply_ready(t) == 0 && !self.has_pending_batch(t) {
                break;
            }
        }
    }

    /// Drains every retired record from the instance — protected or not —
    /// and applies the deferred operations, repeating to a fixpoint.
    ///
    /// # Safety
    ///
    /// No other thread may be using this domain (no live pointers on other
    /// threads, no active critical sections).
    pub unsafe fn drain_and_apply_all(&self, t: Tid) {
        loop {
            // Exclusive access: pending decrement batches on *every* slot
            // (including slots of exited threads whose flush callback
            // never ran) are settled from here. Whatever a stranded
            // announcement makes `settle` issue instead of apply, the drain
            // below takes straight back out.
            let mut batched = false;
            for local in self.locals.iter() {
                batched |= self.settle(t, local);
            }
            let drained = self.ar.drain_all();
            if !batched && drained.is_empty() {
                break;
            }
            for entry in drained {
                self.apply(t, entry, Rights::Unread);
            }
            // Applying may have retired more (possibly on other slots via
            // recycled Tids); loop until nothing is left anywhere.
            self.collect(t);
        }
    }

    /// Recovers the per-thread state a dead thread stranded in this domain:
    /// force-closes its announcements (migrating its retired lists into the
    /// calling thread's), settles its orphaned
    /// pending decrement batches under the *calling* thread's slot — the
    /// `on_thread_exit` flush that would normally retire them never ran —
    /// and resets its slot-local flags so the slot's next owner starts
    /// clean.
    ///
    /// Invoked only through the registry reaper chain
    /// ([`smr::reclaim_orphaned_slot`]).
    ///
    /// # Safety
    ///
    /// The thread owning slot `dead` has terminated (or will provably never
    /// touch this domain again), its death happened-before this call (e.g.
    /// via `join` or the `Acquire` load in [`smr::slot_abandoned`]), and no
    /// other thread concurrently reclaims the same slot. `dead` must not be
    /// the calling thread's own slot.
    pub(crate) unsafe fn reclaim_orphaned_slot(&self, dead: Tid) {
        let t = smr::current_tid();
        assert_ne!(
            t.index(),
            dead.index(),
            "a thread cannot reclaim its own slot"
        );
        // Force-close the dead thread's section and adopt its retired list.
        self.ar.reclaim_slot(dead, t);
        // Exclusive access to the dead slot's cells follows from the safety
        // contract.
        let local = &self.locals[dead.index()];
        self.settle(t, local);
        // Reset slot-local state for the slot's next owner: the unregister
        // callback that would have cleared `flush_registered` never ran,
        // the owner may have died mid-collection with `applying` set, and
        // a guard it died holding left its depth raised — and with it the
        // thread's pin on the liveness word, given back here (the caller's
        // own reference keeps the count above zero).
        local.flush_registered.set(false);
        local.applying.set(false);
        if local.depth.replace(0) > 0 {
            // Safety: a raised depth is one pin, and its owner is dead.
            Self::release(NonNull::from(self));
        }
        self.collect(t);
    }
}

impl<S: AcquireRetire> Drop for Domain<S> {
    fn drop(&mut self) {
        // Exclusive access (`&mut self`): the word is DEAD — a sole pin
        // read `live == 0` — and the last `Weak` upgrade is gone. Batched
        // and retired entries pin their blocks, so no block allocated under
        // this domain exists and the drains are belt-and-braces no-ops;
        // they still run so a future scheme that retires domain-less
        // records cannot leak them.
        let t = smr::current_tid();
        // Safety: exclusive access; drains pending batches on every slot
        // before applying the retired lists. Then every lane, an exited
        // thread's too, gives its parked blocks back.
        unsafe {
            self.drain_and_apply_all(t);
            for local in self.locals.iter() {
                local.free.release();
            }
        }
    }
}

impl<S: AcquireRetire> fmt::Debug for Domain<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("scheme", &S::scheme_name())
            .field("allocated", &self.allocated())
            .field("freed", &self.freed())
            .finish()
    }
}

/// RAII critical section (the paper's `critical_section_guard`), obtained
/// from [`DomainRef::cs`].
///
/// All racy atomic-pointer operations and every snapshot lifetime must be
/// contained in one (§3.4). Pointer operations that are invoked without an
/// explicit guard open one internally for their own duration; holding a
/// guard across an operation sequence amortizes the scheme's per-section
/// fence. One guard covers strong and weak reads alike: the domain runs
/// one acquire-retire instance for every deferred operation (module docs).
///
/// The guard holds one unit of its thread's pin on the domain (module
/// docs), so it may outlive the [`DomainRef`] it was opened from, and
/// everything done under it finds the thread already pinned. It only
/// protects operations on locations bound to *that same domain* —
/// [`covers`](CsGuard::covers) checks identity, and the snapshot
/// operations assert it in debug builds.
///
/// Not `Send`: the guard encapsulates per-thread announcements.
///
/// # Examples
///
/// One guard serves strong and weak snapshots:
///
/// ```
/// use cdrc::{AtomicSharedPtr, AtomicWeakPtr, DomainRef, EbrScheme, SharedPtr};
///
/// let d: DomainRef<EbrScheme> = DomainRef::new();
/// let slot = AtomicSharedPtr::new_in(SharedPtr::new_in(1u64, &d), &d);
/// let back: AtomicWeakPtr<u64, EbrScheme> = AtomicWeakPtr::null_in(&d);
/// let two = SharedPtr::new_in(2u64, &d);
/// back.store(two.downgrade());
/// let cs = d.cs();
/// let one = slot.get_snapshot(&cs);
/// assert_eq!(one.as_ref(), Some(&1));
/// assert_eq!(back.get_snapshot(&cs).as_ref(), Some(&2));
/// let displaced = slot.compare_exchange_with(&cs, one.tagged(), &two);
/// assert_eq!(displaced.expect("uncontended").as_ref(), Some(&1));
/// assert_eq!(slot.get_snapshot(&cs).as_ref(), Some(&2));
/// ```
///
/// It does not cross threads:
///
/// ```compile_fail,E0277
/// fn send<T: Send>() {}
/// send::<cdrc::CsGuard<cdrc::EbrScheme>>();
/// ```
pub struct CsGuard<S: AcquireRetire> {
    domain: NonNull<Domain<S>>,
    t: Tid,
    _not_send: PhantomData<*mut ()>,
}

impl<S: AcquireRetire> CsGuard<S> {
    /// The domain this section protects.
    #[inline]
    pub fn domain(&self) -> &Domain<S> {
        // Safety: the guard's share of the thread's pin keeps the core.
        unsafe { self.domain.as_ref() }
    }

    /// Whether this guard's section protects reads of locations bound to
    /// `domain` — i.e. both refer to the *same domain instance* (pointer
    /// equality on the handle). A guard over a different domain of the same
    /// scheme provides no protection at all; structure operations taking a
    /// caller-provided guard assert this in debug builds.
    #[inline]
    pub fn covers(&self, domain: &DomainRef<S>) -> bool {
        self.domain == domain.as_raw()
    }

    #[inline]
    pub(crate) fn tid(&self) -> Tid {
        self.t
    }
}

impl<S: AcquireRetire> Drop for CsGuard<S> {
    fn drop(&mut self) {
        self.domain().leave(self.t);
        // Last: the section-exit flush and the collection above ran at the
        // guard's own depth.
        // Safety: the guard is one unit of its (creating, `!Send`) thread's
        // depth, and closes once.
        unsafe { Domain::pin_exit(self.domain, self.t) };
    }
}

impl<S: AcquireRetire> fmt::Debug for CsGuard<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsGuard").field("tid", &self.t).finish()
    }
}

/// Marker: a borrowed handle that guarantees the referent's strong count is
/// at least one for the duration of the borrow, enabling plain fetch-add
/// increments (no increment-if-not-zero needed).
///
/// Implemented by [`SharedPtr`](crate::SharedPtr) and
/// [`SnapshotPtr`](crate::SnapshotPtr).
pub trait StrongRef<T> {
    /// The untagged control-block address, or 0 for null.
    fn addr(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::as_counted;
    use crate::{AtomicSharedPtr, EbrScheme, SharedPtr};

    /// The thread-unregister callback must flush a dying thread's pending
    /// decrement batch into the deferred machinery: after the thread joins,
    /// the dead slot's buffer is empty — its entries sit in the slot's
    /// retired lists, where a successor thread reusing the slot (or an
    /// exclusive drain) applies them through ordinary collection.
    #[test]
    fn unregister_flushes_pending_batch() {
        let d: DomainRef<EbrScheme> = DomainRef::new();
        let worker_t = {
            let d = d.clone();
            std::thread::spawn(move || {
                let t = smr::current_tid();
                let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::null_in(&d);
                for i in 0..8 {
                    slot.store(SharedPtr::new_in(i, &d));
                }
                assert!(d.has_pending_batch(t), "displaced stores should batch");
                t
            })
            .join()
            .unwrap()
        };
        assert!(
            !d.has_pending_batch(worker_t),
            "exit callback did not flush the dead slot's batch"
        );
    }

    // ------------------------------------------------------------------
    // The pin rule: the core is freed exactly when the last reference of
    // any kind goes, whichever kind that is and whichever thread drops it.
    // A `Weak` on the core's allocation is the probe: it stops upgrading
    // when the DEAD winner gives the anchor count back.
    // ------------------------------------------------------------------

    type D = DomainRef<EbrScheme>;

    /// Serializes the tests below: one of them runs the process-wide
    /// reaper chain, which briefly upgrades and pins *every* live domain —
    /// visible to a sibling as a stamp it did not expect or a probe that
    /// upgrades a moment too long.
    fn pin_tests() -> std::sync::MutexGuard<'static, ()> {
        static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn probed() -> (D, Weak<Domain<EbrScheme>>) {
        let d: D = DomainRef::new();
        let probe = d.weak_self.clone();
        (d, probe)
    }

    fn alive(probe: &Weak<Domain<EbrScheme>>) -> bool {
        probe.upgrade().is_some()
    }

    #[test]
    fn core_is_freed_by_the_pointer_that_outlives_the_handle() {
        let _serial = pin_tests();
        let (d, probe) = probed();
        let p = SharedPtr::new_in(7u64, &d);
        let w = p.downgrade();
        drop(d);
        assert!(alive(&probe), "a live block keeps the core");
        let pins = probe.upgrade().expect("core alive").pin_word().0;
        assert_eq!(pins, 0, "orphaned: no pin is left");
        drop(p);
        assert!(alive(&probe), "the weak reference still holds the block");
        drop(w);
        assert!(!alive(&probe), "last passive reference gone: core freed");
    }

    #[test]
    fn core_is_freed_by_the_handle_that_outlives_the_pointer() {
        let _serial = pin_tests();
        let (d, probe) = probed();
        let p = SharedPtr::new_in(7u64, &d);
        let q = p.clone();
        drop(p);
        drop(q);
        assert!(alive(&probe), "the handle is a pin");
        let d2 = d.clone();
        drop(d);
        assert!(alive(&probe));
        drop(d2);
        assert!(!alive(&probe), "last pin with nothing live: core freed");
    }

    #[test]
    fn core_is_freed_by_a_standalone_location() {
        let _serial = pin_tests();
        let (d, probe) = probed();
        let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::null_in(&d);
        drop(d);
        assert!(alive(&probe), "a location is a counted passive reference");
        // Guard-free operations through the borrowed location need no pin
        // and no handle; its domain view allocates and opens sections.
        slot.store(SharedPtr::new_in(1, slot.domain()));
        slot.store(SharedPtr::new_in(2, slot.domain()));
        assert_eq!(slot.load().as_ref(), Some(&2));
        {
            let cs = slot.domain().cs();
            assert_eq!(slot.get_snapshot(&cs).as_ref(), Some(&2));
        }
        assert!(alive(&probe));
        drop(slot);
        assert!(!alive(&probe), "the location's drop tears the domain down");
    }

    #[test]
    fn core_is_freed_when_another_thread_does_the_last_drop() {
        let _serial = pin_tests();
        // Pointer last, on another thread.
        let (d, probe) = probed();
        let p = SharedPtr::new_in(7u64, &d);
        drop(d);
        std::thread::spawn(move || drop(p)).join().unwrap();
        assert!(!alive(&probe));
        // Handle last, on another thread.
        let (d, probe) = probed();
        let p = SharedPtr::new_in(7u64, &d);
        let d2 = d.clone();
        drop(d);
        drop(p);
        // The zeroing drop deferred the disposal on *this* thread's list,
        // which an orphan flush on another thread cannot reach.
        d2.process_deferred(smr::current_tid());
        assert!(alive(&probe));
        std::thread::spawn(move || drop(d2)).join().unwrap();
        assert!(!alive(&probe));
        // Guard last: it holds the thread's pin past the handle.
        let (d, probe) = probed();
        let cs = d.cs();
        drop(d);
        assert!(alive(&probe));
        drop(cs);
        assert!(!alive(&probe));
    }

    #[test]
    fn nothing_under_a_guard_touches_the_liveness_word() {
        let _serial = pin_tests();
        let (d, _probe) = probed();
        let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::null_in(&d);
        let (pins0, stamp0) = d.pin_word();
        let cs = d.cs();
        assert_eq!(d.pin_word(), (pins0 + 1, stamp0 + 1), "the guard's pin");
        for i in 0..1_000u64 {
            // Edge creation, allocation, displaced drops, a failed CAS's
            // destruct, a nested guard, a zeroing drop, edge disposal.
            let edge: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::null_in(&d);
            slot.store(SharedPtr::new_in(i, &d));
            let displaced = slot.swap(SharedPtr::new_in(i, &d));
            drop(displaced);
            let stale = crate::TaggedPtr::null();
            drop(slot.compare_exchange(stale, SharedPtr::new_in(i, &d), 0));
            let inner = d.cs();
            drop(slot.get_snapshot(&inner).to_shared());
            drop(inner);
            drop(edge);
        }
        assert_eq!(d.pin_word(), (pins0 + 1, stamp0 + 1));
        drop(cs);
        assert_eq!(d.pin_word(), (pins0, stamp0 + 1), "no other pin was taken");
    }

    #[test]
    fn reclaiming_a_dead_slot_gives_back_its_pin() {
        let _serial = pin_tests();
        let (d, probe) = probed();
        let dead = std::thread::scope(|s| {
            s.spawn(|| {
                std::mem::forget(d.cs());
                smr::abandon_current_slot()
            })
            .join()
            .unwrap()
        });
        assert_eq!(d.pin_word().0, 2, "handle + the dead thread's pin");
        // Safety: the victim was joined.
        assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
        assert_eq!(d.pin_word().0, 1, "the stranded pin was released");
        assert_eq!(d.locals[dead.index()].depth.get(), 0);
        drop(d);
        assert!(
            !alive(&probe),
            "the dead thread's guard no longer leaks the core"
        );
    }

    /// A thread that only *reads* under a section still ends up owning
    /// deferred work: under Hyaline the retirer hands its batch to every
    /// active section and the last leaver takes it home. That thread never
    /// retired anything itself, and its collection must apply what it
    /// claimed all the same.
    fn reader_only_thread_applies_what_it_claims<S: Scheme>() {
        use std::sync::mpsc::channel;
        let d: DomainRef<S> = DomainRef::new();
        let slot: crate::AtomicWeakPtr<u64, S> = crate::AtomicWeakPtr::null_in(&d);
        let p = SharedPtr::new_in(1u64, &d);
        slot.store(p.downgrade());
        let (entered_tx, entered_rx) = channel();
        let (leave_tx, leave_rx) = channel::<()>();
        std::thread::scope(|s| {
            let d = &d;
            s.spawn(move || {
                let cs = d.cs();
                entered_tx.send(()).unwrap();
                leave_rx.recv().unwrap();
                // Leaving the section is all the reader does: whatever it
                // takes home, its guard's own collection applies.
                drop(cs);
            });
            entered_rx.recv().unwrap();
            // Displace the weak reference and zero the strong count while
            // the reader's section is open: both deferrals wait on it.
            slot.store(crate::WeakPtr::null());
            drop(p);
            d.process_deferred(smr::current_tid());
            leave_tx.send(()).unwrap();
        });
        d.process_deferred(smr::current_tid());
        assert_eq!(
            d.in_flight(),
            0,
            "{}: deferred work stranded on the reader",
            S::scheme_name()
        );
    }

    #[test]
    fn reader_only_thread_applies_what_it_claims_all_schemes() {
        reader_only_thread_applies_what_it_claims::<EbrScheme>();
        reader_only_thread_applies_what_it_claims::<crate::IbrScheme>();
        reader_only_thread_applies_what_it_claims::<crate::HpScheme>();
        reader_only_thread_applies_what_it_claims::<crate::HyalineScheme>();
    }

    /// A dispose entry that its first scan finds protected is scanned again
    /// at the thread's next section exit, though nothing else is retired in
    /// between: in the weak queue one such entry parks every node behind
    /// it. (Under HP an open section protects nothing, so the first scan
    /// already disposes it.)
    fn a_protected_dispose_entry_is_rescanned_at_the_next_exit<S: Scheme>() {
        use crate::sync::atomic::{AtomicBool, Ordering::SeqCst};
        use std::sync::mpsc::channel;
        struct Flag(Arc<AtomicBool>);
        impl Drop for Flag {
            fn drop(&mut self) {
                self.0.store(true, SeqCst);
            }
        }
        let d: DomainRef<S> = DomainRef::new();
        let disposed = Arc::new(AtomicBool::new(false));
        let p = SharedPtr::new_in(Flag(Arc::clone(&disposed)), &d);
        let observer = p.downgrade();
        let (entered_tx, entered_rx) = channel();
        let (leave_tx, leave_rx) = channel::<()>();
        std::thread::scope(|s| {
            let d = &d;
            s.spawn(move || {
                let cs = d.cs();
                entered_tx.send(()).unwrap();
                leave_rx.recv().unwrap();
                drop(cs);
            });
            entered_rx.recv().unwrap();
            // The weak observer sends the strong zero to `Dispose`; the
            // exit scan finds the other section still open.
            drop(d.cs());
            drop(p);
            drop(d.cs());
            assert!(!disposed.load(SeqCst));
            leave_tx.send(()).unwrap();
        });
        drop(d.cs());
        assert!(
            disposed.load(SeqCst),
            "{}: the dispose entry waited for a later retire",
            S::scheme_name()
        );
        drop(observer);
        d.process_deferred(smr::current_tid());
    }

    #[test]
    fn a_protected_dispose_entry_is_rescanned_at_the_next_exit_region_schemes() {
        a_protected_dispose_entry_is_rescanned_at_the_next_exit::<EbrScheme>();
        a_protected_dispose_entry_is_rescanned_at_the_next_exit::<crate::IbrScheme>();
        a_protected_dispose_entry_is_rescanned_at_the_next_exit::<crate::HyalineScheme>();
    }

    /// Who settles a pending batch: its owner's flush, the thread adopting
    /// a dead slot, or the exclusive drain.
    #[derive(Clone, Copy, Debug)]
    enum Settler {
        Owner,
        Adopter,
        Drain,
    }

    /// Loads the same mixed batch — `N` displaced strong and `N` displaced
    /// weak references, nothing else left alive — and has `who` settle it,
    /// with or without a section stranded open by a dead thread (so both
    /// halves of `settle` run: apply on the spot, or issue to the
    /// instance). Returns `(allocated, freed)` once everything is settled.
    fn settle_batch<S: Scheme>(who: Settler, stranded: bool) -> (u64, u64) {
        const N: u64 = 8;
        let _serial = pin_tests();
        let d: DomainRef<S> = DomainRef::new();
        let t = smr::current_tid();
        let die = |f: &(dyn Fn() + Sync)| {
            std::thread::scope(|s| {
                s.spawn(|| {
                    f();
                    smr::abandon_current_slot()
                })
                .join()
                .unwrap()
            })
        };
        let section = stranded.then(|| die(&|| std::mem::forget(d.cs())));
        let load = || {
            let strong: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
            let weak: crate::AtomicWeakPtr<u64, S> = crate::AtomicWeakPtr::null_in(&d);
            for i in 0..N {
                let p = SharedPtr::new_in(i, &d);
                weak.store(p.downgrade());
                strong.store(p);
            }
            // The locations' drops batch the last two references.
            drop((strong, weak));
            let pending = &d.locals[smr::current_tid().index()].pending;
            assert_eq!(pending.len.get(), 2 * N as usize);
        };
        match who {
            Settler::Owner => {
                load();
                d.flush_batches(t);
            }
            Settler::Adopter => {
                let dead = die(&load);
                // Safety: the loader was joined.
                assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
            }
            Settler::Drain => {
                load();
                // Safety: every other thread that used the domain is dead.
                unsafe { d.drain_and_apply_all(t) };
            }
        }
        assert!(!d.has_pending_batch(t));
        if let Some(dead) = section {
            // Safety: joined.
            assert!(unsafe { smr::reclaim_orphaned_slot(dead) });
        }
        d.process_deferred(t);
        (d.allocated(), d.freed())
    }

    #[test]
    fn a_batch_settles_alike_whoever_settles_it_all_schemes() {
        fn run<S: Scheme>() {
            for stranded in [false, true] {
                for who in [Settler::Owner, Settler::Adopter, Settler::Drain] {
                    assert_eq!(
                        settle_batch::<S>(who, stranded),
                        (8, 8),
                        "{} {who:?} stranded={stranded}",
                        S::scheme_name()
                    );
                }
            }
        }
        run::<EbrScheme>();
        run::<crate::IbrScheme>();
        run::<crate::HpScheme>();
        run::<crate::HyalineScheme>();
    }

    // ------------------------------------------------------------------
    // Free lists: a freed block is parked on its thread's lane of its
    // domain, for that thread's next block of the same layout.
    // ------------------------------------------------------------------

    /// Disposes and frees a block `DomainRef::allocate` made, as an eject
    /// would.
    ///
    /// # Safety
    ///
    /// `addr` is a live block of `d` nothing else references.
    unsafe fn dispose_and_free(d: &D, t: Tid, addr: usize) {
        let h = as_header(addr);
        ((*h).vtable.dispose)(h);
        d.free_block(t, addr);
    }

    /// The list that parks blocks of payload `T` under EBR.
    fn parked<T>(d: &D, t: Tid) -> &FreeList {
        let layout = Layout::new::<Block<T, EbrScheme>>();
        d.locals[t.index()]
            .free
            .list(layout)
            .expect("a parked size")
    }

    #[test]
    fn a_freed_block_is_its_threads_next_block_of_that_layout() {
        let d: D = DomainRef::new();
        let t = smr::current_tid();
        let a = d.allocate(t, 1u64) as usize;
        let b = d.allocate(t, 2u64) as usize;
        // Safety: fresh blocks, referenced by nothing.
        unsafe {
            dispose_and_free(&d, t, a);
            dispose_and_free(&d, t, b);
        }
        assert_eq!(parked::<u64>(&d, t).len.get(), 2);
        // Last in, first out.
        let c = d.allocate(t, 3u64) as usize;
        let e = d.allocate(t, 4u64) as usize;
        assert_eq!((c, e), (b, a));
        // Safety: as above; the payloads read back are the new ones.
        unsafe {
            assert_eq!(
                (*as_counted::<u64, EbrScheme>(c)).value.assume_init_read(),
                3
            );
            dispose_and_free(&d, t, c);
            dispose_and_free(&d, t, e);
        }
        assert_eq!((d.allocated(), d.freed(), d.in_flight()), (4, 4, 0));
    }

    #[test]
    fn a_parked_block_goes_to_no_other_layout_or_domain() {
        let d: D = DomainRef::new();
        let other: D = DomainRef::new();
        let t = smr::current_tid();
        let a = d.allocate(t, 1u64) as usize;
        // Safety: a fresh block, referenced by nothing.
        unsafe { dispose_and_free(&d, t, a) };
        // The parked block stays out of the allocator's hands, so a fresh
        // block of any kind has another address.
        let wider = d.allocate(t, [1u64, 2]) as usize;
        let elsewhere = other.allocate(t, 1u64) as usize;
        assert_ne!(wider, a, "a block of another layout");
        assert_ne!(elsewhere, a, "a block of another domain");
        assert_eq!(parked::<u64>(&d, t).len.get(), 1);
        assert_eq!(d.allocate(t, 1u64) as usize, a);
        // Safety: as above.
        unsafe {
            dispose_and_free(&d, t, a);
            dispose_and_free(&d, t, wider);
            dispose_and_free(&other, t, elsewhere);
        }
        // Over-aligned and oversized blocks have no list.
        #[repr(align(16))]
        struct Wide(#[allow(dead_code)] u64);
        let free = &d.locals[t.index()].free;
        assert!(free.list(Layout::new::<Block<Wide, EbrScheme>>()).is_none());
        assert!(free
            .list(Layout::new::<Block<[u64; 14], EbrScheme>>())
            .is_none());
        assert!(free
            .list(Layout::new::<Block<[u64; 13], EbrScheme>>())
            .is_some());
    }

    #[test]
    fn a_lane_parks_at_most_the_cap() {
        let d: D = DomainRef::new();
        let t = smr::current_tid();
        let n = POOL_CAP as usize + 10;
        let blocks: Vec<usize> = (0..n).map(|i| d.allocate(t, i) as usize).collect();
        for &b in &blocks {
            // Safety: fresh blocks, referenced by nothing.
            unsafe { dispose_and_free(&d, t, b) };
        }
        assert_eq!(parked::<usize>(&d, t).len.get(), POOL_CAP);
        assert_eq!((d.allocated(), d.freed()), (n as u64, n as u64));
    }

    #[test]
    fn location_and_header_sizes() {
        use std::mem::size_of;
        let loc = size_of::<AtomicSharedPtr<u64, EbrScheme>>();
        let weak_loc = size_of::<crate::AtomicWeakPtr<u64, EbrScheme>>();
        println!("AtomicSharedPtr {loc} B, AtomicWeakPtr {weak_loc} B");
        assert!(
            loc <= 16 && weak_loc <= 16,
            "a location is a word and a domain"
        );
        // Two 32-bit counts, the domain and the vtable; a birth word only
        // where the scheme reads it (IBR). The `counted` module docs give
        // the table: a change here moves every node's malloc size class.
        fn header<S: AcquireRetire>() -> usize {
            size_of::<crate::counted::Header<S::Birth>>()
        }
        let headers = [
            header::<EbrScheme>(),
            header::<crate::HpScheme>(),
            header::<crate::HyalineScheme>(),
            header::<crate::IbrScheme>(),
        ];
        println!("Header under EBR, HP, Hyaline, IBR: {headers:?} B");
        assert_eq!(headers, [24, 24, 24, 32]);
        // A batched decrement stores the block and the scheme's birth.
        fn entry<S: AcquireRetire>() -> usize {
            size_of::<Entry<S::Birth>>()
        }
        assert_eq!(
            [
                entry::<EbrScheme>(),
                entry::<crate::HpScheme>(),
                entry::<crate::HyalineScheme>(),
                entry::<crate::IbrScheme>()
            ],
            [8, 8, 8, 16]
        );
        assert_eq!(size_of::<SharedPtr<u64, EbrScheme>>(), 8);
        // One more word and the guard is returned through memory.
        assert_eq!(size_of::<CsGuard<EbrScheme>>(), 2 * size_of::<usize>());
        // A snapshot is its word, its hold and a reference to its guard:
        // three words, four under HP, whose hold names a hazard slot.
        let snaps = [
            size_of::<crate::SnapshotPtr<'static, u64, EbrScheme>>(),
            size_of::<crate::WeakSnapshotPtr<'static, u64, EbrScheme>>(),
            size_of::<crate::SnapshotPtr<'static, u64, crate::HpScheme>>(),
            size_of::<crate::WeakSnapshotPtr<'static, u64, crate::HpScheme>>(),
        ];
        println!("SnapshotPtr, WeakSnapshotPtr under EBR, then HP: {snaps:?} B");
        let w = size_of::<usize>();
        assert_eq!(snaps, [3 * w, 3 * w, 4 * w, 4 * w]);
    }
}
