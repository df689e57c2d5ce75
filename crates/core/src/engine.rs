//! What a reference *kind* is, and the untyped engine generic over it.
//!
//! # A kind is …
//!
//! … the answer to three questions about one reference to a control block
//! (§4.4, Fig. 8–9: weak pointers are the strong protocol run again on a
//! second count):
//!
//! * **which count it holds** — [`RefKind::count`]: `strong` or `weak` in
//!   the block's header;
//! * **which deferred operation gives it up** — [`RefKind::CHANNEL`], the
//!   tag its retired entries carry on the domain's one acquire-retire
//!   instance (`domain.rs`);
//! * **what taking that count to zero obliges** — [`RefKind::zeroed`]:
//!   dispose the payload (strong) or free the block (weak).
//!
//! [`StrongKind`] and [`WeakKind`] are the two answers, given here and
//! nowhere else. Everything above this module is generic over the kind:
//! one owned pointer, one atomic location, one snapshot (`ptr.rs`), one
//! retire / batch / apply path dispatched on the tag (`domain.rs`), one
//! edge collector (`counted.rs`). The `strong.rs` / `weak.rs` modules hold
//! only what the paper makes different.
//!
//! Everything here is *untyped* — words, addresses, tag bits. The pointer
//! modules add the payload type; this module owns the concurrency protocol:
//!
//! * every install path checks the incoming block against the location's
//!   domain ([`check_same_domain`]);
//! * displaced references are either retired under the kind's tag (store)
//!   or handed to the caller as *displaced-class* ownership (swap /
//!   successful CAS) — see [`DISPLACED`];
//! * failed CASes return the witnessed current word so retry loops never
//!   re-read the location;
//! * a CAS moves the caller's own reference in: the location owns its
//!   reference the moment the CAS lands (§3.4 / Fig. 9 ordering), and a
//!   failed attempt leaves the caller's reference where it was.
//!
//! # Displaced-class references
//!
//! A reference that a shared location owned may only be relinquished through
//! the domain's deferred machinery: a concurrent reader that already loaded
//! the word may still be mid-`load_and_increment` (or holding a count-free
//! snapshot), and only the acquire-retire deferral orders the decrement
//! after every such reader. Swap and a successful CAS *hand the displaced
//! value back* — so the owned pointer records, in an unused low bit of its
//! single word ([`DISPLACED`]), that this particular reference is
//! location-class: its drop ([`relinquish`]) defers the decrement exactly as
//! the location would have, while every other operation (clone, deref,
//! re-install into a location) is unaffected. Transferring the reference
//! back into an atomic location erases the bit — locations always retire.
//!
//! # Linking: a location-owned reference that moves to another location
//!
//! [`RcWord::link`] installs an *unshared* node — strong count 1, weak
//! count 1, not displaced-class: no other reference of either kind, so no
//! other thread can reach it — in place of `expected`, after writing
//! `expected`'s address into a null edge of that node. On success the
//! location's reference to `expected` is the edge's: nothing is
//! incremented, and no decrement is batched. Two facts make that sound:
//!
//! * Nobody reads the edge before the CAS publishes the node. No reference
//!   to it exists but the caller's, and the CAS's Release half carries the
//!   edge's plain store to every reader that loads the node. A failed CAS
//!   published nothing, so the edge is reset to null unseen and the node
//!   goes back to the caller as it came.
//! * The reference stays location-owned. A reader that loaded `expected`
//!   from the old location may still be mid-increment or holding a
//!   count-free snapshot of it; that is why a displaced reference must be
//!   given up through the deferred machinery. Here it is not given up: the
//!   edge owns it now, and the edge, like every location, defers whatever
//!   decrement ends it (a store, its node's destruction, or the displaced
//!   pointer an unlinking CAS hands out).

use crate::sync::atomic::{AtomicUsize, Ordering};
use std::marker::PhantomData;
use std::ptr::NonNull;

use smr::sanitize::Channel;
use smr::{untagged, AcquireRetire, Tid};
use sticky::{Counter, StickyCounter};

use crate::counted::{self, as_header};
use crate::domain::{check_same_domain, domain_of, CsGuard, Domain, DomainRef, Scheme};

/// Low bit set in the *owned pointer's* private word (never in an atomic
/// location's word) to mark a displaced-class reference: one whose
/// relinquish must be deferred because it was location-owned when handed
/// out. Distinct namespace from [`smr::TAG_MASK`]: owned pointers store
/// untagged block addresses, so bit 0 is free.
pub(crate) const DISPLACED: usize = 0b1;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::StrongKind {}
    impl Sealed for super::WeakKind {}
}

/// One flavour of reference — [`StrongKind`] or [`WeakKind`] — as the
/// pointer family's third type parameter. Sealed; see the `engine` module
/// docs for what the items answer.
pub trait RefKind: sealed::Sealed + 'static {
    /// The channel: the count, and the tag of its deferred decrement.
    #[doc(hidden)]
    const CHANNEL: Channel;

    /// The header count a reference of this kind holds.
    ///
    /// # Safety
    ///
    /// `addr` is a control block that stays allocated for `'a`.
    #[doc(hidden)]
    unsafe fn count<'a>(addr: usize) -> &'a StickyCounter;

    /// Takes one reference of this kind on a live block (header-only).
    ///
    /// # Safety
    ///
    /// The caller holds a borrow on `addr` (directly or via protection)
    /// under which this kind's count is nonzero.
    #[doc(hidden)]
    #[inline(always)]
    unsafe fn incr(addr: usize) {
        let ok = Self::count(addr).increment_if_not_zero();
        debug_assert!(ok, "increment of a zero count: protection bug");
    }

    /// What a decrement that took this kind's count to zero obliges.
    /// `by` says who decremented, and so what is known about readers.
    ///
    /// # Safety
    ///
    /// The caller's decrement of `addr`'s count returned zero, and the
    /// caller holds the domain some other way than through the block.
    #[doc(hidden)]
    #[allow(private_interfaces)] // sealed: only this crate implements or calls it
    unsafe fn zeroed<S: AcquireRetire>(d: &Domain<S>, t: Tid, addr: usize, by: Rights);
}

/// Who takes a strong count to zero, and so what is known about the threads
/// that may still read the object or, through it, its out-edges.
///
/// # Hazard pointers: destructing past a snapshot
///
/// Under HP an eject proves only that nobody protects the one address it
/// names, so an object an eject zeroes is not destructed there. It waits
/// for a hazard snapshot Σ ([`AcquireRetire::hazard_snapshot`]) that the
/// domain takes *after* the zero, and what Σ does not name is destructed
/// on the spot with [`Rights::Seen`]: its direct edges that Σ does not name
/// are decremented on the spot too, and an edge that reaches zero waits
/// for the next snapshot. What Σ names takes the deferred path, as before.
/// Why this is sound, for X zeroed before Σ's fence and not in Σ:
///
/// * No reader can use a hazard on X. Every location that named X owned a
///   count on it, so each was unlinked before X's zero. A reader that
///   published X after Σ's fence validates against a location that no
///   longer names X and retries. One that published it before still held
///   it at Σ's instant (then X ∈ Σ) or had let it go. A strong hazard on
///   X is gone even sooner: the decrement of the location it was
///   validated through was applied past a scan or a snapshot that saw it.
/// * No weak snapshot of X is readable. One taken before Σ's fence holds
///   a hazard on X, which Σ names, as it names a strong one. One taken
///   after finds the strong count zero, because it reads the count after
///   its own announcement fence, and is null.
/// * An edge Y of X that Σ does not name is read by nobody through X. A
///   reader that reached Y through X published Y while it still held X,
///   that is, before X's zero and so before Σ's fence. It cleared X after
///   publishing Y, so if Σ does not show X it shows Y, or the reader let Y
///   go too. Every other path to Y is a count on Y: the decrement on the
///   spot reaches zero only once all of them are gone. Readers are
///   independent here (snapshots do not cross threads), which is why an
///   instant per thread is enough.
///
/// The snapshot must come after the zero. One taken before it can miss a
/// reader that reaches X through another location, or through an owned
/// reference it made from a snapshot, walks on to an edge of X and lets go
/// of X, all before the decrement that zeroes X: the zero proves those
/// paths gone only from the moment it happens. So a chain is freed one
/// snapshot per link, and one snapshot per round when nothing links what a
/// round zeroes (the weak queue breaks its chain under HP for this).
///
/// [`AcquireRetire::hazard_snapshot`]: smr::AcquireRetire::hazard_snapshot
#[derive(Clone, Copy)]
pub(crate) enum Rights<'s> {
    /// An owned pointer's drop. No location names the object any more, but
    /// the owner may have read its out-edges in a section that is still
    /// open.
    Owner,
    /// A deferred operation the scheme handed back (an eject), or one a
    /// region scheme's settle applied after it found the instance
    /// quiescent. Under a region scheme no section that reached the
    /// object, or an edge through it, is still open. Under hazard pointers
    /// an object this zeroes waits for a snapshot (above).
    Eject,
    /// Hazard pointers: the object's strong count reached zero before the
    /// sorted hazard snapshot Σ given here was taken, and Σ does not name
    /// it (above).
    Seen(&'s [usize]),
    /// A deferred operation applied while the caller holds the domain
    /// exclusively ([`Domain::drain_and_apply_all`]): nothing can read it.
    Unread,
}

impl Rights<'_> {
    /// Whether an object these rights zeroed may be destructed on the spot
    /// rather than retired on `Dispose` (or, under hazard pointers, handed
    /// to the next snapshot). A hazard-pointer reader may hold a weak
    /// snapshot (a hazard on the block) that no weak count records, so only
    /// the region schemes, or an exclusive drain, allow it without a
    /// snapshot.
    #[inline]
    pub(crate) fn destruct_now<S: AcquireRetire>(self) -> bool {
        S::PROTECTS_REGIONS || matches!(self, Rights::Unread)
    }

    /// Whether an object these rights zeroed waits for a hazard snapshot.
    #[inline]
    pub(crate) fn awaits_snapshot<S: AcquireRetire>(self) -> bool {
        !S::PROTECTS_REGIONS && matches!(self, Rights::Eject | Rights::Seen(_))
    }

    /// Whether a destructed object's direct out-edge `e` may be decremented
    /// on the spot. Otherwise it is batched, as Fig. 8's `dispose` defers
    /// it with `delayed_decrement`, and waits out every reader the scheme
    /// sees.
    #[inline]
    pub(crate) fn reaches<S: AcquireRetire>(self, e: usize) -> bool {
        match self {
            Rights::Owner => false,
            Rights::Eject => S::PROTECTS_REGIONS,
            Rights::Seen(sigma) => sigma.binary_search(&e).is_err(),
            Rights::Unread => true,
        }
    }
}

/// Strong references: counted in `strong`, deferred under the `Strong` tag;
/// at zero the payload is disposed.
#[derive(Debug)]
pub struct StrongKind;

impl RefKind for StrongKind {
    const CHANNEL: Channel = Channel::Strong;

    #[inline(always)]
    unsafe fn count<'a>(addr: usize) -> &'a StickyCounter {
        &(*as_header(addr)).strong
    }

    /// Destructs *immediately* when the scheme protects regions (or an
    /// exclusive drain applies it, `Rights::Unread`) and no weak observer
    /// can exist: the weak count is exactly the strong side's own +1, which is stable,
    /// since a zero strong count is sticky and weak references can only be
    /// minted from strong ones or other weak ones. Under hazard pointers
    /// an eject's zero waits for a hazard snapshot taken after it
    /// (`Rights`), which decides whatever the weak count is. Otherwise
    /// disposal is deferred as a `Dispose` entry so snapshots stay readable
    /// (§4.4).
    ///
    /// The immediate path is sound under a region scheme because a zero
    /// strong count proves every location-owned reference has had its
    /// deferred decrement *applied*, each application ordered after the end
    /// of all critical sections that could have read that location. So no
    /// count-free snapshot of the object can still be live. A weak snapshot
    /// holds the reader's section open, so the weak decrement of any
    /// location it was taken from is still pending, and the weak gate sees
    /// it. Hazard pointers protect one address, not a region: a scan that
    /// finds no hazard on a location's old occupant applies its weak
    /// decrement, while a weak snapshot taken through another location may
    /// still hold one, so under HP the weak count proves nothing. The
    /// snapshot names that hazard, and a weak snapshot taken after it finds
    /// the strong count zero.
    ///
    /// An owned drop additionally needs the payload to enumerate its edges:
    /// a non-graph payload's `Drop` relinquishes its child pointers itself,
    /// and disposing here would recurse one stack frame per chain level.
    /// Applied from the deferred machinery the recursion is bounded — those
    /// nested drops are owned ones and take this gate — so it destructs
    /// either way instead of a second round-trip as a `Dispose` entry.
    #[allow(private_interfaces)]
    unsafe fn zeroed<S: AcquireRetire>(d: &Domain<S>, t: Tid, addr: usize, by: Rights) {
        let h = as_header(addr);
        if by.destruct_now::<S>()
            && (*h).weak.load() == 1
            && (!matches!(by, Rights::Owner) || (*h).vtable.pop_edges.is_some())
        {
            d.destruct(t, addr, by);
        } else if by.awaits_snapshot::<S>() {
            d.await_snapshot(t, addr);
        } else {
            d.retire(Channel::Dispose, t, addr);
        }
    }
}

/// Weak references: counted in `weak`, deferred under the `Weak` tag; at
/// zero the control block is freed.
#[derive(Debug)]
pub struct WeakKind;

impl RefKind for WeakKind {
    const CHANNEL: Channel = Channel::Weak;

    #[inline(always)]
    unsafe fn count<'a>(addr: usize) -> &'a StickyCounter {
        &(*as_header(addr)).weak
    }

    #[allow(private_interfaces)]
    unsafe fn zeroed<S: AcquireRetire>(d: &Domain<S>, t: Tid, addr: usize, _by: Rights) {
        d.free_block(t, addr);
    }
}

/// The owned-relinquish rule: gives up the one `K`-reference an owned
/// pointer's `word` (block address plus the [`DISPLACED`] bit) holds.
///
/// Caller-class references decrement *directly* — the reference is
/// caller-owned, so the decrement cannot race with a protected increment.
/// Displaced-class ones were location-owned when handed out, so a
/// concurrent reader that loaded the old word may still be mid-increment on
/// them: the decrement goes through the deferred machinery exactly as the
/// location's retire would have (batched, like every displaced decrement).
///
/// Domain code runs under the thread's pin, taken from the block's header
/// while the block is provably alive, because the cascade may free the very
/// block that was keeping the domain alive. Under a guard the pin is a
/// thread-local bump; a decrement that does not reach zero takes none.
///
/// # Safety
///
/// The caller owns one `K`-reference to `word`'s (non-null) block,
/// allocated under scheme `S`, and forfeits it.
pub(crate) unsafe fn relinquish<S: Scheme, K: RefKind>(word: usize) {
    let block = word & !DISPLACED;
    let pinned = || {
        let d: &Domain<S> = domain_of::<S>(block).as_ref();
        let t = smr::current_tid();
        (d, t, d.pin_thread(t))
    };
    if word & DISPLACED != 0 {
        let (d, t, _pin) = pinned();
        d.batch(K::CHANNEL, t, block);
    } else {
        smr::sanitize::on_decrement(block, K::CHANNEL);
        // At zero the block outlives the decrement (strong: the strong
        // side's weak reference is still ours; weak: it is ours alone to
        // free), and until it is counted freed it keeps the domain.
        if K::count(block).decrement() {
            let (d, t, _pin) = pinned();
            K::zeroed(d, t, block, Rights::Owner);
        }
    }
}

/// What keeps a snapshot's pointee alive, i.e. what its drop gives back.
#[derive(Clone, Copy)]
#[repr(usize)]
pub(crate) enum Hold<G> {
    /// Nothing: a null snapshot, or a word the section alone protects.
    Section,
    /// Count-free fast path: an acquire-retire guard, released on drop.
    Guard(G),
    /// Slow path: one owned strong reference, decremented on drop.
    Owned,
}

impl<G> Hold<G> {
    /// The hold a `try_acquire` hit on an instance of `S` earned. A region
    /// scheme's guard has nothing to release (`S::PROTECTS_REGIONS`) and
    /// folds into `Section`: every snapshot then carries the same constant,
    /// and rotating snapshots along a traversal compiles to moving words.
    #[inline(always)]
    pub(crate) fn of<S: AcquireRetire<Guard = G>>(guard: G) -> Self {
        if S::PROTECTS_REGIONS {
            Hold::Section
        } else {
            Hold::Guard(guard)
        }
    }
}

/// The untyped core of a snapshot of either kind. Owns the drop; the typed
/// shell adds the payload type and kind, and nothing else.
pub(crate) struct Held<'g, S: Scheme> {
    pub(crate) word: usize,
    hold: Hold<S::Guard>,
    cs: &'g CsGuard<S>,
}

impl<'g, S: Scheme> Held<'g, S> {
    #[inline(always)]
    pub(crate) fn new(word: usize, hold: Hold<S::Guard>, cs: &'g CsGuard<S>) -> Self {
        Held { word, hold, cs }
    }

    /// Whether the snapshot holds no reference count of its own.
    #[inline(always)]
    pub(crate) fn count_free(&self) -> bool {
        !matches!(self.hold, Hold::Owned)
    }

    /// Borrows the payload, or `None` for null.
    ///
    /// # Safety
    ///
    /// `T` is the payload type of the block the word names.
    #[inline(always)]
    #[cfg_attr(feature = "sanitize", track_caller)]
    pub(crate) unsafe fn payload<T>(&self) -> Option<&T> {
        let addr = untagged(self.word);
        if addr == 0 {
            return None;
        }
        if self.count_free() {
            // Liveness rests on the thread's protection covering the block.
            smr::sanitize::check_protected_read(addr);
        } else {
            smr::sanitize::check_payload(addr);
        }
        // Guard, section or owned reference: the payload is not destroyed.
        Some(&*(*counted::as_counted::<T, S>(addr)).value.as_ptr())
    }
}

impl<S: Scheme> Drop for Held<'_, S> {
    #[inline(always)]
    fn drop(&mut self) {
        // One test and one by-value call, no more: see `give_back`.
        if !matches!(self.hold, Hold::Section) {
            give_back(self.cs, self.word, self.hold);
        }
    }
}

/// Gives back what a dropped snapshot of `word` held.
///
/// Out of line and by value on purpose. Unwind cleanup reaches the drop
/// glue from cold landing pads, where LLVM inlines only the smallest
/// callees; glue left out of line takes the snapshot's address, and one
/// escaped address keeps every snapshot of a traversal on the stack. So the
/// glue is one test and this call: under a region scheme the test folds
/// away and a drop is nothing; under hazard pointers a hop pays this call
/// and keeps its snapshots in registers.
#[inline(never)]
fn give_back<S: Scheme>(cs: &CsGuard<S>, word: usize, hold: Hold<S::Guard>) {
    let (d, t) = (cs.domain(), cs.tid());
    match hold {
        Hold::Section => {}
        Hold::Guard(g) => d.ar().release(t, g),
        // Safety: an owning snapshot of either kind holds one *strong*
        // reference to its (non-null) block; the guard it borrowed keeps
        // the domain alive.
        Hold::Owned if untagged(word) != 0 => unsafe {
            d.decrement::<StrongKind>(t, untagged(word), Rights::Owner)
        },
        Hold::Owned => {}
    }
}

/// One shared mutable pointer word bound to a domain, speaking kind `K`'s
/// reference-accounting protocol; [`AtomicRcPtr`](crate::AtomicRcPtr) is the
/// typed shell around this.
///
/// The location is a *passive reference* on its domain (`domain.rs` module
/// docs): its domain word is not a pin, but the location is counted on a
/// per-thread lane from `new_owned` to `Drop`, which keeps the core alive —
/// and so valid behind `domain` — for every `&self` call in between.
///
/// `repr(C)`, domain first: a node that declares its successor location
/// right after the 24-byte header and its key after that has the word at
/// block offset 32 and the key at 40, one 16-byte-aligned pair, so a hop's
/// two loads never straddle a cache line (blocks are 16-aligned).
#[repr(C)]
pub(crate) struct RcWord<S: Scheme, K: RefKind> {
    domain: NonNull<Domain<S>>,
    word: AtomicUsize,
    _kind: PhantomData<fn(K) -> K>,
}

const _: () = assert!(std::mem::offset_of!(RcWord<smr::Ebr, StrongKind>, word) == 8);

impl<S: Scheme, K: RefKind> RcWord<S, K> {
    /// Creates a location holding `word`, whose (untagged) address the
    /// location takes ownership of one `K`-reference to. The caller has
    /// already validated the domain, which it keeps alive across the call
    /// (a handle, or the live block `word` names).
    pub(crate) fn new_owned(word: usize, domain: NonNull<Domain<S>>) -> Self {
        // Safety: alive per the above.
        unsafe { domain.as_ref() }.location_made(smr::current_tid());
        RcWord {
            word: AtomicUsize::new(word),
            domain,
            _kind: PhantomData,
        }
    }

    /// The raw word location (for the snapshot paths, which stay in the
    /// typed modules).
    #[inline]
    pub(crate) fn word(&self) -> &AtomicUsize {
        &self.word
    }

    /// Takes the raw word out of a dead location (`&mut` access: no
    /// concurrent readers exist), leaving it null so the location's `Drop`
    /// becomes a no-op. Ownership of the displaced `K`-reference (if any)
    /// transfers to the caller — the edge-collection path of immediate
    /// recursive destruction.
    #[inline]
    pub(crate) fn take_word(&mut self) -> usize {
        std::mem::replace(self.word.get_mut(), 0)
    }

    /// The domain this location is bound to, as a handle borrowed for as
    /// long as the location is.
    #[inline]
    pub(crate) fn domain(&self) -> &DomainRef<S> {
        DomainRef::passive(&self.domain)
    }

    /// An unprotected read of the raw word, for comparisons only.
    #[inline]
    pub(crate) fn load_raw(&self) -> usize {
        // Ordering: Relaxed — the word is an opaque comparison token here:
        // it is never dereferenced, and any CAS that uses it as `expected`
        // re-validates against the live word with its own ordering.
        self.word.load(Ordering::Relaxed)
    }

    /// Protected load-and-increment (Fig. 8's `load_and_increment` /
    /// `weak_load_and_increment`): the word is loaded and protected via
    /// `acquire`, `K`'s count incremented and protection released. Returns the untagged address carrying one fresh
    /// caller-owned `K`-reference (0 for null).
    pub(crate) fn load_owning(&self) -> usize {
        let d: &Domain<S> = self.domain();
        let t = smr::current_tid();
        d.with_cs(t, || {
            let ar = d.ar();
            let (w, guard) = ar.acquire(t, &self.word);
            let addr = untagged(w);
            if addr != 0 {
                // Safety: this location owns a `K`-reference to whatever it
                // stores, with decrements deferred, so the
                // acquire-protected increment targets a live block.
                unsafe { K::incr(addr) };
            }
            ar.release(t, guard);
            addr
        })
    }

    /// Installs `new` (address + tag bits), taking ownership of one
    /// `K`-reference to its address; the displaced reference is retired.
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn store(&self, new: usize) {
        let old_addr = untagged(self.swap(new));
        if old_addr != 0 {
            let t = smr::current_tid();
            // Safety: the location owned a `K`-reference to `old_addr`.
            unsafe { self.domain().batch(K::CHANNEL, t, old_addr) };
        }
    }

    /// Installs `new` as [`store`](Self::store) but returns the displaced
    /// word raw: ownership of the displaced `K`-reference transfers to the
    /// caller, who must treat it as displaced-class (relinquish via retire,
    /// i.e. wrap it with the owned pointer's displaced constructor).
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn swap(&self, new: usize) -> usize {
        check_same_domain(untagged(new), self.domain());
        // The reference being installed must target a live block — storing
        // a disposed or freed pointer publishes a dangling reference.
        smr::sanitize::on_install(new);
        // Ordering: SeqCst swap — the Release half publishes the pointee
        // (and any pre-taken reference on it) to readers' Acquire loads, the
        // Acquire half makes the displaced occupant's header readable for
        // its deferred decrement (`rc_unlink_relaxed_swap_is_unsound` shows
        // this half tearing at Relaxed), and SeqCst places the unlink in the
        // SC order *before* the retire stamp that follows — the epoch eject
        // rules lean on the chain unlink ≤ stamp ≤ a reader's clock read ≤
        // its announcement fence, which forces any reader announcing a
        // newer-than-stamp epoch to observe this unlink. AcqRel is not
        // enough: `unlink_acqrel_swap_is_unsound` (model_check) exhibits a
        // reader that announces a fresh epoch yet still loads the stale
        // pointer while the scan under-stamps and frees it. On x86-64 every
        // swap is a `lock xchg` regardless, so this costs nothing here.
        self.word.swap(new, Ordering::SeqCst)
    }

    /// CAS transferring the *caller's own* `K`-reference: no count traffic
    /// at all. On success the caller's reference now belongs to the
    /// location (the caller must forget its handle) and the displaced word
    /// comes back displaced-class; on failure the caller keeps its
    /// reference and receives the witnessed current word.
    ///
    /// # Panics
    ///
    /// Panics if `new`'s address is non-null and from a foreign domain.
    pub(crate) fn cas(&self, expected: usize, new: usize) -> Result<usize, usize> {
        check_same_domain(untagged(new), self.domain());
        // Liveness holds whether or not the CAS lands: the caller's own
        // reference keeps `new` alive for the duration of the call.
        smr::sanitize::on_install(new);
        // Ordering: SeqCst on success — publishes the new occupant (and its
        // reference), acquires the displaced occupant's header for the
        // deferred decrement, and keeps this unlink in the SC order before
        // the retire stamp that follows, exactly as in `swap`: the epoch
        // eject rules need the chain unlink ≤ stamp ≤ reader's clock read ≤
        // its announcement fence, and `unlink_acqrel_swap_is_unsound`
        // (model_check) shows AcqRel breaking it — a freshly-announced
        // reader loads the stale pointer while the scan under-stamps and
        // frees it. Free on x86-64, where the CAS is `lock cmpxchg` at any
        // ordering.
        // Ordering: Acquire on failure — the witnessed word is handed back
        // to the caller, who may seed a protected snapshot from it
        // (`compare_exchange_with`) and dereference: the publisher's Release
        // must be visible.
        self.word
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::Acquire)
    }

    /// [`cas`](Self::cas) of an unshared `new` whose null location `edge`
    /// (inside `new`'s payload, bound to this location's domain) takes over
    /// this location's reference to `expected`'s address: "Linking" in the
    /// module docs. The caller has checked that `new` is unshared and that
    /// `edge` is null and lies inside it. On success the caller's reference
    /// to `new` belongs to this location; on failure `edge` is null again
    /// and the witnessed word comes back.
    ///
    /// # Panics
    ///
    /// Panics if `new` or `edge` is bound to a foreign domain.
    pub(crate) fn link(&self, expected: usize, new: usize, edge: &Self) -> Result<(), usize> {
        // Both checks come before the edge is written: a refused link
        // unwinds with the node as it came.
        check_same_domain(untagged(new), self.domain());
        assert!(
            edge.domain == self.domain,
            "cross-domain edge: a linked node's edge must be bound to the location's domain"
        );
        let moved = untagged(expected);
        // The edge is an install like any other: it must name a live block.
        smr::sanitize::on_install(moved);
        // Ordering: Relaxed — `new` is unshared, so nobody reads the edge
        // before the CAS below publishes `new`; that CAS's Release half
        // carries this store to every reader that loads `new`.
        edge.word.store(moved, Ordering::Relaxed);
        self.cas(expected, new).map(drop).map_err(|w| {
            // Ordering: Relaxed — nothing was published; the edge is still
            // the caller's alone.
            edge.word.store(0, Ordering::Relaxed);
            w
        })
    }

    /// Unconditionally ORs tag bits into the word, returning the previous
    /// word. No reference counts change: the location keeps its pointer.
    pub(crate) fn fetch_or_tag(&self, tag_bits: usize) -> usize {
        debug_assert_eq!(tag_bits & !smr::TAG_MASK, 0);
        // Ordering: AcqRel — tag edges linearize structure mutations
        // (Natarajan-Mittal flag/tag, Harris marks): Release orders the
        // caller's prior writes before the mark becomes visible, Acquire
        // orders the caller's subsequent cleanup after the word it
        // observed. The pointer bits do not change, so no publication of a
        // new pointee is involved.
        self.word.fetch_or(tag_bits, Ordering::AcqRel)
    }

    /// ORs tag bits into the word if it still equals `expected`. Returns
    /// the installed word on success and the witnessed current word on
    /// failure. No reference counts change.
    pub(crate) fn try_set_tag(&self, expected: usize, tag_bits: usize) -> Result<usize, usize> {
        debug_assert_eq!(tag_bits & !smr::TAG_MASK, 0);
        // Ordering: AcqRel on success — as in
        // [`fetch_or_tag`](Self::fetch_or_tag); the mark is a linearization
        // point, not a pointer publication. Acquire on failure — the
        // witness is handed back and may seed further witness logic.
        self.word
            .compare_exchange(
                expected,
                expected | tag_bits,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .map(|_| expected | tag_bits)
    }
}

impl<S: Scheme, K: RefKind> Drop for RcWord<S, K> {
    fn drop(&mut self) {
        let t = smr::current_tid();
        // Safety: the location itself keeps the core alive up to
        // `location_dropped`. The pin covers what comes after — this may be
        // the last passive reference, and the pin's release is where that
        // is noticed. Inside a destruct cascade or under a guard it is a
        // thread-local bump.
        let d: &Domain<S> = unsafe { self.domain.as_ref() };
        let _pin = d.pin_thread(t);
        let addr = untagged(*self.word.get_mut());
        if addr != 0 {
            // Safety: the location owns a `K`-reference. Deferral (not a
            // direct decrement) matters: a concurrent reader that loaded
            // this pointer before we were unlinked may still be protected.
            unsafe { d.batch(K::CHANNEL, t, addr) };
        }
        d.location_dropped(t);
    }
}
