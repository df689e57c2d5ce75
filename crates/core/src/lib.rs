//! # cdrc — concurrent deferred reference counting over any manual SMR scheme
//!
//! A Rust implementation of *"Turning Manual Concurrent Memory Reclamation
//! into Automatic Reference Counting"* (Anderson, Blelloch, Wei — PLDI
//! 2022): a family of lock-free, automatically memory-managed smart pointers
//! whose reclamation engine is **any** manual safe-memory-reclamation
//! scheme implementing the generalized acquire-retire interface
//! ([`smr::AcquireRetire`]).
//!
//! Choose the engine by picking a scheme type parameter:
//!
//! * [`EbrScheme`] — epoch-based reclamation (the fastest; "RCEBR"),
//! * [`IbrScheme`] — interval-based reclamation ("RCIBR"),
//! * [`HyalineScheme`] — Hyaline-1 ("RCHyaline"),
//! * [`HpScheme`] — hazard pointers (the original CDRC; "RCHP").
//!
//! ## Pointer types
//!
//! Three generic types, parameterized by the payload `T`, the scheme `S`
//! and the reference kind `K` ([`StrongKind`] or [`WeakKind`]: which count
//! a reference holds, which tag its deferred decrement carries, what
//! reaching zero obliges). The six paper names are aliases:
//!
//! | generic | strong | weak | counts | concurrent mutation | dereference |
//! |---------|--------|------|--------|---------------------|-------------|
//! | [`RcPtr`] | [`SharedPtr`] | [`WeakPtr`] | one of `K`'s | no (owned) | strong: yes; weak: via upgrade |
//! | [`AtomicRcPtr`] | [`AtomicSharedPtr`] | [`AtomicWeakPtr`] | holds one of `K`'s | yes | via load/snapshot |
//! | [`Snapshot`] | [`SnapshotPtr`] | [`WeakSnapshotPtr`] | none (fast path) | n/a (thread-local) | yes |
//!
//! Reads through snapshots do **not** touch reference counts in the common
//! case, which is what closes the performance gap to manual reclamation
//! (§3.4); increments use the wait-free sticky counter of the [`sticky`]
//! crate so weak upgrades are constant-time (§4.3).
//!
//! ### Mutation: the RMW family
//!
//! One read-modify-write surface, shaped like [`std::sync::atomic`],
//! defined once on [`AtomicRcPtr`] for both kinds, and **by value**: an
//! installed pointer is moved in, so the caller's reference becomes the
//! location's with no count traffic. A caller that only holds a borrow
//! writes the increment at the call site ([`SnapshotPtr::to_shared`],
//! [`RcPtr::from_strong`]).
//!
//! | operation | on | gives back |
//! |-----------|----|------------|
//! | [`store`](AtomicRcPtr::store) | both kinds | nothing: the displaced reference is retired internally |
//! | [`swap`](AtomicRcPtr::swap), [`take`](AtomicRcPtr::take) | both kinds | the displaced occupant as an *owned* pointer (take = swap-with-null) |
//! | [`compare_exchange`](AtomicRcPtr::compare_exchange) `(expected, desired, new_tag)` | both kinds | `Ok(displaced)`, owned; `Err(`[`CompareExchangeErr`]`)`: the *witnessed* current word, so retry loops never pay a second protected load, and `desired`, untouched |
//! | [`compare_exchange_with`](AtomicSharedPtr::compare_exchange_with) `(guard, expected, &borrow)` | strong | as `compare_exchange(expected, from_strong(&borrow), 0)`, with the failure witness a protected [`SnapshotPtr`] that dereferences immediately |
//! | [`link`](AtomicSharedPtr::link) `(expected, node, edge)` | strong | as `compare_exchange(expected, node, 0)` for an *unshared* `node` whose null `edge` takes over the location's reference to `expected`: inserting between two nodes counts nothing |
//! | [`fetch_or_tag`](AtomicRcPtr::fetch_or_tag), [`try_set_tag`](AtomicRcPtr::try_set_tag) | both kinds | the previous word / `Result<installed, witness>`: only the low tag bits change, so tag-state machines compose with the CAS loops |
//!
//! A displaced pointer handed back by swap or a successful CAS remembers
//! that it was location-owned: its drop defers the decrement through the
//! domain (a concurrent reader may still be mid-`load` on the old word),
//! which makes returning ownership exactly as cheap as retiring it
//! internally.
//!
//! ```
//! use cdrc::{AtomicSharedPtr, SharedPtr, EbrScheme};
//!
//! let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::new(SharedPtr::new(1));
//! let mut desired = SharedPtr::new(2);
//! let mut expected = slot.load_tagged();
//! let displaced = loop {
//!     // The witness loop: a failed CAS feeds the next attempt directly.
//!     match slot.compare_exchange(expected, desired, 0) {
//!         Ok(displaced) => break displaced,
//!         Err(e) => {
//!             expected = e.current; // no re-load
//!             desired = e.desired;  // no reallocation, no count traffic
//!         }
//!     }
//! };
//! assert_eq!(displaced.as_ref(), Some(&1));
//! ```
//!
//! ## Critical sections
//!
//! All racy atomic-pointer operations and all snapshot lifetimes must occur
//! inside a critical section (§3.4). Operations called without one open a
//! section internally; snapshots *require* a guard argument:
//!
//! ```
//! use cdrc::{AtomicSharedPtr, SharedPtr, EbrScheme, Scheme};
//! use smr::Ebr;
//!
//! let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::new(SharedPtr::new(10));
//! let cs = Ebr::global_domain().cs();           // begin critical section
//! let snap = slot.get_snapshot(&cs);            // count-free protected read
//! assert_eq!(snap.as_ref(), Some(&10));
//! drop(snap);                                   // snapshots end before the guard
//! drop(cs);
//! ```
//!
//! Weak-pointer operations use the same guard: the domain defers strong
//! decrements, weak decrements and disposals on one acquire-retire
//! instance, so one section protects them all:
//!
//! ```
//! use cdrc::{AtomicWeakPtr, SharedPtr, EbrScheme, Scheme};
//! use smr::Ebr;
//!
//! let strong: SharedPtr<u64, EbrScheme> = SharedPtr::new(3);
//! let slot: AtomicWeakPtr<u64, EbrScheme> = AtomicWeakPtr::null();
//! slot.store(strong.downgrade());
//! let cs = Ebr::global_domain().cs();
//! let snap = slot.get_snapshot(&cs);
//! assert_eq!(snap.as_ref(), Some(&3));
//! ```
//!
//! ## Amortizing critical sections
//!
//! Entering a section costs one announcement fence (a SeqCst store-load
//! round trip for the region schemes). That fence closes the gap to manual
//! reclamation **only when amortized over many operations** (§3.4), so the
//! data-structure layer exposes guard-taking operation variants: open one
//! guard, run a batch, drop the guard. Before — one section per operation:
//!
//! ```
//! use cdrc::{AtomicSharedPtr, EbrScheme, Scheme, SharedPtr};
//!
//! let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::new(SharedPtr::new(1));
//! for _ in 0..64 {
//!     let _ = slot.load(); // each load opens + closes its own section
//! }
//! ```
//!
//! After — one section per batch:
//!
//! ```
//! use cdrc::{AtomicSharedPtr, EbrScheme, Scheme, SharedPtr};
//!
//! let slot: AtomicSharedPtr<u64, EbrScheme> = AtomicSharedPtr::new(SharedPtr::new(1));
//! let cs = EbrScheme::global_domain().cs();
//! for _ in 0..64 {
//!     let snap = slot.get_snapshot(&cs); // fence already paid by `cs()`
//!     assert_eq!(snap.as_ref(), Some(&1));
//! }
//! drop(cs); // reclamation of the batch's garbage resumes here
//! ```
//!
//! Sections nest, so mixing both styles is always safe; holding a guard too
//! long delays reclamation (the announcement pins the epoch), which is why
//! the repo benchmark (`ledger/`) and the bench driver
//! (`bench::GUARD_BATCH`) re-pin every 64 operations, as in the paper's
//! methodology. The `lockfree` crate threads one [`CsGuard`] through every
//! structure operation (`get_with`, `insert_with`, `enqueue_with`, … on
//! its `ConcurrentMap`/`ConcurrentQueue` traits).
//!
//! ## Reclamation domains
//!
//! Every pointer is bound to one reclamation [`Domain`] at creation,
//! identified by its owning handle [`DomainRef`]. The handle-free
//! constructors (`SharedPtr::new`, `AtomicSharedPtr::null`, …) default to
//! the scheme's process-wide [`Scheme::global_domain`]; the `_in` variants
//! (`new_in`, `null_in`) take an explicit handle. Separate domains on the
//! same scheme are fully isolated — distinct epoch clocks, announcement
//! slots, retired lists and allocation counters — so one structure's open
//! critical sections never pin another's garbage, and
//! `allocated() − freed()` is an exact per-domain metric:
//!
//! ```
//! use cdrc::{AtomicSharedPtr, DomainRef, EbrScheme, SharedPtr};
//!
//! let mine: DomainRef<EbrScheme> = DomainRef::new();
//! let slot = AtomicSharedPtr::null_in(&mine);
//! slot.store(SharedPtr::new_in(1u64, &mine));
//! let cs = mine.cs();                       // section on *this* domain only
//! assert_eq!(slot.get_snapshot(&cs).as_ref(), Some(&1));
//! drop(cs);
//! drop(slot);
//! mine.process_deferred(smr::current_tid());
//! assert_eq!(mine.allocated(), mine.freed());
//! ```
//!
//! Share one domain between structures that should reclaim together (a
//! cache and its index, or a group of small maps whose combined garbage
//! should amortize one scan cadence); give independent structures independent
//! domains. Mixing is checked: installing a pointer into a location bound
//! to a different domain panics, and snapshot operations assert (debug
//! builds) that the guard covers the location's domain.
//!
//! ## Reference cycles
//!
//! Strong cycles leak (as in every reference-counting system); break them
//! with weak edges — e.g. the doubly-linked queue of the paper's Fig. 10
//! stores `next` strongly and `prev` weakly (see the `lockfree` crate).
//!
//! ## Immediate recursive destruction
//!
//! By default a dead node's outgoing edges relinquish themselves from
//! inside the payload's `Drop`, one deferral round-trip per edge — a long
//! dead chain takes one collection *round per level*. Payloads that
//! implement [`GraphNode`] and are allocated through
//! [`SharedPtr::new_graph_in`] instead enumerate their edges into an
//! [`EdgeCollector`], letting the domain destruct the
//! whole reachable zero-count subgraph **iteratively, inside the current
//! operation** (CIRC-style): a node whose strong count hits zero with no
//! weak observer is disposed on the spot, its directly-owned edges
//! decremented immediately under its dispose rights, and any child that
//! zeroes joins the worklist. Displaced-class edges and nodes with weak
//! observers still take the deferred path — the optimization never weakens
//! the protection story, it only removes round-trips that deferral never
//! needed.
//!
//! Displaced-pointer decrements themselves are *batched per thread*: each
//! one is buffered and retired in bulk at the next flush point (critical
//! section exit, buffer capacity, [`Domain::process_deferred`], thread
//! unregister), replacing a retire + collect round-trip per store with a
//! vector push.
//!
//! ## Reclamation sanitizer
//!
//! Build with `--features sanitize` and every `cdrc` access is validated
//! against `smr`'s shadow-state checker: payload dereferences must be
//! covered by a live protection of the right kind for the scheme
//! (section, interval, or hazard — snapshot reads on schemes where
//! `PROTECTS_SECTION_READS` is `false` need a per-block acquire), and the
//! engine's installs, retires, disposals and frees must respect the
//! Live → Disposed → Freed lifecycle. Violations — use-after-retire,
//! double retire, cross-domain protection, leaked sections — panic at the
//! offending call site with the block's recent event trail, and disposed
//! payloads are poison-filled (`0xDB`). The hooks compile to empty
//! inline functions without the feature; see the README's "Reclamation
//! sanitizer" section and `tests/sanitizer.rs` for the catalogue of
//! caught bug classes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cas;
mod counted;
mod domain;
mod engine;
mod ptr;
mod strong;
mod tagged;
mod weak;

/// The suite-wide `sync` facade (real `std::sync::atomic`, or the
/// `interleave` model checker's wrapper atomics under `model-check`) —
/// re-exported from [`smr`] so `cdrc`-level code and downstream crates
/// route through one switch point.
pub use smr::sync;

pub use cas::CompareExchangeErr;
pub use counted::{EdgeCollector, GraphNode};
pub use domain::{CsGuard, Domain, DomainRef, Scheme, StrongRef};
pub use engine::{RefKind, StrongKind, WeakKind};
pub use ptr::{AtomicRcPtr, RcPtr, Snapshot};
pub use strong::{AtomicSharedPtr, SharedPtr, SnapshotPtr};
pub use tagged::TaggedPtr;
pub use weak::{AtomicWeakPtr, WeakPtr, WeakSnapshotPtr};

/// The size of the control block scheme `S` allocates for a `T`, and the
/// payload's offset in it: what the `lockfree` layout test holds node size
/// classes to. Not API.
#[doc(hidden)]
pub fn block_layout<T, S: Scheme>() -> (usize, usize) {
    (
        std::mem::size_of::<counted::Block<T, S>>(),
        std::mem::offset_of!(counted::Block<T, S>, value),
    )
}

/// Epoch-based reclamation engine (→ "RCEBR").
pub type EbrScheme = smr::Ebr;
/// Interval-based reclamation engine (→ "RCIBR").
pub type IbrScheme = smr::Ibr;
/// Hazard-pointer engine — the original CDRC (→ "RCHP").
pub type HpScheme = smr::Hp;
/// Hyaline-1 engine (→ "RCHyaline").
pub type HyalineScheme = smr::Hyaline;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pointer_types_are_send_sync_when_payload_is() {
        fn send_sync<X: Send + Sync>() {}
        send_sync::<SharedPtr<u64, EbrScheme>>();
        send_sync::<AtomicSharedPtr<u64, EbrScheme>>();
        send_sync::<WeakPtr<u64, EbrScheme>>();
        send_sync::<AtomicWeakPtr<u64, EbrScheme>>();
        send_sync::<Domain<EbrScheme>>();
        send_sync::<DomainRef<EbrScheme>>();
    }

    #[test]
    fn all_four_schemes_provide_global_domains() {
        fn check<S: Scheme>() {
            let g = S::global_domain();
            assert!(g.ptr_eq(S::global_domain()), "global domain is stable");
            assert!(!g.ptr_eq(&DomainRef::new()), "fresh domains are distinct");
        }
        check::<EbrScheme>();
        check::<IbrScheme>();
        check::<HpScheme>();
        check::<HyalineScheme>();
    }

    #[test]
    fn basic_lifecycle_on_every_scheme() {
        fn run<S: Scheme>() {
            let p: SharedPtr<String, S> = SharedPtr::new("x".into());
            let slot: AtomicSharedPtr<String, S> = AtomicSharedPtr::new(p.clone());
            {
                let cs = S::global_domain().cs();
                let snap = slot.get_snapshot(&cs);
                assert_eq!(snap.as_ref().map(String::as_str), Some("x"));
            }
            let w = p.downgrade();
            assert!(w.upgrade().is_some());
            drop(slot);
            drop(p);
            S::global_domain().process_deferred(smr::current_tid());
            assert!(w.upgrade().is_none());
        }
        run::<EbrScheme>();
        run::<IbrScheme>();
        run::<HpScheme>();
        run::<HyalineScheme>();
    }
}
