//! Manual safe-memory-reclamation (SMR) substrate with a *generalized
//! acquire-retire* interface.
//!
//! This crate implements the manual reclamation schemes that the CDRC paper
//! ("Turning Manual Concurrent Memory Reclamation into Automatic Reference
//! Counting", PLDI 2022) converts into automatic reference counting:
//!
//! * [`Ebr`] — epoch-based reclamation (protected-region; paper Fig. 3),
//! * [`Ibr`] — interval-based reclamation, specifically 2GEIBR (Fig. 4),
//! * [`Hp`] — hazard pointers in the acquire-retire formulation of Anderson
//!   et al., which permits a pointer to be retired multiple times
//!   (protected-pointer),
//! * [`Hyaline`] — Hyaline-1, a protected-region scheme in which retired
//!   batches carry reference counters decremented by departing operations.
//!
//! All four implement the [`AcquireRetire`] trait — the *generalized
//! acquire-retire interface* of the paper's Figure 2. The interface serves
//! two masters:
//!
//! 1. **Manual use**: a lock-free data structure calls
//!    [`retire`](AcquireRetire::retire) on unlinked nodes and frees whatever
//!    [`eject`](AcquireRetire::eject) hands back (a retire is a *delayed
//!    free*).
//! 2. **Automatic use**: the `cdrc` crate retires pointers whose deferred
//!    operation is a reference-count decrement (or a weak decrement, or a
//!    disposal, told apart by tag bits on the retired address), which is
//!    exactly how a manual scheme becomes an automatic one.
//!
//! Unlike classical formulations, [`eject`](AcquireRetire::eject) *returns*
//! the retired pointer rather than freeing it, and the same pointer may be
//! retired many times before being ejected as many times — the two features
//! §3.2 of the paper identifies as necessary for reference counting.
//!
//! # Threads
//!
//! Threads interact with scheme instances through a process-wide slot
//! registry: the first call to [`current_tid`] on a thread assigns it a
//! [`Tid`] (released, and later recycled, when the thread exits). Per-thread
//! scheme state is stored per *slot*, so a thread that inherits a recycled
//! slot simply continues draining its predecessor's retired lists.
//!
//! # Safety contract
//!
//! An implementation of [`AcquireRetire`] is `unsafe` to write: it promises
//! the linearizable acquire-retire specification (Definition 3.3 of the
//! paper) under *proper executions* (Definition 3.2): every acquire happens
//! inside a critical section, each guard is released at most once, a thread
//! holds at most one `acquire`-guard at a time, and a thread never exits
//! while inside a critical section or holding a guard.
//!
//! # Adding a scheme
//!
//! There is one implementation, [`Engine`], written once: per-thread slots,
//! section nesting, the fault and sanitizer checkpoints, the retire list
//! and its threshold-spaced scans, the fence-then-sweep skeleton, the ready
//! queue, `drain_all` and `reclaim_slot`. It runs no
//! consumer code: [`end_critical_section`](AcquireRetire::end_critical_section)
//! reports an outermost exit, and the consumer does its own section-exit
//! work after it. The four schemes are aliases of `Engine<policy>`, and a
//! policy is an implementation of the crate-private `Protection` trait
//! (`src/engine.rs`) — one file of `src/` each. A fifth scheme is a fifth
//! such file plus an alias; what it supplies, and what each item owes:
//!
//! | `Protection` item | the paper's line | safety obligation |
//! |---|---|---|
//! | `Ann`, `ann()` | Fig. 3 `ann[p]`; Fig. 4 `begin_ann`/`end_ann`; §3.2 announcement slots | a fresh announcement protects nothing |
//! | `enter` | Fig. 3 `begin_critical_section`: `ann[p] ← cur_epoch` | published *and fenced* before any protected read of the section (`util::announce_*`) |
//! | `leave` | Fig. 3 `end_critical_section`: `ann[p] ← empty` | `Release` or stronger — the section's reads may not sink below it |
//! | `quiescent` | Fig. 3 `eject`: the `ann[q] = empty` arm, over every slot | `true` only when no slot protects anything (HP: a double collect, not one sweep) |
//! | `snapshot` | — (HP only: `hazard_snapshot`) | the hazards each thread held at one instant after the scan fence, or `false`; region policies keep the panicking default |
//! | `force_close` | — (dead-thread recovery) | withdraws *everything* the dead slot announced, `Release` or stronger; the default is `leave` on its behalf |
//! | `acquire`, `try_acquire`, `release`, `Guard` | Fig. 2; Fig. 4 `acquire`'s revalidation loop; §3.2 announce-then-validate | the returned word stays protected until `release` (or section exit); an announcement written here is fenced before the re-read that trusts it |
//! | `Birth`, `birth` | Fig. 4 `alloc`: `birth_epoch ← cur_epoch` | `u64` only where `reclaim` reads it (IBR), `()` elsewhere; epoch schemes call `Engine::tick` so the clock keeps moving |
//! | `Stamp`, `stamp` | Fig. 3 `retire`: `push(x, cur_epoch)` | read after the caller's unlink (`GlobalEpoch::load` is `SeqCst` for this) |
//! | `reclaim` | Fig. 3 `eject`: `epoch < min(ann)`; Fig. 4's interval test; §3.2's `min(#retired, #announced)`, per tag | moves to `ready` only entries no announcement protects, and reads announcements only through `Engine::survey`/`sweep`, which pay the scan-side fence |
//! | `scan_threshold` | §5.1 eject threshold; HP's amortization bound | — |
//! | `over_watermark` | — ([`SmrConfig::max_garbage`]) | never waits inside the caller's own section |
//! | `recall` | — (Hyaline's hand-off lists) | after it, every retired entry sits in some slot's `retired` or `ready` |
//! | `NAME`, `default_config`, `PROTECTS_REGIONS`, `PROTECTS_SECTION_READS` | §5.1 tuning; §3's protected-region / protected-pointer split | the two consts must tell the truth: consumers skip `release`, or a re-`acquire`, on their word |
//! | `Local`, `Shared` | scheme-private state (Fig. 4 `prev_epoch`; HP's free mask) | `Local` is owner-only, reached through the slot the frame hands over |
//!
//! `crates/smr/tests/conformance.rs` states the interface's rules once,
//! generically, and runs them against every alias.
//!
//! # Fault tolerance
//!
//! Improper executions — a reader stalled inside a section, a thread that
//! dies without unregistering — are injectable through [`fault`] and have a
//! measured, per-scheme story. Garbage under a stalled reader is bounded by
//! construction for [`Hp`] (hazard-slot count) and effectively for
//! [`Hyaline`] (departing-operation refcounts); [`Ebr`] and [`Ibr`] are
//! unbounded by construction, and [`SmrConfig::max_garbage`] arms a *soft*
//! watermark that throttles retire-side progress (EBR), advances the clock
//! ahead of each scan (IBR), or gates on an outstanding-garbage gauge
//! (Hyaline) to rate-limit growth while preserving liveness. A dead thread
//! is recovered by [`reclaim_orphaned_slot`] once its death is established
//! out-of-band (e.g. by joining it): registered orphan reapers force-close
//! the dead slot's announcements via
//! [`AcquireRetire::reclaim_slot`] and drain its orphaned state, and the
//! slot returns to the pool. [`abandon_current_slot`] simulates such a
//! death. A dead *idle* HP section pins nothing at all (hazard pointers
//! protect individual pointers, not regions —
//! [`AcquireRetire::PROTECTS_REGIONS`] is `false`), which is HP's
//! fault-tolerance-by-construction story.
//!
//! # Reclamation sanitizer
//!
//! Under `--features sanitize`, the [`sanitize`] module arms a shadow-state
//! checker: every engine access (section entry/exit, acquire/release,
//! retire, and the `cdrc` layer's installs, decrements, disposals and
//! dereferences) is validated against a per-block lifecycle table and a
//! per-thread protection shadow, and violations — use-after-retire, double
//! retire, unprotected reads on schemes where
//! [`AcquireRetire::PROTECTS_SECTION_READS`] is `false`, section/hazard
//! leaks — panic at the offending call site with the block's event trail.
//! In normal builds every hook is an empty `#[inline(always)]` function and
//! the layer costs nothing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ebr;
mod engine;
pub mod fault;
mod hp;
mod hyaline;
mod ibr;
mod registry;
pub mod sanitize;
pub mod sync;
pub mod util;

pub use ebr::Ebr;
pub use engine::Engine;
pub use hp::{Hp, HpGuard};
pub use hyaline::Hyaline;
pub use ibr::Ibr;
pub use registry::{
    abandon_current_slot, active_threads, current_tid, on_thread_exit, reclaim_orphaned_slot,
    register_orphan_reaper, registered_high_water_mark, slot_abandoned, slot_in_use, Tid,
    MAX_THREADS,
};

use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::fmt::Debug;
use std::sync::Arc;

/// Low bits of a pointer word reserved for data-structure tags (marks).
///
/// Schemes mask these off before announcing or comparing pointers, so a
/// marked pointer and its unmarked form protect the same object. Control
/// blocks and nodes must therefore be aligned to at least 8 bytes (any
/// `Box`-allocated struct with a word-sized field is).
pub const TAG_MASK: usize = 0b111;

/// Strips [`TAG_MASK`] bits from a pointer word.
#[inline]
pub fn untagged(word: usize) -> usize {
    word & !TAG_MASK
}

/// A type-erased retired pointer: the address of the object plus the
/// birth-epoch metadata that interval-based schemes tagged it with at
/// allocation time.
///
/// This is the record [`retire`](AcquireRetire::retire) takes, the same 16
/// bytes under every scheme. What an instance *stores* per retired entry is
/// smaller where it can be: the birth is kept as the scheme's
/// [`AcquireRetire::Birth`], so only IBR keeps it, and an entry whose
/// protection has lapsed is the address alone, which is what
/// [`eject`](AcquireRetire::eject) hands back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Address of the retired object; [`new`](Self::new) rejects tag bits
    /// (a tagged word goes through
    /// [`retire_born`](AcquireRetire::retire_born)).
    pub addr: usize,
    /// Birth epoch recorded by [`AcquireRetire::birth_epoch`] at allocation
    /// (read by IBR only).
    pub birth: u64,
}

impl Retired {
    /// Creates a retired record for `addr` born at `birth`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `addr` carries tag bits or is null —
    /// retiring a tagged or null pointer is always a caller bug.
    #[inline]
    pub fn new(addr: usize, birth: u64) -> Self {
        debug_assert!(addr != 0, "cannot retire a null pointer");
        debug_assert_eq!(addr & TAG_MASK, 0, "cannot retire a tagged pointer");
        Retired { addr, birth }
    }
}

/// The shared epoch clock. One clock may back several [`AcquireRetire`]
/// instances, whose birth epochs are then comparable across them.
#[derive(Debug, Default)]
pub struct GlobalEpoch {
    epoch: AtomicU64,
}

impl GlobalEpoch {
    /// Creates a clock at epoch zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the current epoch.
    #[inline]
    pub fn load(&self) -> u64 {
        // SeqCst — deliberately NOT relaxed. Retire paths stamp entries
        // with this value *after* performing the unlinking swap/CAS, and
        // the epoch-based eject rules (`epoch < min_ann`, interval
        // intersection) are only sound if that stamp cannot be ordered
        // before the unlink: an under-stamped retire looks older than a
        // concurrent reader's announcement and ejects while the reader —
        // whose stale traversal may still reach the node — is active. The
        // SeqCst total order over {unlink RMW, this load, the readers'
        // entry fences} forbids exactly that inversion (see the unlink
        // sites in `cdrc::strong`/`cdrc::weak`). On x86-64 this load is a
        // plain `mov` either way. Checked: the `model_check` suite's
        // `epoch_clock_acquire_load_is_unsound` demonstrates a
        // use-after-free interleaving when this load is weakened to
        // Acquire — it must participate in the SC order, not merely
        // synchronize with `advance`.
        self.epoch.load(Ordering::SeqCst)
    }

    /// Advances the epoch by one.
    #[inline]
    pub fn advance(&self) {
        // Ordering: AcqRel (relaxed from the original SeqCst, PR 9) — the
        // clock is a monotone counter: an RMW always reads the latest
        // value in the modification order, so increments never collide,
        // and the soundness argument above needs only the *load* sites
        // (retire stamping) and the section-entry fences in the SC order;
        // the advance itself just has to publish (Release) the value the
        // advancing thread built on and to extend the release sequence
        // readers acquire through. Checked: the `model_check` suite
        // explores all epoch-clock interleavings with this ordering and
        // finds no under-stamped retire; a locked RMW on x86-64 compiles
        // identically at any ordering.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

/// Tuning knobs for a scheme instance. Obtain a scheme's preferred defaults
/// from [`AcquireRetire::default_config`] and adjust from there.
#[derive(Debug, Clone)]
pub struct SmrConfig {
    /// Advance the global epoch every `epoch_freq` allocations (per thread).
    /// The paper tunes this to 10 for EBR and 40 for IBR (§5.1).
    pub epoch_freq: u64,
    /// Scan the retired list for ejectable entries once it holds this many
    /// items (protected-region schemes and the floor for HP).
    pub eject_threshold: usize,
    /// Announcement slots per thread available to `try_acquire` (HP only;
    /// at most 32, one bit each in the slot's free mask). One extra
    /// reserved slot makes `acquire` total.
    pub hp_slots: usize,
    /// Retired nodes per Hyaline batch.
    pub batch_size: usize,
    /// Robustness escape hatch: a per-thread unreclaimed-garbage watermark
    /// (`None` = off, the default). When a thread's deferred garbage on one
    /// instance exceeds the watermark and it is *not* inside a critical
    /// section, the scheme takes scheme-specific corrective action so a
    /// stalled reader elsewhere caps garbage instead of pinning it forever:
    ///
    /// * **EBR** — bounded retire-side backpressure: the retiring thread
    ///   scans and briefly sleeps for up to a fixed number of rounds, so
    ///   over-watermark garbage production slows to a crawl (a *soft* cap —
    ///   liveness is preserved by giving up after the round limit).
    /// * **IBR** — interval tightening: a scan that starts over the
    ///   watermark advances the epoch clock first, so subsequently allocated
    ///   objects are born outside every currently announced interval and
    ///   their retirement is never pinned by an already-stalled reader
    ///   (shrinks the constant in IBR's structural bound). Inside sections
    ///   too, at the scans' own cadence: one per `eject_threshold` retires.
    /// * **Hyaline** — the same bounded backpressure as EBR, keyed off an
    ///   instance-wide count of distributed-but-unclaimed retirements
    ///   (Hyaline-1's garbage under a stalled reader is otherwise unbounded:
    ///   every batch distributed during the stalled section holds a
    ///   reference from it).
    /// * **HP** — ignored: garbage is already bounded by the number of
    ///   published hazard slots, by construction.
    pub max_garbage: Option<usize>,
}

impl Default for SmrConfig {
    fn default() -> Self {
        SmrConfig {
            epoch_freq: 10,
            eject_threshold: 128,
            hp_slots: 16,
            batch_size: 32,
            max_garbage: None,
        }
    }
}

/// The generalized acquire-retire interface (paper Fig. 2).
///
/// One value of an implementing type is one *instance* of the scheme: it has
/// its own announcements and retired lists, but may share a [`GlobalEpoch`]
/// with sibling instances.
///
/// # Safety
///
/// Implementations must satisfy the acquire-retire specification
/// (Definition 3.3): under proper use, an [`eject`](Self::eject) may return a
/// pointer only when, for some valid mapping of acquires and ejects to
/// retires, every acquire mapped to the same retire has been released; and a
/// pointer is ejected at most as many times as it was retired. Protected-
/// region implementations must ensure no pointer retired during an active
/// critical section is ejected until that section ends.
///
/// # Proper use (caller obligations)
///
/// * Every `acquire`/`try_acquire` happens inside a critical section of this
///   instance (for protected-pointer schemes critical sections are no-ops,
///   but the discipline is uniform).
/// * Guards are released exactly once, by the thread that acquired them.
/// * A thread holds at most one plain-`acquire` guard at a time.
/// * `src` locations passed to `acquire`/`try_acquire` must remain readable
///   for the duration of the call (e.g. they live in an object the caller
///   has protected, or on the caller's stack).
/// * Threads do not exit inside critical sections or while holding guards.
pub unsafe trait AcquireRetire: Send + Sync + 'static {
    /// Token witnessing the protection of one acquired pointer.
    type Guard: Copy + Debug + Send;

    /// What a managed object keeps of its birth epoch, and a retired entry
    /// with it: `u64` for a scheme whose eject rule reads the birth (IBR),
    /// `()` for the others (EBR, HP, Hyaline), so that neither a control
    /// block nor a stored entry carries a word nobody reads.
    type Birth: Copy + Default + Send + Sync + Debug + 'static;

    /// Whether critical sections protect *all* reads (protected-region
    /// schemes: EBR, IBR, Hyaline). Protected-pointer schemes (HP) set this
    /// to `false`: only acquired pointers are protected, so unbounded
    /// traversals (range queries) cannot be protected manually.
    ///
    /// A scheme that sets this to `true` also promises that its guards
    /// carry nothing: [`try_acquire`](Self::try_acquire) never fails and
    /// [`release`](Self::release) does nothing, so a consumer may drop such
    /// a guard without releasing it (`cdrc` does, which is what makes a
    /// snapshot under a region scheme a bare word).
    const PROTECTS_REGIONS: bool;

    /// Whether an *active critical section alone* protects every pointer
    /// read from a live location during the section — including objects
    /// born after the section began — without a per-read
    /// [`acquire`](Self::acquire). True for EBR (a retire issued while any
    /// section is active stamps an epoch ≥ that section's announcement, so
    /// it cannot eject until the section ends) and Hyaline (retired batches
    /// count every active section at retire time). **False for IBR**, even
    /// though it protects regions: interval protection only covers objects
    /// born ≤ the announced upper bound, and extending that bound is
    /// exactly what `acquire`'s announce-then-revalidate-against-the-live-
    /// word loop does — a value observed earlier (e.g. a CAS failure
    /// witness) may name an object born after the announced interval, which
    /// a concurrent scan is free to reclaim. False for HP (no region
    /// protection at all). Consumers with a previously-observed word must
    /// re-acquire from the live location unless this is true.
    const PROTECTS_SECTION_READS: bool;

    /// Creates an instance backed by `clock` with tuning `config`.
    fn new(clock: Arc<GlobalEpoch>, config: SmrConfig) -> Self;

    /// The scheme's preferred tuning (paper §5.1 values).
    fn default_config() -> SmrConfig;

    /// Short human-readable scheme name (for benchmark tables).
    fn scheme_name() -> &'static str;

    /// Enters a read critical section. Nestable: only the outermost call has
    /// effect.
    fn begin_critical_section(&self, t: Tid);

    /// Leaves the current read critical section (outermost call only), and
    /// returns whether the section it closed was the outermost one. After
    /// an outermost exit the thread holds no section on this instance, so a
    /// consumer may run its own section-exit work there (`cdrc` flushes its
    /// batched decrements); what it retires then is a fresh retire.
    fn end_critical_section(&self, t: Tid) -> bool;

    /// Hook invoked once per allocation of a managed object: advances the
    /// epoch according to `epoch_freq` and returns the object's birth epoch
    /// (zero for schemes that do not use one). This is the paper's `alloc`
    /// customization point, needed by IBR-style schemes. The public-record
    /// form of [`birth`](Self::birth).
    fn birth_epoch(&self, t: Tid) -> u64;

    /// [`birth_epoch`](Self::birth_epoch) in the form the scheme keeps:
    /// the epoch under IBR, `()` (the clock still ticks) elsewhere. What
    /// an object allocated now should store for
    /// [`retire_born`](Self::retire_born).
    fn birth(&self, t: Tid) -> Self::Birth;

    /// Reads the pointer word at `src` and protects it until the returned
    /// guard is released. Always succeeds; a thread may hold only one such
    /// guard at a time (use [`try_acquire`](Self::try_acquire) for more).
    fn acquire(&self, t: Tid, src: &AtomicUsize) -> (usize, Self::Guard);

    /// Reads the pointer word at `src` and tries to protect it. Returns
    /// `None` if the scheme is out of protection resources (e.g. hazard
    /// slots); protected-region schemes never fail.
    fn try_acquire(&self, t: Tid, src: &AtomicUsize) -> Option<(usize, Self::Guard)>;

    /// Releases the protection witnessed by `guard`.
    fn release(&self, t: Tid, guard: Self::Guard);

    /// Registers `r` for deferred hand-back. The same address may be retired
    /// any number of times; each retire will be matched by (at most) one
    /// eject. The deferred operation (free, decrement, dispose, …) is the
    /// caller's business — this crate never dereferences `r.addr`.
    fn retire(&self, t: Tid, r: Retired);

    /// [`retire`](Self::retire) of the object at `addr`, born at `birth` —
    /// the stored form, so a caller that keeps births the scheme's size
    /// never widens them to a [`Retired`].
    ///
    /// `addr` may carry [`TAG_MASK`] bits, which [`eject`](Self::eject)
    /// hands back unchanged. Protection ignores them, except that HP's
    /// multi-retire accounting is per tag: a scan keeps
    /// `min(#retired, #announced)` copies of an announced address under
    /// each tag, so every hazard covers one entry of each.
    fn retire_born(&self, t: Tid, addr: usize, birth: Self::Birth);

    /// Returns a previously retired pointer that is no longer protected, if
    /// one is ready: the word given to `retire`, tag bits included (the
    /// birth stayed behind). Callers apply the deferred operation
    /// themselves and must not call `eject` recursively from within it.
    fn eject(&self, t: Tid) -> Option<usize>;

    /// Whether [`eject`](Self::eject) would currently return `Some` — a
    /// cheap thread-local peek that lets callers skip their eject loop's
    /// setup entirely on the (overwhelmingly common) empty case. `true` is
    /// always a safe answer.
    fn has_ready(&self, t: Tid) -> bool;

    /// Whether *no* thread currently holds any protection on this instance:
    /// no critical section is active and (for hazard-pointer schemes) no
    /// hazard slot is published. When this returns `true`, a reference
    /// unlinked from a shared location *before* the call may be handed back
    /// immediately instead of routed through [`retire`](Self::retire) —
    /// every section that could have read the location while it still named
    /// the reference has ended, and a section that begins after the check
    /// revalidates against the live location, which no longer names it (the
    /// same fence pairing that makes a scan with no announcements eject
    /// everything). The check pays a scan-grade `SeqCst` fence plus one
    /// announcement sweep, so callers should amortize it over a batch.
    /// `false` is always a safe answer: callers fall back to the retire
    /// path.
    fn quiescent(&self) -> bool;

    /// Hazard-pointer schemes (`!PROTECTS_REGIONS`) only: after a
    /// scan-grade `SeqCst` fence, fills `out` with every address each
    /// thread's announcements on this instance held at one instant (an
    /// instant per thread; the order is unspecified, duplicates are
    /// possible), and returns `true`. Returns `false` when some thread's
    /// announcements kept changing and no such instant was caught; then
    /// `out` means nothing, and callers fall back to the retire path.
    ///
    /// A reader that publishes a hazard before that fence and still holds
    /// it at its instant is in `out`, and so is a hazard it published
    /// before clearing one that was. A reader that publishes after the
    /// fence validates against locations that already show everything the
    /// caller did before the call. Region schemes have no per-pointer
    /// announcement and never call it (their policy's default panics).
    fn hazard_snapshot(&self, out: &mut Vec<usize>) -> bool;

    /// Forces a scan so that everything ejectable becomes ready; a no-op
    /// when `t`'s retired list is empty and nothing was handed off
    /// ([`hand_off`](Self::hand_off)). A scan of a non-empty list sweeps
    /// every announcement, so callers flush where a list may otherwise
    /// never reach the amortized threshold: teardown, benchmark phase
    /// changes, and (in `cdrc`) a quiescent settle or the section exit
    /// of a thread that defers disposals.
    fn flush(&self, t: Tid);

    /// Hands what thread `t` still holds retired (or ready) to the
    /// instance's other threads: the entries go to a shared box, and the
    /// next outermost section exit or [`flush`](Self::flush) of any thread
    /// adopts them into its own lists and scans them. For a thread that is
    /// about to exit, outside every section: another thread's section may
    /// still pin its entries, and otherwise nobody scans them until the
    /// slot's next owner does.
    fn hand_off(&self, t: Tid);

    /// Takes *every* retired word out of the instance, protected or not, in
    /// the form [`eject`](Self::eject) hands back.
    ///
    /// # Safety
    ///
    /// Callable only when no other thread is concurrently using this
    /// instance and no critical section is active (typically: after joining
    /// all worker threads, or from `Drop` of an owning domain).
    unsafe fn drain_all(&self) -> Vec<usize>;

    /// Dead-thread recovery: force-closes slot `dead`'s protection on this
    /// instance (open critical-section announcement, published hazard
    /// slots, Hyaline handoff list) and migrates its deferred state
    /// (retired and ready lists, partial batches) into slot `into`'s lists
    /// so the caller's subsequent scans can eject it. After the call, slot
    /// `dead` holds no protection and no stranded garbage on this instance
    /// and is safe to hand to a new owner.
    ///
    /// # Safety
    ///
    /// * The thread that owned slot `dead` has terminated, and the caller
    ///   has a happens-before edge to its death (thread join, or an
    ///   `Acquire` observation of [`slot_abandoned`]`(dead)`) — the call
    ///   reads the dead thread's plain-written per-slot state.
    /// * `into` is the *calling* thread's own [`Tid`], and the caller is not
    ///   inside a critical section on this instance.
    /// * No other thread concurrently reclaims the same `dead` slot.
    unsafe fn reclaim_slot(&self, dead: Tid, into: Tid);
}

/// An *owned* re-entrant critical-section guard over a shared scheme
/// instance — the amortized-section facility for guard-centric operation
/// APIs (§3.4: the per-section fence only pays off when amortized over many
/// operations).
///
/// A `SectionGuard` clones the instance's `Arc` rather than borrowing the
/// scheme, so a data structure can hand one out without tying the guard's
/// lifetime to a borrow of itself. Critical sections nest
/// (only the outermost `begin`/`end` pair touches the announcement), so
/// operations invoked under a held guard may still open their own inner
/// section safely — they just no longer pay the announcement fence.
///
/// Not `Send`: the guard captures the calling thread's [`Tid`] and the
/// matching `end_critical_section` must run on that same thread.
pub struct SectionGuard<S: AcquireRetire> {
    scheme: Arc<S>,
    t: Tid,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl<S: AcquireRetire> SectionGuard<S> {
    /// Enters a critical section on `scheme` for the current thread, held
    /// open until the guard drops.
    pub fn enter(scheme: Arc<S>) -> Self {
        let t = current_tid();
        scheme.begin_critical_section(t);
        SectionGuard {
            scheme,
            t,
            _not_send: std::marker::PhantomData,
        }
    }

    /// The thread id the section was opened under.
    #[inline]
    pub fn tid(&self) -> Tid {
        self.t
    }

    /// The scheme instance this guard's section protects.
    #[inline]
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Whether this guard's section protects reads against `instance` —
    /// pointer equality on the `Arc`, i.e. both refer to the same scheme
    /// *instance*, which for the manual structures is their reclamation
    /// domain (each structure owns one). Structure operations taking a
    /// caller-provided guard assert this in debug builds: a guard over a
    /// *different* instance provides
    /// no protection at all, even when the scheme type matches — the
    /// reference-counted structures make the same identity check on their
    /// `cdrc::DomainRef` (`CsGuard::covers`).
    #[inline]
    pub fn covers(&self, instance: &Arc<S>) -> bool {
        Arc::ptr_eq(&self.scheme, instance)
    }
}

impl<S: AcquireRetire> Drop for SectionGuard<S> {
    fn drop(&mut self) {
        // Runs during panic unwinds too: ending the section is pure
        // announcement bookkeeping, so a panicking operation never strands
        // an open section pinning everyone else's garbage.
        self.scheme.end_critical_section(self.t);
    }
}

impl<S: AcquireRetire> Debug for SectionGuard<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SectionGuard")
            .field("scheme", &S::scheme_name())
            .field("tid", &self.t)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untagged_strips_low_bits() {
        assert_eq!(untagged(0x1000 | 0b101), 0x1000);
        assert_eq!(untagged(0x1000), 0x1000);
        assert_eq!(untagged(0), 0);
    }

    #[test]
    fn global_epoch_monotone() {
        let e = GlobalEpoch::new();
        assert_eq!(e.load(), 0);
        e.advance();
        e.advance();
        assert_eq!(e.load(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tagged")]
    fn retired_rejects_tagged() {
        let _ = Retired::new(0x1000 | 1, 0);
    }

    #[test]
    fn section_guard_nests_and_covers() {
        let ebr = Arc::new(Ebr::new(
            Arc::new(GlobalEpoch::new()),
            Ebr::default_config(),
        ));
        let other = Arc::new(Ebr::new(
            Arc::new(GlobalEpoch::new()),
            Ebr::default_config(),
        ));
        let t = current_tid();
        let outer = SectionGuard::enter(Arc::clone(&ebr));
        assert!(outer.covers(&ebr));
        assert!(!outer.covers(&other));
        assert_eq!(outer.tid(), t);
        {
            // Inner sections under a held guard are fine: begin/end nest.
            let inner = SectionGuard::enter(Arc::clone(&ebr));
            assert!(inner.covers(&ebr));
        }
        // Acquire still works under the (outer) section after inner exits.
        let src = crate::sync::atomic::AtomicUsize::new(0x2000);
        let (w, g) = outer.scheme().acquire(t, &src);
        assert_eq!(w, 0x2000);
        outer.scheme().release(t, g);
    }
}
