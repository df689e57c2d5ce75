//! Process-wide thread slot registry.
//!
//! Every scheme instance keeps per-thread state in a fixed array of
//! [`MAX_THREADS`] slots. The registry hands each OS thread a slot index
//! ([`Tid`]) on first use and recycles it when the thread exits. Because the
//! per-slot state (retired lists, announcement caches) lives inside the
//! scheme instances, a recycled slot's new owner transparently inherits and
//! eventually drains its predecessor's retired lists — no orphan lists are
//! needed.

use std::cell::{Cell, RefCell};
use std::sync::Mutex;

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
// The registry is process-global infrastructure shared across model-checker
// iterations: every atomic access below runs under `exempt` so slot
// bookkeeping never enters the model (and never leaks per-iteration state).
use crate::sync::exempt;

use crate::util::CachePadded;

/// Maximum number of concurrently live threads that may use SMR schemes.
///
/// The paper's experiments use up to 192 threads; we provision 256. Exceeding
/// this panics with a clear message.
pub const MAX_THREADS: usize = 256;

/// A thread's slot index in every scheme instance's per-thread arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tid(pub(crate) usize);

impl Tid {
    /// The slot index, in `0..MAX_THREADS`.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

struct Registry {
    in_use: [AtomicBool; MAX_THREADS],
    /// One past the highest slot ever used: scans iterate only `0..hwm`.
    hwm: AtomicUsize,
    active: AtomicUsize,
}

#[allow(clippy::declare_interior_mutable_const)]
const FREE: AtomicBool = AtomicBool::new(false);

static REGISTRY: Registry = Registry {
    in_use: [FREE; MAX_THREADS],
    hwm: AtomicUsize::new(0),
    active: AtomicUsize::new(0),
};

#[allow(clippy::declare_interior_mutable_const)]
const BEAT_ZERO: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));

/// Per-slot liveness heartbeats, bumped by the engines at every outermost
/// section boundary and by slot acquire/release. Padded: each slot's counter
/// is written by exactly one thread on its section fast path, so sharing a
/// cache line across slots would make unrelated threads bounce it.
static HEARTBEATS: [CachePadded<AtomicU64>; MAX_THREADS] = [BEAT_ZERO; MAX_THREADS];

#[allow(clippy::declare_interior_mutable_const)]
const NOT_ABANDONED: AtomicBool = AtomicBool::new(false);

/// Set for a slot whose owner declared (via [`abandon_current_slot`]) that it
/// is about to die without unregistering — the simulated-`SIGKILL` ground
/// truth the reaper's heartbeat heuristic is validated against.
static ABANDONED: [AtomicBool; MAX_THREADS] = [NOT_ABANDONED; MAX_THREADS];

/// A dead-slot reaper registered by a consumer (the `cdrc` domain registers
/// one per domain). Invoked with the orphaned [`Tid`] during
/// [`reclaim_orphaned_slot`]; returns `false` when the consumer is gone and
/// the reaper should be pruned.
type OrphanReaper = Box<dyn Fn(Tid) -> bool + Send + Sync>;

static ORPHAN_REAPERS: Mutex<Vec<OrphanReaper>> = Mutex::new(Vec::new());

impl Registry {
    fn acquire_slot(&self) -> usize {
        exempt(|| self.acquire_slot_inner())
    }

    fn acquire_slot_inner(&self) -> usize {
        for i in 0..MAX_THREADS {
            // Ordering: Relaxed pre-check — a cheap filter; the CAS below is
            // the authoritative claim.
            if !self.in_use[i].load(Ordering::Relaxed)
                && self.in_use[i]
                    // Ordering: AcqRel on success — Acquire synchronizes with
                    // the releasing thread's Release store so the new owner
                    // sees the predecessor's per-slot scheme state (retired
                    // lists it will inherit and drain); Release publishes the
                    // claim. Relaxed on failure: a lost race carries no data.
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // Ordering: Release (fetch_max) — the high-water mark must be
                // visible no later than any announcement this thread makes
                // through its new slot. Scanners read the mark after their
                // own SeqCst fence and iterate `0..hwm`; a momentarily stale
                // mark can only hide a thread whose announcement the scanner
                // also cannot see yet, which the engines' fence pairing
                // already treats as "entered after the scan" (safe).
                self.hwm.fetch_max(i + 1, Ordering::Release);
                // Ordering: Relaxed — `active` is a diagnostic gauge; no
                // reader derives protection from it.
                self.active.fetch_add(1, Ordering::Relaxed);
                // Fresh owner: advance the liveness heartbeat so an
                // `OrphanWatch` does not inherit the predecessor's
                // stagnation count for this slot.
                beat(Tid(i));
                return i;
            }
        }
        panic!("more than MAX_THREADS ({MAX_THREADS}) concurrent threads are using SMR schemes");
    }

    fn release_slot(&self, i: usize) {
        exempt(|| {
            // Ordering: Relaxed — diagnostic gauge, see `acquire_slot`.
            self.active.fetch_sub(1, Ordering::Relaxed);
            // Ordering: Release — publishes everything this thread did through
            // the slot (its scheme-local state) to the next owner, whose
            // claiming CAS Acquires it.
            self.in_use[i].store(false, Ordering::Release);
        });
    }
}

/// Bumps slot `t`'s liveness heartbeat. Engines call this at outermost
/// section boundaries; the orphan detector ([`OrphanWatch`]) flags slots
/// whose beat stops advancing.
#[inline]
pub(crate) fn beat(t: Tid) {
    exempt(|| {
        let h = &HEARTBEATS[t.index()];
        // Ordering: Relaxed — single-writer diagnostic counter on its own
        // cache line; no protection decision reads it, only the stall
        // heuristic.
        h.store(h.load(Ordering::Relaxed).wrapping_add(1), Ordering::Relaxed);
    });
}

/// Reads slot `t`'s liveness heartbeat (see [`OrphanWatch`]).
pub(crate) fn heartbeat_of(t: Tid) -> u64 {
    exempt(|| HEARTBEATS[t.index()].load(Ordering::Relaxed))
}

/// Whether slot `t` is currently claimed by some thread (live or dead).
pub fn slot_in_use(t: Tid) -> bool {
    exempt(|| REGISTRY.in_use[t.index()].load(Ordering::Acquire))
}

/// Whether slot `t`'s owner declared via [`abandon_current_slot`] that it
/// died without unregistering.
pub fn slot_abandoned(t: Tid) -> bool {
    // Ordering: Acquire — pairs with the Release store in
    // `abandon_current_slot`: observing the flag also makes every write the
    // dead thread performed through its scheme slots visible, which is what
    // lets a reaper touch that state without a data race.
    exempt(|| ABANDONED[t.index()].load(Ordering::Acquire))
}

/// A thread-exit callback; receives the unregistering thread's [`Tid`].
type ExitCallback = Box<dyn FnMut(Tid)>;

struct SlotGuard {
    index: usize,
    /// Callbacks run (in registration order) when this thread unregisters,
    /// *before* the slot is recycled — consumers use them to flush
    /// thread-local deferred state that would otherwise be stranded. Stored
    /// inside the guard so they run exactly at slot release, independent of
    /// the platform's TLS destructor ordering.
    exit_callbacks: RefCell<Vec<ExitCallback>>,
    /// When set (by [`abandon_current_slot`]), the drop skips both the
    /// callback drain and the slot release — the thread "dies" the way a
    /// `SIGKILL`'d one would, leaving its slot claimed and its announcements
    /// published until a reaper recovers them.
    abandoned: Cell<bool>,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if self.abandoned.get() {
            return;
        }
        let t = Tid(self.index);
        // Take the list first so the borrow is released while callbacks
        // run. Re-registration during the drain is impossible:
        // `on_thread_exit` refuses once this destructor has started.
        let mut cbs = std::mem::take(&mut *self.exit_callbacks.borrow_mut());
        for cb in cbs.iter_mut() {
            cb(t);
        }
        // Leak check + shadow reset before the slot becomes reusable. Runs
        // from a TLS destructor, so leaks are logged rather than panicked.
        crate::sanitize::on_thread_unregister(t);
        // `CACHED` is const-initialized and has no destructor, so
        // `current_tid()` stays answerable from inside the callbacks.
        REGISTRY.release_slot(self.index);
    }
}

thread_local! {
    static SLOT: SlotGuard = SlotGuard {
        index: REGISTRY.acquire_slot(),
        exit_callbacks: RefCell::new(Vec::new()),
        abandoned: Cell::new(false),
    };
    /// Cached index so the hot path is a plain thread-local read.
    static CACHED: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Simulates this thread dying without unregistering (fault injection for
/// [`FaultKind::DeadThreadInSection`](crate::fault::FaultKind) and
/// [`FaultKind::DropMidBatch`](crate::fault::FaultKind)): the thread's
/// [`Tid`] is marked abandoned, its exit callbacks are suppressed, and its
/// slot stays claimed after the thread exits — exactly the wreckage a killed
/// thread leaves. Returns the abandoned [`Tid`].
///
/// After calling this the thread must not touch any SMR state again; the
/// slot (including any open announcements and deferred batches) becomes the
/// property of whoever calls [`reclaim_orphaned_slot`] once the thread has
/// actually terminated.
pub fn abandon_current_slot() -> Tid {
    let t = current_tid();
    SLOT.with(|s| s.abandoned.set(true));
    // The slot's protections are now deliberate wreckage for a reaper to
    // recover — drop them from the sanitizer's shadow without leak reports.
    crate::sanitize::on_thread_abandon(t);
    // Ordering: Release — publishes everything this thread wrote through its
    // scheme slots (open announcements, half-filled batches, retired lists)
    // to the reaper, whose `slot_abandoned` Acquire load pairs with this.
    exempt(|| ABANDONED[t.index()].store(true, Ordering::Release));
    t
}

/// Registers a process-wide dead-slot reaper, called with the orphaned
/// [`Tid`] whenever [`reclaim_orphaned_slot`] recovers a slot. The reaper
/// returns `false` when its consumer no longer exists, which prunes it.
///
/// The `cdrc` domain registers one reaper per domain (holding a weak handle)
/// that force-closes the dead thread's sections on all three of its scheme
/// instances and drains the orphaned decrement batch.
pub fn register_orphan_reaper(f: Box<dyn Fn(Tid) -> bool + Send + Sync>) {
    ORPHAN_REAPERS.lock().unwrap().push(f);
}

/// Recovers the slot of a thread that died without unregistering: runs every
/// registered orphan reaper for `t` (force-closing announcements and
/// draining orphaned batches), then releases the slot for reuse. Returns
/// `false` (doing nothing) if the slot is not currently claimed.
///
/// Detection is the caller's burden — pair an [`OrphanWatch`] (no heartbeat
/// progress across K observations) with out-of-band knowledge that the owner
/// is dead, or use the [`abandon_current_slot`] ground truth in tests.
///
/// # Safety
///
/// The thread that owned slot `t` must have terminated (or be permanently
/// guaranteed never to touch SMR state again), and the caller must have a
/// happens-before edge to its death — joining the thread, or observing
/// [`slot_abandoned`]`(t)`. Reclaiming a slot whose owner is merely *slow*
/// is unsound: the owner would keep using per-slot state concurrently with
/// the reapers and with the slot's next owner. The calling thread must be
/// registered and must not be `t` itself.
pub unsafe fn reclaim_orphaned_slot(t: Tid) -> bool {
    assert_ne!(t, current_tid(), "a thread cannot reap its own slot");
    if !slot_in_use(t) {
        return false;
    }
    let mut reapers = ORPHAN_REAPERS.lock().unwrap();
    reapers.retain(|reap| reap(t));
    drop(reapers);
    // The dead slot's sections and tokens were force-closed by the reapers;
    // clear its shadow so the next owner does not inherit phantom state.
    crate::sanitize::on_slot_reclaimed(t);
    // Ordering: Release — the reapers' recovery writes above happen-before
    // any thread that observes the slot un-abandoned and claims it.
    exempt(|| ABANDONED[t.index()].store(false, Ordering::Release));
    beat(t);
    REGISTRY.release_slot(t.index());
    true
}

/// Heartbeat-stagnation detector for orphaned slots.
///
/// Call [`observe`](OrphanWatch::observe) periodically (e.g. once per scan
/// interval); a claimed slot whose heartbeat has not advanced across `k`
/// consecutive observations is reported as a suspect. Suspicion is a
/// heuristic, not proof: a live-but-idle thread (registered, doing no SMR
/// work) and a reader stalled inside a section look identical to a dead
/// thread. Reaping a suspect therefore still requires the out-of-band
/// certainty of death documented on [`reclaim_orphaned_slot`].
#[derive(Debug)]
pub struct OrphanWatch {
    last: [u64; MAX_THREADS],
    stagnant: [u32; MAX_THREADS],
    k: u32,
}

impl OrphanWatch {
    /// A watch flagging slots stagnant for `k` consecutive observations.
    pub fn new(k: u32) -> Self {
        OrphanWatch {
            last: [0; MAX_THREADS],
            stagnant: [0; MAX_THREADS],
            k: k.max(1),
        }
    }

    /// Samples every claimed slot's heartbeat and returns the current
    /// suspects (claimed, stagnant for ≥ `k` observations).
    pub fn observe(&mut self) -> Vec<Tid> {
        let mut suspects = Vec::new();
        let hwm = registered_high_water_mark();
        for i in 0..hwm {
            let t = Tid(i);
            if !slot_in_use(t) {
                self.stagnant[i] = 0;
                continue;
            }
            let now = heartbeat_of(t);
            if now == self.last[i] {
                self.stagnant[i] = self.stagnant[i].saturating_add(1);
            } else {
                self.last[i] = now;
                self.stagnant[i] = 0;
            }
            if self.stagnant[i] >= self.k {
                suspects.push(t);
            }
        }
        suspects
    }
}

/// Registers a callback to run when the **current thread** releases its SMR
/// slot (normally at thread exit; for the main thread, at process teardown
/// if TLS destructors run at all). The callback receives the thread's [`Tid`]
/// and runs before the slot becomes reusable by other threads.
///
/// Returns `false` — without registering — when the thread is already
/// unregistering (the callback drain is in progress or finished); the
/// caller must then perform its teardown work synchronously instead of
/// deferring it. Callbacks may call [`current_tid`] and use scheme
/// instances, but must not spawn work on other threads.
pub fn on_thread_exit(f: Box<dyn FnMut(Tid)>) -> bool {
    SLOT.try_with(|s| s.exit_callbacks.borrow_mut().push(f))
        .is_ok()
}

/// Returns the calling thread's [`Tid`], registering the thread on first use.
///
/// # Panics
///
/// Panics if more than [`MAX_THREADS`] threads are concurrently registered,
/// or if called during thread teardown after the slot was already released.
#[inline]
pub fn current_tid() -> Tid {
    let cached = CACHED.with(|c| c.get());
    if cached != usize::MAX {
        return Tid(cached);
    }
    let idx = SLOT.with(|s| s.index);
    CACHED.with(|c| c.set(idx));
    Tid(idx)
}

/// Non-panicking [`current_tid`]: answers `None` for an unregistered thread
/// or during thread teardown after the slot was released, instead of
/// registering or panicking. Diagnostic paths (the sanitizer's event trail)
/// use this so they stay callable from TLS destructors.
#[allow(dead_code)] // only read by the sanitize feature's real half
pub(crate) fn try_tid() -> Option<Tid> {
    let cached = CACHED.with(|c| c.get());
    if cached != usize::MAX {
        return Some(Tid(cached));
    }
    SLOT.try_with(|s| {
        CACHED.with(|c| c.set(s.index));
        Tid(s.index)
    })
    .ok()
}

/// Number of threads currently registered.
pub fn active_threads() -> usize {
    // Ordering: Relaxed — a monotone-in/monotone-out gauge read for
    // diagnostics only; no protection decision depends on it.
    exempt(|| REGISTRY.active.load(Ordering::Relaxed))
}

/// One past the highest slot index ever handed out — the bound scheme scans
/// iterate to, so scan cost tracks actual parallelism rather than
/// [`MAX_THREADS`].
pub fn registered_high_water_mark() -> usize {
    // Ordering: Relaxed — the mark is monotone, and every scan that uses it
    // as an iteration bound reads it *after* its own `fence(SeqCst)`. A
    // thread whose registration this read misses also has its announcement
    // invisible to this scan, which the engines' fence pairing already
    // classifies as "entered after the scan": such a thread observes the
    // unlinks that preceded the scan fence and cannot reach scanned-away
    // objects. (Registration is sequenced before any announcement through
    // the slot, so seeing the announcement implies seeing the mark.)
    exempt(|| REGISTRY.hwm.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tid_is_stable_within_a_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
        assert!(a.index() < MAX_THREADS);
    }

    #[test]
    fn distinct_threads_get_distinct_tids() {
        let mine = current_tid();
        let theirs = std::thread::spawn(current_tid).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn slots_are_recycled_after_exit() {
        // Run enough short-lived threads that slots must be reused.
        for _ in 0..(2 * MAX_THREADS) {
            std::thread::spawn(|| {
                let t = current_tid();
                assert!(t.index() < MAX_THREADS);
            })
            .join()
            .unwrap();
        }
        assert!(registered_high_water_mark() <= MAX_THREADS);
    }

    #[test]
    fn exit_callbacks_run_at_thread_unregister() {
        use crate::sync::atomic::AtomicUsize as Count;
        use std::sync::Arc;
        let fired = Arc::new(Count::new(0));
        let seen_tid = Arc::new(Count::new(usize::MAX));
        let registered_tid = {
            let fired = Arc::clone(&fired);
            let seen_tid = Arc::clone(&seen_tid);
            std::thread::spawn(move || {
                let t = current_tid();
                let ok = on_thread_exit(Box::new(move |cb_t: Tid| {
                    fired.fetch_add(1, Ordering::SeqCst);
                    seen_tid.store(cb_t.index(), Ordering::SeqCst);
                    // The slot is still ours while the drain runs.
                    assert_eq!(current_tid(), cb_t);
                }));
                assert!(ok, "registration on a live thread succeeds");
                t.index()
            })
            .join()
            .unwrap()
        };
        assert_eq!(fired.load(Ordering::SeqCst), 1, "callback ran once");
        assert_eq!(seen_tid.load(Ordering::SeqCst), registered_tid);
    }

    #[test]
    fn hwm_covers_all_active_tids() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    let t = current_tid();
                    assert!(t.index() < registered_high_water_mark());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
