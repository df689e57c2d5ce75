//! Wait-free *sticky* reference counters.
//!
//! This crate implements the constant-time, wait-free counter of Anderson,
//! Blelloch and Wei ("Turning Manual Concurrent Memory Reclamation into
//! Automatic Reference Counting", PLDI 2022, Figure 7). A sticky counter is an
//! atomic counter supporting three operations, each taking *O(1)* time in the
//! worst case using single-word atomic instructions:
//!
//! * [`increment_if_not_zero`](Counter::increment_if_not_zero) — add one,
//!   unless the counter has already reached zero, in which case the counter
//!   is left at zero ("stuck") and `false` is returned;
//! * [`decrement`](Counter::decrement) — subtract one, reporting whether this
//!   call was the one that brought the counter to zero;
//! * [`load`](Counter::load) — a linearizable read of the current value.
//!
//! Once a sticky counter reaches zero it stays at zero forever; this is
//! exactly the semantics needed by a *strong* reference count in the presence
//! of weak pointers: upgrading a weak pointer must never resurrect an object
//! whose count already hit zero.
//!
//! The traditional implementation of increment-if-not-zero is a CAS loop
//! (provided here as [`CasCounter`] for comparison), which is lock-free but
//! not wait-free and degrades under contention. The sticky counter instead
//! reserves the two highest bits of the word: the *zero flag* (the counter is
//! zero iff this bit is set — note that a stored value of numeric `0` does
//! **not** mean the counter is zero!) and the *help flag* used by readers to
//! help a pending decrement-to-zero complete.
//!
//! # Width and overflow
//!
//! Both counters are one 32-bit word, so a control block's two counts share
//! one 8-byte field. Two bits are flags, which leaves a 30-bit count:
//! [`MAX_COUNT`] is 2³⁰ − 1 live references. An increment that would take
//! a live count past it aborts the process, as `Arc` does on overflow: the
//! check reads the value the increment's own RMW returned, so it costs one
//! compare on a value already in a register. Failed increments of a counter
//! stuck at zero also leave a +1 below the flags; the counter clears them
//! before they could reach the flag bits (see
//! [`increment_if_not_zero`](Counter::increment_if_not_zero)), so any
//! number of failed upgrades is harmless.
//!
//! # Examples
//!
//! ```
//! use sticky::{Counter, StickyCounter};
//!
//! let c = StickyCounter::new(1);
//! assert!(c.increment_if_not_zero()); // 2
//! assert!(!c.decrement());            // 1: not the last
//! assert!(c.decrement());             // 0: this call zeroed it
//! assert!(!c.increment_if_not_zero()); // stuck at zero
//! assert_eq!(c.load(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use smr::sync::atomic::{fence, AtomicU32, Ordering};
use std::fmt;

/// The interface shared by the wait-free [`StickyCounter`] and the CAS-loop
/// [`CasCounter`] baseline.
///
/// Implementations are *sticky*: after a [`decrement`](Counter::decrement)
/// brings the value to zero, every later
/// [`increment_if_not_zero`](Counter::increment_if_not_zero) fails and every
/// [`load`](Counter::load) returns `0`.
pub trait Counter: Send + Sync {
    /// Creates a counter holding `initial` references.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or exceeds [`MAX_COUNT`]: a counter is
    /// born alive — a "dead" counter can only arise by decrementing to zero.
    fn with_count(initial: u32) -> Self;

    /// Atomically increments the counter unless it is zero.
    ///
    /// Returns `true` if the increment took effect, `false` if the counter
    /// had already reached zero (in which case it remains zero). Aborts the
    /// process if the count was already [`MAX_COUNT`].
    fn increment_if_not_zero(&self) -> bool;

    /// Atomically decrements the counter.
    ///
    /// Returns `true` iff this call brought the counter to zero; exactly one
    /// of the calls that race to zero a counter observes `true`. Callers must
    /// own one reference: calling `decrement` more times than the counter was
    /// incremented is a logic error.
    fn decrement(&self) -> bool;

    /// A linearizable read of the current count (zero once stuck).
    fn load(&self) -> u32;
}

/// Highest bit: set iff the counter has reached zero (is "stuck").
const ZERO_FLAG: u32 = 1 << 31;
/// Second-highest bit: set by a helping `load` so that one racing
/// `decrement` can still claim responsibility for the zero transition.
const HELP_FLAG: u32 = 1 << 30;

/// Largest representable reference count: two bits of the 32-bit word are
/// reserved for flags, so 2³⁰ − 1. An increment past it aborts.
pub const MAX_COUNT: u32 = HELP_FLAG - 1;

/// Failed increments a stuck counter may collect below its flags before
/// one of them clears the lot: half the count field, far from the help
/// flag the next 2²⁹ would reach.
const STRAY_LIMIT: u32 = 1 << 29;

/// The overflow exit: a count that could wrap into the flag bits would
/// report a live object dead. Out of line, so the increment stays small.
#[cold]
#[inline(never)]
fn overflow() -> ! {
    // Like `Arc`: abort, not panic. A caught panic would leave the +1 in
    // place, and enough of them would carry the count into the flags.
    std::process::abort()
}

/// The wait-free sticky counter of PLDI 2022, Figure 7.
///
/// All three operations ([`increment_if_not_zero`](Counter::increment_if_not_zero),
/// [`decrement`](Counter::decrement), [`load`](Counter::load)) take constant
/// time in the worst case. A 32-bit word stores the count in the low 30 bits;
/// the two high bits are the zero flag and the help flag.
///
/// Memory ordering: the hot-path RMWs use the classic reference-count
/// discipline rather than the sequentially-consistent model the paper's
/// proof is carried out in — increments are `Relaxed` (the caller already
/// holds a reference or protection; every correctness decision is made from
/// the value the RMW itself returns), decrements are `Release` with an
/// `Acquire` fence on the zero transition. Every counter operation is an
/// RMW, so each `Release` decrement heads a release sequence that runs
/// through all later counter RMWs; the fence therefore synchronizes the
/// zero observer with *every* earlier decrement, and it is safe to destroy
/// the managed object after observing `true`. The relaxation is licensed by
/// the model-checked `sticky_release_decrement_is_sound` litmus, whose
/// `Relaxed` twin shows the boundary: without the `Release`, the disposer
/// can miss another owner's pre-decrement writes. The cold zero-transition
/// flag RMWs and `load` stay `SeqCst` (`load` advertises linearizability).
///
/// # Examples
///
/// ```
/// use sticky::{Counter, StickyCounter};
///
/// let c = StickyCounter::new(2);
/// assert_eq!(c.load(), 2);
/// assert!(!c.decrement());
/// assert!(c.decrement());
/// assert!(!c.increment_if_not_zero());
/// ```
pub struct StickyCounter {
    x: AtomicU32,
}

impl StickyCounter {
    /// Creates a counter holding `initial` references.
    ///
    /// # Panics
    ///
    /// Panics if `initial == 0` or `initial > MAX_COUNT`.
    pub fn new(initial: u32) -> Self {
        <Self as Counter>::with_count(initial)
    }

    /// Reads the raw representation (flags included). Test/debug aid.
    #[doc(hidden)]
    pub fn raw(&self) -> u32 {
        self.x.load(Ordering::SeqCst)
    }

    /// The cold half of an increment whose RMW returned `val ≥ MAX_COUNT`:
    /// a live count at the cap (abort), or a counter stuck at zero (fail).
    #[cold]
    fn increment_slow(&self, val: u32) -> bool {
        if val & ZERO_FLAG == 0 {
            overflow();
        }
        // Stuck: the +1 just added is a stray. Any value with ZERO_FLAG
        // reads as zero, but 2³⁰ strays would carry into the flag bits,
        // and with HELP_FLAG set that wraps the word to a live-looking 0
        // (2³¹ without it). So once they reach
        // half the field, clear them, keeping both flags as they are: a
        // pending help flag is still owed to the decrement that zeroed the
        // count (`decrement` swaps it away). One attempt is enough; if the
        // word moved, another increment moved it and will try again.
        let cur = val.wrapping_add(1);
        if cur & MAX_COUNT >= STRAY_LIMIT {
            // Ordering: Relaxed — the word stays stuck either way; no
            // reader decides anything from the stray count.
            let _ = self.x.compare_exchange(
                cur,
                cur & (ZERO_FLAG | HELP_FLAG),
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        false
    }
}

impl Counter for StickyCounter {
    fn with_count(initial: u32) -> Self {
        assert!(initial > 0, "sticky counter must be born alive");
        assert!(initial <= MAX_COUNT, "initial count exceeds MAX_COUNT");
        StickyCounter {
            x: AtomicU32::new(initial),
        }
    }

    #[inline]
    fn increment_if_not_zero(&self) -> bool {
        // One unconditional fetch-add. If the zero flag was set, the
        // counter is stuck at zero and the stray +1 below the flag bits is
        // harmless (every reader interprets any value with ZERO_FLAG as
        // zero; `increment_slow` keeps the strays from piling up). One
        // unsigned compare on the returned value sends both that case and
        // a live count already at `MAX_COUNT` to the cold path.
        // Ordering: Relaxed — as in `Arc::clone`. The success decision is
        // made entirely from the value this RMW returns (RMW atomicity
        // totally orders all counter operations); payload visibility comes
        // from the reference or protection the caller already holds, never
        // from the count.
        let val = self.x.fetch_add(1, Ordering::Relaxed);
        if val < MAX_COUNT {
            return true;
        }
        self.increment_slow(val)
    }

    #[inline]
    fn decrement(&self) -> bool {
        // Ordering: Release — orders this owner's payload accesses before
        // the count drop, so the eventual zero observer's Acquire fence
        // (below) sees them before disposing. Licensed by the model-checked
        // `sticky_release_decrement_is_sound` litmus; its Relaxed twin shows
        // the disposer missing another owner's writes without it.
        if self.x.fetch_sub(1, Ordering::Release) == 1 {
            // Ordering: fence(Acquire) — this call zeroed the count, so it
            // read the previous decrement's RMW. Every counter op is an
            // RMW, so each Release decrement heads a release sequence
            // reaching that value; the fence joins them all, making every
            // other owner's pre-decrement payload accesses visible before
            // the caller destroys the object.
            fence(Ordering::Acquire);
            // We brought the stored value to numeric 0: attempt to make the
            // zero official by installing the zero flag.
            let mut e = 0u32;
            match self
                .x
                .compare_exchange(e, ZERO_FLAG, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return true,
                Err(cur) => e = cur,
            }
            // The CAS failed: either an increment resurrected the transient
            // zero (we then linearize after that increment and report false),
            // or a helping `load` already installed ZERO_FLAG | HELP_FLAG. In
            // the latter case one decrement must still take credit: remove
            // the help flag with an exchange; whoever observes the flag owns
            // the zero transition.
            if (e & HELP_FLAG) != 0 && (self.x.swap(ZERO_FLAG, Ordering::SeqCst) & HELP_FLAG) != 0 {
                return true;
            }
        }
        false
    }

    #[inline]
    fn load(&self) -> u32 {
        let e = self.x.load(Ordering::SeqCst);
        if e == 0 {
            // Transient zero: a decrement is between its fetch-sub and its
            // flag CAS. To stay wait-free we *help*: try to install the zero
            // flag ourselves (with the help flag so a decrement can still
            // claim credit). Success means the counter is now officially
            // zero; failure gives us the current value to decode instead.
            match self.x.compare_exchange(
                0,
                ZERO_FLAG | HELP_FLAG,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return 0,
                Err(cur) => {
                    return if (cur & ZERO_FLAG) != 0 { 0 } else { cur };
                }
            }
        }
        if (e & ZERO_FLAG) != 0 {
            0
        } else {
            e
        }
    }
}

impl fmt::Debug for StickyCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Ordering: Relaxed — diagnostic snapshot only; nothing is decided
        // from this value.
        let raw = self.x.load(Ordering::Relaxed);
        f.debug_struct("StickyCounter")
            .field("value", &self.load())
            .field("stuck", &((raw & ZERO_FLAG) != 0))
            .finish()
    }
}

/// The traditional CAS-loop implementation of increment-if-not-zero.
///
/// Lock-free but not wait-free: under contention from `P` concurrent
/// upgraders an increment can take `O(P)` amortized time (each failed CAS
/// retries against a fresh value). Included as the baseline for the §4.3
/// ablation benchmark.
///
/// # Examples
///
/// ```
/// use sticky::{CasCounter, Counter};
///
/// let c = CasCounter::with_count(1);
/// assert!(c.increment_if_not_zero());
/// assert!(!c.decrement());
/// assert!(c.decrement());
/// assert!(!c.increment_if_not_zero());
/// ```
///
/// One 32-bit word and the same [`MAX_COUNT`] cap as the sticky counter, so
/// the ablation compares like with like.
pub struct CasCounter {
    x: AtomicU32,
}

impl Counter for CasCounter {
    fn with_count(initial: u32) -> Self {
        assert!(initial > 0, "counter must be born alive");
        assert!(initial <= MAX_COUNT, "initial count exceeds MAX_COUNT");
        CasCounter {
            x: AtomicU32::new(initial),
        }
    }

    #[inline]
    fn increment_if_not_zero(&self) -> bool {
        // Ordering: Relaxed — same discipline as the sticky counter's
        // increment: the zero check and the CAS validate against values the
        // atomics themselves return; a stale initial read only costs a
        // retry, and no payload access is ordered through the count.
        let mut cur = self.x.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            if cur == MAX_COUNT {
                overflow();
            }
            match self
                .x
                .compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
    }

    #[inline]
    fn decrement(&self) -> bool {
        // Ordering: Release, with fence(Acquire) on the zero transition —
        // identical to `StickyCounter::decrement` (and `Arc::drop`): the
        // release sequence through the counter's RMWs carries every other
        // owner's pre-decrement accesses to the disposer.
        if self.x.fetch_sub(1, Ordering::Release) == 1 {
            fence(Ordering::Acquire);
            return true;
        }
        false
    }

    #[inline]
    fn load(&self) -> u32 {
        self.x.load(Ordering::SeqCst)
    }
}

impl fmt::Debug for CasCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasCounter")
            .field("value", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// Runs the named test of this binary in a child process with
    /// `STICKY_CHILD` set, and returns how the child ended: an abort
    /// cannot be observed from inside the process it kills.
    fn run_child(test: &str) -> std::process::ExitStatus {
        std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test, "--nocapture", "--test-threads=1"])
            .env("STICKY_CHILD", "1")
            .stderr(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap()
    }

    fn in_child() -> bool {
        std::env::var_os("STICKY_CHILD").is_some()
    }

    fn assert_aborted(status: std::process::ExitStatus) {
        assert!(!status.success(), "the increment past MAX_COUNT returned");
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert_eq!(status.signal(), Some(6), "expected SIGABRT, got {status}");
        }
    }

    #[test]
    fn counts_up_to_max_count() {
        let c = StickyCounter::new(MAX_COUNT - 1);
        assert!(c.increment_if_not_zero());
        assert_eq!(c.load(), MAX_COUNT);
        assert!(!c.decrement());
        assert_eq!(c.load(), MAX_COUNT - 1);
        let c = CasCounter::with_count(MAX_COUNT - 1);
        assert!(c.increment_if_not_zero());
        assert_eq!(c.load(), MAX_COUNT);
    }

    /// An increment of a live count at `MAX_COUNT` aborts, as `Arc` does:
    /// the chosen behaviour is abort, not panic.
    #[test]
    fn increment_past_max_count_aborts_sticky() {
        if in_child() {
            let c = StickyCounter::new(MAX_COUNT);
            c.increment_if_not_zero();
            return;
        }
        assert_aborted(run_child("tests::increment_past_max_count_aborts_sticky"));
    }

    #[test]
    fn increment_past_max_count_aborts_cas() {
        if in_child() {
            let c = CasCounter::with_count(MAX_COUNT);
            c.increment_if_not_zero();
            return;
        }
        assert_aborted(run_child("tests::increment_past_max_count_aborts_cas"));
    }

    #[test]
    fn failed_increments_never_carry_into_the_flags() {
        // A counter stuck at zero, with a helper's flag still owed and
        // strays one short of the limit: the next failed increment clears
        // the strays and keeps both flags.
        let c = StickyCounter::new(1);
        c.x.store(ZERO_FLAG | HELP_FLAG | (STRAY_LIMIT - 1), Ordering::SeqCst);
        assert!(!c.increment_if_not_zero());
        assert_eq!(c.raw(), ZERO_FLAG | HELP_FLAG);
        assert_eq!(c.load(), 0);
        // Without the help flag too, and a failed upgrade stays failed.
        c.x.store(ZERO_FLAG | (STRAY_LIMIT - 1), Ordering::SeqCst);
        assert!(!c.increment_if_not_zero());
        assert_eq!(c.raw(), ZERO_FLAG);
        assert!(!c.increment_if_not_zero());
        assert_eq!(c.load(), 0);
    }

    #[test]
    fn counter_is_one_32_bit_word() {
        // The facade's `AtomicU32` is the std one (4 bytes) outside the
        // model checker, whose wrapper adds a location id.
        let word = std::mem::size_of::<smr::sync::atomic::AtomicU32>();
        assert_eq!(std::mem::size_of::<StickyCounter>(), word);
        assert_eq!(std::mem::size_of::<CasCounter>(), word);
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn counters_are_send_sync() {
        assert_send_sync::<StickyCounter>();
        assert_send_sync::<CasCounter>();
    }

    #[test]
    fn basic_lifecycle_sticky() {
        let c = StickyCounter::new(1);
        assert_eq!(c.load(), 1);
        assert!(c.increment_if_not_zero());
        assert_eq!(c.load(), 2);
        assert!(!c.decrement());
        assert_eq!(c.load(), 1);
        assert!(c.decrement());
        assert_eq!(c.load(), 0);
        // Stuck: further increments fail, loads stay zero.
        for _ in 0..10 {
            assert!(!c.increment_if_not_zero());
            assert_eq!(c.load(), 0);
        }
    }

    #[test]
    fn basic_lifecycle_cas() {
        let c = CasCounter::with_count(1);
        assert_eq!(c.load(), 1);
        assert!(c.increment_if_not_zero());
        assert!(!c.decrement());
        assert!(c.decrement());
        assert!(!c.increment_if_not_zero());
        assert_eq!(c.load(), 0);
    }

    #[test]
    #[should_panic(expected = "born alive")]
    fn zero_initial_panics() {
        let _ = StickyCounter::new(0);
    }

    #[test]
    fn stored_zero_is_not_counter_zero() {
        // A freshly decremented-to-stored-zero counter must still admit a
        // racing increment; sequentially, the load() helper path makes the
        // zero official.
        let c = StickyCounter::new(1);
        assert!(c.decrement());
        assert_eq!(c.raw() & ZERO_FLAG, ZERO_FLAG);
    }

    #[test]
    fn load_helps_transient_zero() {
        // Simulate the window inside decrement(): stored value is numeric 0
        // but the zero flag is not yet installed.
        let c = StickyCounter::new(1);
        c.x.store(0, Ordering::SeqCst);
        assert_eq!(c.load(), 0);
        // The helper installed both flags.
        assert_eq!(c.raw() & (ZERO_FLAG | HELP_FLAG), ZERO_FLAG | HELP_FLAG);
        // A lagging decrement (whose fetch_sub already happened) now runs its
        // recovery path: it must take credit exactly once.
        let mut e = 0u32;
        let r =
            c.x.compare_exchange(e, ZERO_FLAG, Ordering::SeqCst, Ordering::SeqCst);
        assert!(r.is_err());
        e = r.unwrap_err();
        assert_ne!(e & HELP_FLAG, 0);
        assert_ne!(c.x.swap(ZERO_FLAG, Ordering::SeqCst) & HELP_FLAG, 0);
        // Help flag cleared; nobody else can also claim it.
        assert_eq!(c.raw(), ZERO_FLAG);
    }

    #[test]
    fn increment_after_stuck_keeps_zero_interpretation() {
        let c = StickyCounter::new(1);
        assert!(c.decrement());
        // Stray increments below the flag bits do not unstick the counter.
        for _ in 0..1000 {
            assert!(!c.increment_if_not_zero());
        }
        assert_eq!(c.load(), 0);
    }

    fn concurrent_ownership_discipline<C: Counter + 'static>() {
        // Each thread repeatedly "clones" (increment) and "drops" (decrement)
        // a reference it owns; the main thread owns the initial reference.
        // Exactly one decrement across the whole run may return true, and it
        // must be the final one.
        for _ in 0..20 {
            let c = Arc::new(C::with_count(1));
            let zeroed = Arc::new(AtomicU64::new(0));
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    let c = Arc::clone(&c);
                    let zeroed = Arc::clone(&zeroed);
                    std::thread::spawn(move || {
                        for _ in 0..1000 {
                            if c.increment_if_not_zero() && c.decrement() {
                                zeroed.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            // Main still owns its reference: nobody can have zeroed it.
            assert_eq!(zeroed.load(Ordering::SeqCst), 0);
            assert_eq!(c.load(), 1);
            assert!(c.decrement());
            assert_eq!(c.load(), 0);
            assert!(!c.increment_if_not_zero());
        }
    }

    #[test]
    fn concurrent_ownership_sticky() {
        concurrent_ownership_discipline::<StickyCounter>();
    }

    #[test]
    fn concurrent_ownership_cas() {
        concurrent_ownership_discipline::<CasCounter>();
    }

    #[test]
    fn racing_decrements_and_upgrades_unique_zero() {
        // P threads each own one reference and drop it while Q threads
        // spin upgrading. Exactly one true decrement must be observed, and
        // every successful upgrade must be matched by its own decrement.
        for _ in 0..20 {
            let p = 4u32;
            let c = Arc::new(StickyCounter::new(p));
            let zeroed = Arc::new(AtomicU64::new(0));
            let mut handles = Vec::new();
            for _ in 0..p {
                let c = Arc::clone(&c);
                let zeroed = Arc::clone(&zeroed);
                handles.push(std::thread::spawn(move || {
                    if c.decrement() {
                        zeroed.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let zeroed = Arc::clone(&zeroed);
                handles.push(std::thread::spawn(move || {
                    for _ in 0..100 {
                        if c.increment_if_not_zero() {
                            if c.decrement() {
                                zeroed.fetch_add(1, Ordering::SeqCst);
                            }
                        } else {
                            // Once zero, always zero.
                            assert_eq!(c.load(), 0);
                            assert!(!c.increment_if_not_zero());
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                zeroed.load(Ordering::SeqCst),
                1,
                "exactly one zeroing decrement"
            );
            assert_eq!(c.load(), 0);
        }
    }

    #[test]
    fn concurrent_loads_never_see_garbage() {
        // Loads racing with the transient-zero window must only ever report
        // either a plausible count or zero — never a flag-polluted value.
        for _ in 0..10 {
            let c = Arc::new(StickyCounter::new(2));
            let loader = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let v = c.load();
                        assert!(v <= 16, "load leaked flag bits: {v:#x}");
                    }
                })
            };
            let churner = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..5_000 {
                        if c.increment_if_not_zero() {
                            c.decrement();
                        }
                    }
                })
            };
            loader.join().unwrap();
            churner.join().unwrap();
        }
    }
}
