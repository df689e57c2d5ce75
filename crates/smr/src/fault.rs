//! Adversarial fault injection for the SMR schemes.
//!
//! Robustness papers (Hyaline, Stamp-it, IBR) all measure the same failure
//! modes: a reader that stalls inside a critical section, a thread that dies
//! without unregistering, and a collector whose scans fall behind. This
//! module lets tests and benches *inject* those faults deterministically so
//! the repo can publish a measured garbage-bound table instead of an
//! asymptotic claim.
//!
//! A [`FaultPlan`] describes one fault scenario. [`arm`] installs it
//! process-wide and returns a [`FaultScope`] that disarms on drop. The engine
//! frame calls the two checkpoint hooks — `on_section_entry` at every
//! outermost section entry and `on_scan` at every scan/distribute head —
//! each of which is a single `#[inline]` relaxed load of an `AtomicBool`
//! plus a never-taken branch while disarmed, so the hot path pays nothing
//! measurable when no fault is armed.
//!
//! Faults that cannot be expressed as an engine-side delay (killing a
//! thread without unregistering, dying with a half-full decrement batch)
//! are realized through [`crate::abandon_current_slot`] by the victim
//! thread itself; the plan
//! still names them so harnesses can drive one scenario per plan.

use std::time::Duration;

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
// Fault-injection state is process-global test infrastructure: every atomic
// access below runs under `exempt` so checkpoints add no schedule points
// (and no cross-iteration state) to model-checked scenarios.
use crate::sync::exempt;

use crate::registry::Tid;

/// Which adversarial scenario a [`FaultPlan`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A designated victim thread goes to sleep *inside* a critical section
    /// (right after announcing) for the plan's `stall`, pinning whatever the
    /// scheme's protection rule pins for that long.
    StalledReader,
    /// A victim thread dies inside an open critical section without
    /// unregistering: its announcement stays published and its slot stays
    /// in use until [`reclaim_orphaned_slot`](crate::reclaim_orphaned_slot)
    /// recovers it.
    DeadThreadInSection,
    /// Like [`FaultKind::DeadThreadInSection`], but the victim dies with a
    /// half-full per-thread deferred-decrement batch: the `on_thread_exit`
    /// flush never runs, so recovery must also drain the orphaned batch.
    DropMidBatch,
    /// Every scan/distribute in every engine sleeps for the plan's
    /// `scan_delay` before doing its work — a slow collector.
    DelayScan,
}

/// A process-wide fault-injection plan. Build one with the constructors,
/// then [`arm`] it.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// The scenario.
    pub kind: FaultKind,
    /// How long a [`FaultKind::StalledReader`] victim sleeps inside its
    /// section.
    pub stall: Duration,
    /// How long every scan sleeps under [`FaultKind::DelayScan`].
    pub scan_delay: Duration,
}

impl FaultPlan {
    /// Stall the designated victim inside a section for `stall`.
    pub fn stalled_reader(stall: Duration) -> Self {
        FaultPlan {
            kind: FaultKind::StalledReader,
            stall,
            scan_delay: Duration::ZERO,
        }
    }

    /// Kill the victim inside an open section without unregistering.
    pub fn dead_thread_in_section() -> Self {
        FaultPlan {
            kind: FaultKind::DeadThreadInSection,
            stall: Duration::ZERO,
            scan_delay: Duration::ZERO,
        }
    }

    /// Kill the victim with a half-full deferred-decrement batch.
    pub fn drop_mid_batch() -> Self {
        FaultPlan {
            kind: FaultKind::DropMidBatch,
            stall: Duration::ZERO,
            scan_delay: Duration::ZERO,
        }
    }

    /// Delay every scan/distribute by `delay`.
    pub fn delay_scan(delay: Duration) -> Self {
        FaultPlan {
            kind: FaultKind::DelayScan,
            stall: Duration::ZERO,
            scan_delay: delay,
        }
    }
}

/// No victim designated.
const NO_VICTIM: usize = usize::MAX;

// The armed flag is the only word the hot paths read; everything else is
// consulted exclusively on the slow path behind it.
static ARMED: AtomicBool = AtomicBool::new(false);
static STALL_NS: AtomicU64 = AtomicU64::new(0);
static SCAN_DELAY_NS: AtomicU64 = AtomicU64::new(0);
static VICTIM: AtomicUsize = AtomicUsize::new(NO_VICTIM);
static STALLS_INJECTED: AtomicU64 = AtomicU64::new(0);
static SCANS_DELAYED: AtomicU64 = AtomicU64::new(0);

/// RAII handle for an armed [`FaultPlan`]; dropping it disarms injection.
#[derive(Debug)]
pub struct FaultScope(());

impl Drop for FaultScope {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arms `plan` process-wide and returns a scope that disarms on drop.
///
/// Only one plan may be armed at a time (faults are process-global, like the
/// registry); arming while armed panics — serialize adversarial tests.
pub fn arm(plan: FaultPlan) -> FaultScope {
    exempt(|| {
        assert!(
            !ARMED.swap(true, Ordering::SeqCst),
            "a FaultPlan is already armed; adversarial scenarios must be serialized"
        );
        STALL_NS.store(plan.stall.as_nanos() as u64, Ordering::SeqCst);
        SCAN_DELAY_NS.store(plan.scan_delay.as_nanos() as u64, Ordering::SeqCst);
    });
    FaultScope(())
}

/// Disarms any armed plan and clears the victim designation.
fn disarm() {
    exempt(|| {
        STALL_NS.store(0, Ordering::SeqCst);
        SCAN_DELAY_NS.store(0, Ordering::SeqCst);
        VICTIM.store(NO_VICTIM, Ordering::SeqCst);
        ARMED.store(false, Ordering::SeqCst);
    });
}

/// Whether a plan is currently armed.
#[inline]
pub fn armed() -> bool {
    // Ordering: Relaxed — the checkpoint fast path. Arming strictly before
    // the victim starts running is the harness's job; engines only need an
    // eventually-visible flag.
    exempt(|| ARMED.load(Ordering::Relaxed))
}

/// Designates the calling thread as the stall victim. The next outermost
/// section entry on any engine by this thread sleeps for the armed plan's
/// `stall`, once.
pub fn designate_victim(t: Tid) {
    exempt(|| VICTIM.store(t.index(), Ordering::SeqCst));
}

/// Number of stalls injected since process start (test observability).
pub fn stalls_injected() -> u64 {
    // Ordering: Relaxed — monotonic test-observability counter.
    exempt(|| STALLS_INJECTED.load(Ordering::Relaxed))
}

/// Number of scans delayed since process start (test observability).
pub fn scans_delayed() -> u64 {
    // Ordering: Relaxed — monotonic test-observability counter.
    exempt(|| SCANS_DELAYED.load(Ordering::Relaxed))
}

/// Engine checkpoint: called by the frame after announcing an outermost
/// critical-section entry. While disarmed this is one relaxed load and a
/// never-taken branch.
#[inline]
pub(crate) fn on_section_entry(t: Tid) {
    if armed() {
        section_entry_slow(t);
    }
}

#[cold]
fn section_entry_slow(t: Tid) {
    // One-shot: claim the victim designation so nested sections and later
    // entries by the same thread do not re-stall.
    let ns = exempt(|| {
        if VICTIM.load(Ordering::SeqCst) == t.index()
            && VICTIM
                .compare_exchange(t.index(), NO_VICTIM, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            let ns = STALL_NS.load(Ordering::SeqCst);
            if ns > 0 {
                // Ordering: Relaxed — test-observability counter.
                STALLS_INJECTED.fetch_add(1, Ordering::Relaxed);
            }
            ns
        } else {
            0
        }
    });
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// Engine checkpoint: called at the head of every scan / distribute. While
/// disarmed this is one relaxed load and a never-taken branch.
#[inline]
pub(crate) fn on_scan() {
    if armed() {
        scan_slow();
    }
}

#[cold]
fn scan_slow() {
    let ns = exempt(|| {
        let ns = SCAN_DELAY_NS.load(Ordering::SeqCst);
        if ns > 0 {
            // Ordering: Relaxed — test-observability counter.
            SCANS_DELAYED.fetch_add(1, Ordering::Relaxed);
        }
        ns
    });
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_checkpoints_are_noops() {
        let t = crate::current_tid();
        let before = stalls_injected();
        on_section_entry(t);
        on_scan();
        assert_eq!(stalls_injected(), before);
    }

    #[test]
    fn stall_is_one_shot_per_designation() {
        let t = crate::current_tid();
        let scope = arm(FaultPlan::stalled_reader(Duration::from_millis(5)));
        designate_victim(t);
        let before = stalls_injected();
        let started = std::time::Instant::now();
        on_section_entry(t);
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(stalls_injected(), before + 1);
        // Second entry without re-designation: no stall.
        on_section_entry(t);
        assert_eq!(stalls_injected(), before + 1);
        drop(scope);
        assert!(!armed());
    }
}
