//! EBR's protection policy (paper Fig. 3) and the [`Ebr`] alias.

use crate::engine::{eject_unless, Engine, Local, Protection, Slot};
use crate::registry::Tid;
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::util::announce_u64;

/// Announcement value meaning "not in a critical section".
const EMPTY: u64 = u64::MAX;

/// EBR's protection rule: announce the epoch a section began in; an entry
/// retired in epoch `e` may go once every announced epoch exceeds `e`.
#[derive(Debug)]
pub struct Epochs;

/// Epoch-based reclamation (EBR) behind the generalized acquire-retire
/// interface — the paper's Figure 3.
///
/// A thread entering a critical section announces the current epoch; a
/// retired pointer is tagged with the epoch at retirement and becomes
/// ejectable once every announced epoch is strictly greater. The epoch
/// advances every `epoch_freq` allocations (per thread), the paper's tuned
/// value being 10 for EBR.
///
/// As a protected-region scheme, `acquire` is a plain load, `release` is a
/// no-op and `try_acquire` never fails — all the protection comes from the
/// critical section, which is why EBR pays one fence per *operation* rather
/// than one per *read* (§2).
///
/// # Examples
///
/// ```
/// use smr::{AcquireRetire, Ebr, GlobalEpoch, Retired};
/// use std::sync::atomic::AtomicUsize;
/// use std::sync::Arc;
///
/// let ebr = Ebr::new(Arc::new(GlobalEpoch::new()), Ebr::default_config());
/// let t = smr::current_tid();
/// let shared = AtomicUsize::new(0x1000);
///
/// ebr.begin_critical_section(t);
/// let (value, guard) = ebr.acquire(t, &shared);
/// assert_eq!(value, 0x1000);
/// ebr.release(t, guard);
/// ebr.end_critical_section(t);
/// ```
pub type Ebr = Engine<Epochs>;

impl Protection for Epochs {
    const NAME: &'static str = "EBR";
    const PROTECTS_REGIONS: bool = true;
    /// A retire issued while any section is active stamps an epoch ≥ that
    /// section's announcement (the clock is monotone and the stamp is read
    /// after the unlink), so it cannot eject until the section ends —
    /// every word read from a live location during the section is covered,
    /// whatever the pointee's birth epoch.
    const PROTECTS_SECTION_READS: bool = true;

    /// The epoch announced by the slot's thread, or [`EMPTY`].
    type Ann = AtomicU64;
    type Guard = ();
    /// The epoch at retirement.
    /// Nothing: the eject rule reads the retire's epoch, never the birth.
    type Birth = ();
    type Stamp = u64;
    type Local = ();
    type Shared = ();

    fn ann() -> AtomicU64 {
        AtomicU64::new(EMPTY)
    }

    fn local(_: &crate::SmrConfig) {}

    #[inline]
    fn enter(eng: &Engine<Self>, ann: &AtomicU64, _: &mut Local<Self>) {
        // The one full fence EBR pays per outermost section (§2's "one
        // fence per operation"): `announce_u64` stores the epoch and
        // fences so the announcement is visible before every protected
        // read of the section; pairs with the fence at the head of the
        // frame's `sweep` (a scanner that misses this announcement fenced
        // *before* us, so our reads see all of its unlinks).
        announce_u64(ann, eng.clock.load());
    }

    #[inline]
    fn leave(_: &Engine<Self>, ann: &AtomicU64, _: &mut Local<Self>) {
        // Ordering: Release — every protected read of the section is
        // sequenced before this store and cannot sink below it, so a
        // scanner that sees EMPTY knows the section's reads are done.
        ann.store(EMPTY, Ordering::Release);
    }

    fn quiescent(eng: &Engine<Self>) -> bool {
        // Ordering: Relaxed — safety rests on the sweep's fence pairing,
        // exactly as in `reclaim`.
        eng.sweep().all(|ann| ann.load(Ordering::Relaxed) == EMPTY)
    }

    #[inline]
    fn acquire(_: &Engine<Self>, _: Tid, slot: &Slot<Self>, src: &AtomicUsize) -> (usize, ()) {
        (Engine::region_load(slot, src), ())
    }

    #[inline]
    fn birth(eng: &Engine<Self>, t: Tid) {
        eng.tick(t);
    }

    #[inline]
    fn stamp(eng: &Engine<Self>) -> u64 {
        eng.clock.load()
    }

    /// Moves every retired entry whose epoch precedes all announcements
    /// into the ready queue.
    fn reclaim(eng: &Engine<Self>, local: &mut Local<Self>) {
        let mut min_ann = EMPTY;
        eng.survey(|ann| {
            // Ordering: Relaxed — safety rests entirely on the sweep's
            // fence pairing, in both staleness directions: reading an old
            // *epoch* (smaller) only lowers `min_ann` and keeps entries
            // longer, and missing a live announcement (reading a stale
            // EMPTY) is exactly the "announcer fenced after us" case — that
            // reader's post-fence traversal observes every unlink preceding
            // this scan, so nothing we eject is reachable to it.
            min_ann = min_ann.min(ann.load(Ordering::Relaxed));
        });
        eject_unless(&mut local.retired, &mut local.ready, |_, (), epoch| {
            epoch >= min_ann
        });
    }

    /// Bounded retire-side backpressure: over the watermark and outside any
    /// section (sleeping inside the caller's own would self-deadlock the
    /// watermark: its own announcement pins the garbage), scan and briefly
    /// sleep until the retired list drops under it or the budget runs out.
    fn over_watermark(eng: &Engine<Self>, local: &mut Local<Self>, cap: usize) {
        if local.retired.len() >= cap && local.depth == 0 {
            eng.throttle(|| {
                eng.scan(local);
                local.retired.len() < cap
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_tid, AcquireRetire, GlobalEpoch, Retired, SmrConfig};
    use std::sync::Arc;

    fn new_ebr() -> Ebr {
        Ebr::new(Arc::new(GlobalEpoch::new()), Ebr::default_config())
    }

    #[test]
    fn acquire_returns_current_value() {
        let ebr = new_ebr();
        let t = current_tid();
        let src = AtomicUsize::new(0xbeef0);
        ebr.begin_critical_section(t);
        let (v, g) = ebr.acquire(t, &src);
        assert_eq!(v, 0xbeef0);
        ebr.release(t, g);
        let (v2, _) = ebr.try_acquire(t, &src).expect("EBR try_acquire is total");
        assert_eq!(v2, 0xbeef0);
        ebr.end_critical_section(t);
    }

    #[test]
    fn retire_is_not_ejectable_while_any_section_is_active() {
        let ebr = new_ebr();
        let t = current_tid();
        ebr.begin_critical_section(t);
        ebr.retire(t, Retired::new(0x1000, 0));
        ebr.flush(t);
        // Our own announcement pins the epoch.
        assert_eq!(ebr.eject(t), None);
        ebr.end_critical_section(t);
        // Epoch must advance past the retirement epoch before ejection.
        ebr.clock.advance();
        ebr.flush(t);
        assert_eq!(ebr.eject(t), Some(0x1000));
        assert_eq!(ebr.eject(t), None);
    }

    #[test]
    fn eject_requires_epoch_progress() {
        let ebr = new_ebr();
        let t = current_tid();
        ebr.retire(t, Retired::new(0x2000, 0));
        // Nobody is in a critical section and the retire epoch (0) is less
        // than no announcement, but min over an empty set is MAX: ejectable
        // immediately once flushed.
        ebr.flush(t);
        assert_eq!(ebr.eject(t), Some(0x2000));
    }

    #[test]
    fn multi_retire_yields_multiple_ejects() {
        let ebr = new_ebr();
        let t = current_tid();
        let r = Retired::new(0x3000, 0);
        for _ in 0..3 {
            ebr.retire(t, r);
        }
        ebr.clock.advance();
        ebr.flush(t);
        assert_eq!(ebr.eject(t), Some(r.addr));
        assert_eq!(ebr.eject(t), Some(r.addr));
        assert_eq!(ebr.eject(t), Some(r.addr));
        assert_eq!(ebr.eject(t), None);
    }

    #[test]
    fn concurrent_reader_blocks_ejection() {
        use std::sync::mpsc;
        let ebr = Arc::new(new_ebr());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let ebr = Arc::clone(&ebr);
            std::thread::spawn(move || {
                let t = current_tid();
                ebr.begin_critical_section(t);
                entered_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                ebr.end_critical_section(t);
            })
        };
        entered_rx.recv().unwrap();

        let t = current_tid();
        // Retire *after* the reader entered: its announcement (epoch e)
        // equals the retire epoch, so the entry must stay protected.
        ebr.retire(t, Retired::new(0x4000, 0));
        ebr.clock.advance();
        ebr.flush(t);
        assert_eq!(ebr.eject(t), None, "active reader must block ejection");

        done_tx.send(()).unwrap();
        reader.join().unwrap();
        ebr.flush(t);
        assert!(ebr.eject(t).is_some(), "reader gone; entry must eject");
    }

    #[test]
    fn threshold_triggers_automatic_scan() {
        let cfg = SmrConfig {
            eject_threshold: 4,
            ..Ebr::default_config()
        };
        let ebr = Ebr::new(Arc::new(GlobalEpoch::new()), cfg);
        let t = current_tid();
        for i in 0..4 {
            ebr.retire(t, Retired::new(0x1000 + i * 8, 0));
        }
        // Threshold reached: scan ran inside retire, no flush needed.
        assert!(ebr.eject(t).is_some());
    }

    #[test]
    fn birth_epoch_advances_clock_at_freq() {
        let cfg = SmrConfig {
            epoch_freq: 5,
            ..Ebr::default_config()
        };
        let clock = Arc::new(GlobalEpoch::new());
        let ebr = Ebr::new(Arc::clone(&clock), cfg);
        let t = current_tid();
        for _ in 0..10 {
            ebr.birth_epoch(t);
        }
        assert_eq!(clock.load(), 2);
    }

    #[test]
    fn nested_critical_sections() {
        let ebr = new_ebr();
        let t = current_tid();
        ebr.begin_critical_section(t);
        ebr.begin_critical_section(t);
        ebr.end_critical_section(t);
        // Still inside: announcement must be live.
        assert_ne!(ebr.slots[t.index()].ann.load(Ordering::SeqCst), EMPTY);
        ebr.end_critical_section(t);
        assert_eq!(ebr.slots[t.index()].ann.load(Ordering::SeqCst), EMPTY);
    }
}
