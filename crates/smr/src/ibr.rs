//! IBR's protection policy (2GEIBR, paper Fig. 4) and the [`Ibr`] alias.

use crate::engine::{eject_unless, Engine, Local, Protection, Slot};
use crate::registry::{registered_high_water_mark, Tid};
use crate::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use crate::util::announce_u64;
use crate::SmrConfig;

const EMPTY: u64 = u64::MAX;

/// The announced interval `[begin, end]`: `begin` is fixed at section
/// entry, `end` grows during the section.
#[derive(Debug)]
pub struct Interval {
    begin: AtomicU64,
    end: AtomicU64,
}

/// IBR's protection rule: announce the interval of epochs a section spans;
/// an entry may go once its lifetime `[birth, retire_epoch]` intersects no
/// announced interval.
#[derive(Debug)]
pub struct Intervals;

/// Interval-based reclamation (2GEIBR) behind the generalized acquire-retire
/// interface — the paper's Figure 4.
///
/// Every managed object carries a *birth epoch* assigned at allocation; a
/// retired object's lifetime is the interval `[birth, retire_epoch]`. A
/// thread announces the two-epoch interval `[begin, end]` spanning its
/// critical section: `begin` is fixed on entry, `end` grows as the thread
/// observes epoch advances during `acquire` (the "2GE" — two global epochs —
/// variant). A retired object may be ejected once its lifetime interval
/// intersects no announced interval.
///
/// Compared to EBR, IBR bounds garbage by *interval intersection* instead of
/// a global minimum: a stalled thread only protects objects born before its
/// announced `end`, not everything retired since it went quiet.
///
/// # Examples
///
/// ```
/// use smr::{AcquireRetire, GlobalEpoch, Ibr, Retired};
/// use std::sync::atomic::AtomicUsize;
/// use std::sync::Arc;
///
/// let ibr = Ibr::new(Arc::new(GlobalEpoch::new()), Ibr::default_config());
/// let t = smr::current_tid();
/// let birth = ibr.birth_epoch(t); // tag an allocation
/// let shared = AtomicUsize::new(0x1000);
///
/// ibr.begin_critical_section(t);
/// let (value, _guard) = ibr.acquire(t, &shared);
/// assert_eq!(value, 0x1000);
/// ibr.end_critical_section(t);
/// ibr.retire(t, Retired::new(0x1000, birth));
/// ```
pub type Ibr = Engine<Intervals>;

impl Protection for Intervals {
    const NAME: &'static str = "IBR";
    const PROTECTS_REGIONS: bool = true;
    /// Interval protection only covers objects born ≤ the announced `end`,
    /// and only `acquire` extends it.
    const PROTECTS_SECTION_READS: bool = false;

    type Ann = Interval;
    type Guard = ();
    /// The block's birth epoch: the lower end of its lifetime.
    type Birth = u64;
    /// The epoch at retirement: the upper end.
    type Stamp = u64;
    /// Last epoch this thread observed (Fig. 4's `prev_epoch`).
    type Local = u64;
    type Shared = ();

    fn default_config() -> SmrConfig {
        SmrConfig {
            epoch_freq: 40,
            ..SmrConfig::default()
        }
    }

    fn ann() -> Interval {
        Interval {
            begin: AtomicU64::new(EMPTY),
            end: AtomicU64::new(EMPTY),
        }
    }

    fn local(_: &SmrConfig) -> u64 {
        EMPTY
    }

    #[inline]
    fn enter(eng: &Engine<Self>, ann: &Interval, local: &mut Local<Self>) {
        let e = eng.clock.load();
        local.own = e;
        // The interval announcement must be globally visible before any
        // protected read of the section; the single announcement fence
        // (in `announce_u64`, after *both* stores) is IBR's per-operation
        // cost and pairs with the fence at the head of the frame's `sweep`
        // (miss our announcement ⇒ we fenced later ⇒ we see your unlinks).
        // Ordering: Relaxed — ordered before any observer by the
        // announcement fence that follows.
        ann.begin.store(e, Ordering::Relaxed);
        announce_u64(&ann.end, e);
    }

    /// Also how a dead owner's interval is force-closed, where the Release
    /// stores keep the retired-list takeover from sinking below the
    /// un-announcement a concurrent scan may act on.
    #[inline]
    fn leave(_: &Engine<Self>, ann: &Interval, local: &mut Local<Self>) {
        local.own = EMPTY;
        // `begin` first: a scan that tears this store sequence sees either
        // [EMPTY, ..] (ignored) or [old_begin, old_end] (conservative).
        // Ordering: Release on both — the section's protected reads are
        // sequenced before and cannot sink past the un-announcement, and
        // Release-Release store order preserves the `begin`-first
        // requirement above.
        ann.begin.store(EMPTY, Ordering::Release);
        ann.end.store(EMPTY, Ordering::Release);
    }

    fn quiescent(eng: &Engine<Self>) -> bool {
        // Ordering: Relaxed — an empty `begin` is the whole check; the
        // sweep's fence pairing carries the visibility argument.
        eng.sweep()
            .all(|ann| ann.begin.load(Ordering::Relaxed) == EMPTY)
    }

    #[inline]
    fn acquire(eng: &Engine<Self>, t: Tid, slot: &Slot<Self>, src: &AtomicUsize) -> (usize, ()) {
        // SAFETY: `slot` is the calling thread's own (frame invariant).
        let local = unsafe { &mut *slot.local.get() };
        debug_assert!(local.depth > 0, "acquire outside critical section");
        // Fig. 4: re-read until the epoch is stable across the pointer load,
        // bumping the announced interval's upper end on each change. The
        // returned pointer was read in an epoch ≤ `end`, so objects it
        // leads to (born ≤ that epoch) are covered by the interval.
        loop {
            // Ordering: Acquire — pairs with the Release publication of the
            // pointee so its contents are visible; reclamation protection
            // comes from the announced interval, not this load.
            let ptr = src.load(Ordering::Acquire);
            let cur = eng.clock.load();
            if local.own == cur {
                // The announced interval now covers the pointee until the
                // section ends — mint a matching sanitizer token.
                crate::sanitize::on_protect(
                    eng.id(),
                    t,
                    ptr,
                    crate::sanitize::TokenLife::UntilSectionExit,
                    true,
                );
                return (ptr, ());
            }
            local.own = cur;
            // The widened interval must be visible before the re-read above
            // can be trusted (announce-then-revalidate): `announce_u64`
            // fences after the store; pairs with the sweep's fence. Epoch
            // changes are rare (every `epoch_freq` allocations), so this
            // fence is off the common path.
            announce_u64(&slot.ann.end, cur);
        }
    }

    #[inline]
    fn birth(eng: &Engine<Self>, t: Tid) -> u64 {
        eng.tick(t);
        eng.clock.load()
    }

    #[inline]
    fn stamp(eng: &Engine<Self>) -> u64 {
        eng.clock.load()
    }

    fn reclaim(eng: &Engine<Self>, local: &mut Local<Self>) {
        // Interval tightening, IBR's `max_garbage` arm. Garbage under a
        // stalled reader is structurally bounded — only objects born at or
        // before the stalled interval's `end` are pinned — so a scan that
        // starts over the watermark first advances the clock: objects
        // allocated from here on are born strictly after every
        // already-announced `end` and their retirement can never be pinned
        // by the staller. It rides the frame's scans, so a reader pinning
        // a watermark's worth of entries costs one scan per
        // `scan_threshold` retires, not one per retire.
        if eng
            .cfg
            .max_garbage
            .is_some_and(|cap| local.retired.len() >= cap)
        {
            eng.clock.advance();
        }
        // Collect announced intervals. Read order matters: `begin` before
        // `end`. If the slot transitions between critical sections while we
        // read, pairing an older (smaller) `begin` with a newer (larger)
        // `end` yields a superset interval — conservative. Reading in the
        // opposite order could fabricate an empty interval and free
        // something the new section protects.
        let mut intervals = Vec::with_capacity(registered_high_water_mark());
        eng.survey(|ann| {
            // Ordering: Acquire on `begin` — pins the read order: the
            // `end` load below cannot be hoisted above it (see the comment
            // above on why that order is load-bearing). Visibility of the
            // announcements themselves comes from the fence pairing.
            let lo = ann.begin.load(Ordering::Acquire);
            // Ordering: Relaxed — ordered after the Acquire load above. A
            // stale (smaller) `end` is safe: the reader only trusts a
            // pointer read *after* publishing the extended `end` and
            // fencing (see `acquire`), so if we miss the extension, our
            // fence preceded the reader's and its re-read observes the
            // unlink instead of the retired object.
            let hi = ann.end.load(Ordering::Relaxed);
            if lo != EMPTY {
                intervals.push((lo, hi.max(lo)));
            }
        });
        // Lifetime [r.birth, retire_epoch] intersects any announcement
        // [lo, hi]? Then the entry must stay.
        eject_unless(
            &mut local.retired,
            &mut local.ready,
            |_, birth, retire_epoch| {
                intervals
                    .iter()
                    .any(|&(lo, hi)| lo <= retire_epoch && birth <= hi)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_tid, AcquireRetire, GlobalEpoch, Retired};
    use std::sync::Arc;

    fn new_ibr() -> Ibr {
        Ibr::new(Arc::new(GlobalEpoch::new()), Ibr::default_config())
    }

    #[test]
    fn birth_epochs_are_current() {
        let clock = Arc::new(GlobalEpoch::new());
        let ibr = Ibr::new(Arc::clone(&clock), Ibr::default_config());
        let t = current_tid();
        assert_eq!(ibr.birth_epoch(t), 0);
        clock.advance();
        assert_eq!(ibr.birth_epoch(t), 1);
    }

    #[test]
    fn interval_disjoint_objects_eject_despite_active_reader() {
        // The defining IBR behaviour: a reader's announced interval does NOT
        // protect objects whose lifetime ended before the reader began.
        use std::sync::mpsc;
        let clock = Arc::new(GlobalEpoch::new());
        let ibr = Arc::new(Ibr::new(Arc::clone(&clock), Ibr::default_config()));
        let t = current_tid();

        // Object born and retired in epoch 0.
        let r_old = Retired::new(0x1000, ibr.birth_epoch(t));
        ibr.retire(t, r_old);
        clock.advance(); // epoch 1

        let (entered_tx, entered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let reader = {
            let ibr = Arc::clone(&ibr);
            std::thread::spawn(move || {
                let rt = current_tid();
                ibr.begin_critical_section(rt); // interval [1, 1]
                entered_tx.send(()).unwrap();
                done_rx.recv().unwrap();
                ibr.end_critical_section(rt);
            })
        };
        entered_rx.recv().unwrap();

        // Old object: lifetime [0, 0], reader interval [1, 1]: disjoint.
        ibr.flush(t);
        assert_eq!(
            ibr.eject(t),
            Some(r_old.addr),
            "disjoint interval must eject"
        );

        // New object retired *during* the reader's section: lifetime [1, 1]
        // intersects [1, 1]: must stay.
        let r_new = Retired::new(0x2000, clock.load());
        ibr.retire(t, r_new);
        ibr.flush(t);
        assert_eq!(ibr.eject(t), None, "intersecting interval must block");

        done_tx.send(()).unwrap();
        reader.join().unwrap();
        ibr.flush(t);
        assert_eq!(ibr.eject(t), Some(r_new.addr));
    }

    #[test]
    fn acquire_extends_interval_on_epoch_change() {
        let clock = Arc::new(GlobalEpoch::new());
        let ibr = Ibr::new(Arc::clone(&clock), Ibr::default_config());
        let t = current_tid();
        let src = AtomicUsize::new(0xabc0);
        ibr.begin_critical_section(t); // [0, 0]
        clock.advance();
        clock.advance();
        let (v, _) = ibr.acquire(t, &src);
        assert_eq!(v, 0xabc0);
        assert_eq!(ibr.slots[t.index()].ann.end.load(Ordering::SeqCst), 2);
        assert_eq!(ibr.slots[t.index()].ann.begin.load(Ordering::SeqCst), 0);
        ibr.end_critical_section(t);
    }

    #[test]
    fn multi_retire_multi_eject() {
        let ibr = new_ibr();
        let t = current_tid();
        let r = Retired::new(0x3000, 0);
        ibr.retire(t, r);
        ibr.retire(t, r);
        ibr.flush(t);
        assert_eq!(ibr.eject(t), Some(r.addr));
        assert_eq!(ibr.eject(t), Some(r.addr));
        assert_eq!(ibr.eject(t), None);
    }

    #[test]
    fn default_epoch_freq_is_paper_value() {
        assert_eq!(Ibr::default_config().epoch_freq, 40);
        assert_eq!(
            <crate::Ebr as AcquireRetire>::default_config().epoch_freq,
            10
        );
    }
}
