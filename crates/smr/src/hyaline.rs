//! Hyaline-1's protection policy and the [`Hyaline`] alias.

use crate::engine::{Engine, Entry, Local, Protection, Slot};
use crate::registry::Tid;
use crate::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use crate::util::announce_usize;

/// Slot-head sentinel: the slot's thread is not in a critical section.
const INVALID: usize = usize::MAX;

struct Batch {
    /// pushes − leaves; reclamation goes to whoever makes this exactly zero.
    refs: AtomicIsize,
    items: Vec<Entry<Batches>>,
}

struct LinkNode {
    batch: *mut Batch,
    /// Next `LinkNode` address in this slot's list, or 0.
    next: usize,
}

/// Hyaline-1's protection rule: a sealed batch takes one reference per
/// section active at that moment, and goes to whoever drops the last.
///
/// On the frame, the slot's announcement is its hand-off list head, the
/// retired list is the unsealed batch, and the instance-wide `shared` word
/// counts retired items distributed into batches but not yet claimed — the
/// garbage gauge the `max_garbage` escape hatch throttles on. Hyaline-1 has
/// no scan to bound garbage with: a reader stalled inside a section holds a
/// reference on *every* batch distributed while it is active, so without
/// the hatch this count grows without bound under a stalled reader.
//
// Safety invariants: a slot's head is CAS-pushed by any thread but only
// detached (swapped to INVALID) by the owner, or on its behalf once it is
// dead; every pushed `LinkNode` is therefore walked and freed exactly once.
// A `Batch` is freed by the unique thread that moves its counter to zero.
#[derive(Debug)]
pub struct Batches;

/// Hyaline-1 behind the generalized acquire-retire interface.
///
/// Hyaline is a protected-region scheme without a global epoch scan: retired
/// nodes are grouped into *batches*; a finished batch is pushed onto the
/// in-flight list of every slot currently inside a critical section, and the
/// batch's reference counter is set to the number of lists it joined. When an
/// operation ends its critical section it detaches its list and decrements
/// each batch it finds; whoever brings a batch's counter to zero claims the
/// batch's nodes (here: moves them to its ready queue for `eject`, since in
/// the generalized interface the deferred action belongs to the caller).
///
/// Protocol details (per slot):
///
/// * `head == INVALID` — the slot is not in a critical section; retirers
///   skip it.
/// * `head == 0` — inside a critical section, list empty.
/// * otherwise `head` points to a `LinkNode` chain.
///
/// Entering stores `0`; leaving swaps in `INVALID` and walks whatever chain
/// it got. A retirer CAS-pushes onto every non-`INVALID` head, then adds the
/// number of successful pushes to the batch counter (which leavers may have
/// already driven negative — the counter is signed, and the unique
/// transition to exactly zero hands out reclamation responsibility).
///
/// Safety: if a reader is inside a critical section when an object is
/// retired, the batch containing it is pushed to the reader's slot (its head
/// is not `INVALID`), so the object cannot be ejected until the reader
/// leaves and decrements the batch. Readers that enter after the retire
/// cannot reach the object, because retirement follows unlinking.
///
/// # Examples
///
/// ```
/// use smr::{AcquireRetire, GlobalEpoch, Hyaline, Retired};
/// use std::sync::atomic::AtomicUsize;
/// use std::sync::Arc;
///
/// let hy = Hyaline::new(Arc::new(GlobalEpoch::new()), Hyaline::default_config());
/// let t = smr::current_tid();
/// let shared = AtomicUsize::new(0x1000);
///
/// hy.begin_critical_section(t);
/// let (value, _guard) = hy.acquire(t, &shared);
/// assert_eq!(value, 0x1000);
/// hy.end_critical_section(t);
/// ```
pub type Hyaline = Engine<Batches>;

/// Takes a zeroed batch home: its items are ready for `eject`.
///
/// # Safety
///
/// The caller moved `batch`'s counter to exactly zero.
unsafe fn claim(eng: &Hyaline, batch: *mut Batch, local: &mut Local<Batches>) {
    let batch = Box::from_raw(batch);
    // Ordering: Relaxed — a throttle/diagnostic gauge; no protection
    // decision reads it.
    eng.shared.fetch_sub(batch.items.len(), Ordering::Relaxed);
    local
        .ready
        .extend(batch.items.into_iter().map(|(addr, (), ())| addr));
}

impl Protection for Batches {
    const NAME: &'static str = "Hyaline";
    const PROTECTS_REGIONS: bool = true;
    /// Retired batches take a reference per *active* section at retire
    /// time and are only freed when every such section has departed, so a
    /// section protects every word it observed from a live location,
    /// whatever the pointee's birth epoch.
    const PROTECTS_SECTION_READS: bool = true;

    /// The hand-off list head (see the module docs' protocol).
    type Ann = AtomicUsize;
    type Guard = ();
    type Birth = ();
    type Stamp = ();
    type Local = ();
    type Shared = AtomicUsize;

    fn ann() -> AtomicUsize {
        AtomicUsize::new(INVALID)
    }

    fn local(_: &crate::SmrConfig) {}

    #[inline]
    fn enter(_: &Hyaline, head: &AtomicUsize, _: &mut Local<Self>) {
        // The slot must be visibly active before any protected read of the
        // section: Hyaline's one fence per operation, paid inside
        // `announce_usize`. Pairs with the fence of the `sweep` in
        // `reclaim` (miss our active head ⇒ we fenced later ⇒ our reads
        // see your unlinks).
        announce_usize(head, 0);
    }

    /// Detaches the hand-off list, decrements every batch on it and claims
    /// the zeroed ones. A dead owner's list is force-closed the same way,
    /// processed *as the caller*: decrements land exactly as if the dead
    /// thread had left normally.
    #[inline]
    fn leave(eng: &Hyaline, head: &AtomicUsize, local: &mut Local<Self>) {
        // Ordering: AcqRel — Acquire pairs with the retirers' Release push
        // CASes so the detached link nodes' contents are visible before we
        // walk them; Release keeps the section's protected reads from
        // sinking past the detach (the batch decrements that may free them
        // come after), and publishes a force-close's takeover against the
        // CAS of a concurrent distributor that loses to `INVALID`.
        let mut head = head.swap(INVALID, Ordering::AcqRel);
        while head != 0 && head != INVALID {
            // SAFETY: a detached list is ours alone; each node was leaked
            // by exactly one successful push.
            let node = unsafe { Box::from_raw(head as *mut LinkNode) };
            head = node.next;
            // Ordering: AcqRel — Release publishes this thread's finished
            // section (its protected reads precede the decrement); Acquire
            // on the zero transition synchronizes with every other
            // decrementer's Release, so the claimer of the batch sees all
            // sections done (and the retirer's item writes) before reusing
            // the nodes.
            // SAFETY: the batch outlives its counter reaching zero.
            if unsafe { &*node.batch }.refs.fetch_sub(1, Ordering::AcqRel) == 1 {
                // SAFETY: we made the unique transition to zero.
                unsafe { claim(eng, node.batch, local) };
            }
        }
    }

    fn quiescent(eng: &Hyaline) -> bool {
        // Ordering: Relaxed — the sweep's fence pairing carries the
        // visibility argument; `INVALID` means "not in a section".
        eng.sweep()
            .all(|head| head.load(Ordering::Relaxed) == INVALID)
    }

    #[inline]
    fn acquire(_: &Hyaline, _: Tid, slot: &Slot<Self>, src: &AtomicUsize) -> (usize, ()) {
        (Engine::region_load(slot, src), ())
    }

    fn stamp(_: &Hyaline) {}

    fn scan_threshold(eng: &Hyaline) -> usize {
        eng.cfg.batch_size
    }

    /// Seals the unsealed batch and distributes it to all active slots.
    fn reclaim(eng: &Hyaline, local: &mut Local<Self>) {
        if local.retired.is_empty() {
            return;
        }
        crate::fault::on_scan();
        let items = std::mem::take(&mut local.retired);
        // Ordering: Relaxed — throttle gauge (see `Batches`); counted
        // before the pushes so a racing claimer can only *under*-read,
        // never see the decrement before the increment.
        eng.shared.fetch_add(items.len(), Ordering::Relaxed);
        let batch = Box::into_raw(Box::new(Batch {
            refs: AtomicIsize::new(0),
            items,
        }));
        let mut pushes: isize = 0;
        // The sweep's fence pairs with the one in `enter`: a reader whose
        // active head we miss below fenced after us, so its protected reads
        // observe the unlinks that preceded this distribution and it cannot
        // reach the batch's objects.
        for head in eng.sweep() {
            let mut node: Option<Box<LinkNode>> = None;
            loop {
                // Ordering: Relaxed — ordered by the fence pairing above
                // (first iteration) and by the failed CAS below (retries);
                // the push CAS re-validates the value either way.
                let h = head.load(Ordering::Relaxed);
                if h == INVALID {
                    break; // not in a critical section; skip this slot
                }
                let mut n = node
                    .take()
                    .unwrap_or_else(|| Box::new(LinkNode { batch, next: 0 }));
                n.next = h;
                let raw = Box::into_raw(n);
                // Ordering: Release on success — publishes the link node's
                // contents (batch pointer, next) to the slot owner, whose
                // detaching Acquire swap in `leave` pairs with it. Acquire
                // on failure — the reloaded head is pushed onto next
                // iteration, so it needs the same edge the initial load got
                // from the fence.
                match head.compare_exchange(h, raw as usize, Ordering::Release, Ordering::Acquire) {
                    Ok(_) => {
                        pushes += 1;
                        break;
                    }
                    // SAFETY: the push failed, so `raw` is still ours.
                    Err(_) => node = Some(unsafe { Box::from_raw(raw) }),
                }
            }
        }
        // Add the push count; leavers may already have driven the counter
        // negative. Whoever lands it on exactly zero reclaims — including us,
        // right now, when every pushed-to section has already left (or no
        // section was active at all).
        // Ordering: AcqRel — Release publishes the batch items to racing
        // decrementers; Acquire on the zero case synchronizes with every
        // leaver's Release decrement so their sections are over before we
        // reclaim (see `leave`).
        // SAFETY: the batch outlives its counter reaching zero.
        let old = unsafe { &*batch }.refs.fetch_add(pushes, Ordering::AcqRel);
        if old + pushes == 0 {
            // SAFETY: we made the unique transition to zero.
            unsafe { claim(eng, batch, local) };
        }
    }

    /// Bounded retire-side backpressure while the instance-wide unclaimed
    /// count stays over the watermark. Hyaline has no scan to force
    /// progress with — the count only falls when a pushed-to section
    /// leaves — so this is pure backpressure, outside any section of the
    /// caller's (which would pin the very batches being waited on).
    fn over_watermark(eng: &Hyaline, local: &mut Local<Self>, cap: usize) {
        // Ordering: Relaxed — the trigger and the recheck are heuristics;
        // staleness merely costs one more bounded round.
        let under = || eng.shared.load(Ordering::Relaxed) < cap;
        if local.depth == 0 && !under() {
            eng.throttle(under);
        }
    }

    /// Force-leaves every slot: walks and frees any remaining lists so
    /// every batch's counter reaches zero exactly once and its items land
    /// in some slot's ready queue.
    unsafe fn recall(eng: &Hyaline) {
        for slot in eng.slots.iter() {
            Self::leave(eng, &slot.ann, &mut *slot.local.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current_tid, AcquireRetire, GlobalEpoch, Retired, SmrConfig};
    use std::sync::Arc;

    fn new_hyaline(batch: usize) -> Hyaline {
        let cfg = SmrConfig {
            batch_size: batch,
            ..Hyaline::default_config()
        };
        Hyaline::new(Arc::new(GlobalEpoch::new()), cfg)
    }

    #[test]
    fn retire_with_no_active_sections_ejects_after_flush() {
        let hy = new_hyaline(4);
        let t = current_tid();
        hy.retire(t, Retired::new(0x1000, 0));
        hy.flush(t);
        assert_eq!(hy.eject(t), Some(0x1000));
        assert_eq!(hy.eject(t), None);
    }

    #[test]
    fn batch_threshold_distributes_automatically() {
        let hy = new_hyaline(3);
        let t = current_tid();
        for i in 0..3 {
            hy.retire(t, Retired::new(0x1000 + i * 8, 0));
        }
        // Third retire sealed the batch; nobody active, so it came straight
        // back to us.
        assert!(hy.eject(t).is_some());
    }

    #[test]
    fn own_critical_section_defers_until_leave() {
        let hy = new_hyaline(1);
        let t = current_tid();
        hy.begin_critical_section(t);
        hy.retire(t, Retired::new(0x2000, 0)); // batch of 1, pushed to our own slot
        assert_eq!(hy.eject(t), None, "own section holds the batch");
        hy.end_critical_section(t);
        assert_eq!(hy.eject(t), Some(0x2000));
    }

    #[test]
    fn concurrent_reader_blocks_until_leaving_and_then_claims() {
        use std::sync::mpsc;
        let hy = Arc::new(new_hyaline(1));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (retired_tx, retired_rx) = mpsc::channel::<()>();
        let (claimed_tx, claimed_rx) = mpsc::channel();
        let reader = {
            let hy = Arc::clone(&hy);
            std::thread::spawn(move || {
                let rt = current_tid();
                hy.begin_critical_section(rt);
                entered_tx.send(()).unwrap();
                retired_rx.recv().unwrap();
                hy.end_critical_section(rt);
                // In Hyaline the *leaving* thread claims zeroed batches.
                let claimed = hy.eject(rt);
                claimed_tx.send(claimed).unwrap();
            })
        };
        entered_rx.recv().unwrap();
        let t = current_tid();
        hy.retire(t, Retired::new(0x3000, 0));
        // The batch was pushed to the reader's slot; we cannot eject it.
        assert_eq!(hy.eject(t), None);
        retired_tx.send(()).unwrap();
        let claimed = claimed_rx.recv().unwrap();
        reader.join().unwrap();
        assert_eq!(claimed, Some(0x3000));
    }

    #[test]
    fn batch_pushed_to_multiple_active_slots_claimed_once() {
        use std::sync::mpsc;
        let hy = Arc::new(new_hyaline(1));
        let mut entered = Vec::new();
        let mut release = Vec::new();
        let mut claims = Vec::new();
        let mut joins = Vec::new();
        for _ in 0..3 {
            let hy = Arc::clone(&hy);
            let (etx, erx) = mpsc::channel();
            let (rtx, rrx) = mpsc::channel::<()>();
            let (ctx, crx) = mpsc::channel();
            entered.push(erx);
            release.push(rtx);
            claims.push(crx);
            joins.push(std::thread::spawn(move || {
                let rt = current_tid();
                hy.begin_critical_section(rt);
                etx.send(()).unwrap();
                rrx.recv().unwrap();
                hy.end_critical_section(rt);
                let mut mine = 0;
                while hy.eject(rt).is_some() {
                    mine += 1;
                }
                ctx.send(mine).unwrap();
            }));
        }
        for e in &entered {
            e.recv().unwrap();
        }
        let t = current_tid();
        hy.retire(t, Retired::new(0x4000, 0));
        assert_eq!(hy.eject(t), None);
        for r in &release {
            r.send(()).unwrap();
        }
        let total: usize = claims.iter().map(|c| c.recv().unwrap()).sum();
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total, 1, "batch must be claimed by exactly one leaver");
    }

    #[test]
    fn drain_all_collects_current_and_listed() {
        let hy = new_hyaline(100);
        let t = current_tid();
        hy.begin_critical_section(t);
        hy.retire(t, Retired::new(0x5000, 0));
        hy.retire(t, Retired::new(0x6000, 0));
        // Force a distribution while our own section is active so a link
        // node sits in our slot list.
        hy.flush(t);
        hy.retire(t, Retired::new(0x7000, 0));
        let drained = unsafe { hy.drain_all() };
        assert_eq!(drained.len(), 3);
    }
}
