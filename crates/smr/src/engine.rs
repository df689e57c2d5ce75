//! The one engine frame behind all four schemes.
//!
//! The generalized acquire-retire interface (paper Fig. 2) exists so that
//! schemes differ only in *what they announce*, *what a retire is stamped
//! with* and *when an entry may be ejected* (Fig. 3 EBR, Fig. 4 IBR, §3.2
//! HP). [`Engine`] owns everything else exactly once — per-thread slots,
//! section nesting, the fault and sanitizer checkpoints, allocation
//! counting, the retire list and its threshold-spaced scans, the
//! fence-then-sweep skeleton, the ready queue, draining and dead-slot
//! recovery — and a crate-private `Protection` policy supplies the
//! protection rule. `smr::{Ebr, Ibr, Hp, Hyaline}` are
//! aliases of `Engine<policy>`; the crate docs' "Adding a scheme" table
//! lists what a policy owes.

use crate::registry::{registered_high_water_mark, Tid, MAX_THREADS};
use crate::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use crate::sync::exempt;
use crate::util::CachePadded;
use crate::{fault, sanitize, AcquireRetire, GlobalEpoch, Retired, SmrConfig};

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Rounds of sleep-then-recheck the [`SmrConfig::max_garbage`] backpressure
/// loop runs before giving up. Bounded so an over-watermark `retire` slows
/// to a crawl but never blocks forever (the watermark is a *soft* cap:
/// liveness is preserved even when the stalled reader never wakes).
const THROTTLE_ROUNDS: u32 = 20;

/// Sleep per backpressure round (see [`THROTTLE_ROUNDS`]).
const THROTTLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(100);

/// Where one scheme's protection rule differs from the others'. Everything
/// a policy is handed (`eng`, an announcement, a [`Local`]) comes from the
/// frame, which has already established whose slot it is.
//
// `pub` in a private module, and not re-exported: the frame's public
// `AcquireRetire` impl projects `P::Guard`, and consumers hold values of
// type `Engine<policy>`, so the compiler requires this trait, the policy
// types and the types in these signatures to be nominally public (E0446,
// type privacy) — but none of them can be named, implemented or called
// from outside the crate.
pub trait Protection: Sized + 'static {
    /// [`AcquireRetire::scheme_name`].
    const NAME: &'static str;
    /// [`AcquireRetire::PROTECTS_REGIONS`].
    const PROTECTS_REGIONS: bool;
    /// [`AcquireRetire::PROTECTS_SECTION_READS`]; also what the sanitizer's
    /// section shadow is told.
    const PROTECTS_SECTION_READS: bool;

    /// One slot's announcement word(s): written by the owner, read by every
    /// scanning thread.
    type Ann: Send + Sync;
    /// [`AcquireRetire::Guard`].
    type Guard: Copy + fmt::Debug + Send;
    /// [`AcquireRetire::Birth`]: `u64` where `reclaim` reads it, `()`
    /// where nothing does.
    type Birth: Birth;
    /// What a retire records next to the pointer.
    type Stamp: Copy + Send;
    /// Owner-only per-slot state beyond the frame's [`Local`].
    type Local: Send;
    /// Instance-wide state beyond the frame's.
    type Shared: Default + Send + Sync;

    /// The scheme's preferred tuning (paper §5.1 values).
    fn default_config() -> SmrConfig {
        SmrConfig::default()
    }
    /// An announcement protecting nothing.
    fn ann() -> Self::Ann;
    /// The owner-only state of a slot nobody has used.
    fn local(cfg: &SmrConfig) -> Self::Local;

    /// Outermost section entry: publish the announcement, *fenced* before
    /// any protected read that follows.
    fn enter(eng: &Engine<Self>, ann: &Self::Ann, local: &mut Local<Self>);
    /// Outermost section exit: withdraw it; the section's reads must not
    /// sink below.
    fn leave(eng: &Engine<Self>, ann: &Self::Ann, local: &mut Local<Self>);
    /// [`AcquireRetire::quiescent`]: whether no announcement of `eng`
    /// protects anything. Region schemes [`Engine::sweep`] and test each
    /// announcement; HP takes a snapshot.
    fn quiescent(eng: &Engine<Self>) -> bool;
    /// [`AcquireRetire::hazard_snapshot`]; only the pointer scheme has one.
    fn snapshot(_eng: &Engine<Self>, _out: &mut Vec<usize>) -> bool {
        unreachable!(
            "{} protects regions and takes no hazard snapshot",
            Self::NAME
        )
    }
    /// Withdraws a *dead* owner's announcement, claiming whatever that
    /// frees into `into`. A region scheme leaves on the dead thread's
    /// behalf, which is the default.
    ///
    /// # Safety
    ///
    /// The owner of `ann`'s slot has terminated (or the caller has
    /// `drain_all`'s exclusivity), and `into` is the caller's own.
    unsafe fn force_close(eng: &Engine<Self>, ann: &Self::Ann, into: &mut Local<Self>) {
        Self::leave(eng, ann, into)
    }

    /// [`AcquireRetire::acquire`] on the caller's own `slot`.
    fn acquire(
        eng: &Engine<Self>,
        t: Tid,
        slot: &Slot<Self>,
        src: &AtomicUsize,
    ) -> (usize, Self::Guard);
    /// [`AcquireRetire::try_acquire`]; total unless guards are a resource.
    #[inline]
    fn try_acquire(
        eng: &Engine<Self>,
        t: Tid,
        slot: &Slot<Self>,
        src: &AtomicUsize,
    ) -> Option<(usize, Self::Guard)> {
        Some(Self::acquire(eng, t, slot, src))
    }
    /// [`AcquireRetire::release`]; nothing unless guards are a resource.
    #[inline]
    fn release(_eng: &Engine<Self>, _t: Tid, _slot: &Slot<Self>, _guard: Self::Guard) {}

    /// The birth of an object allocated now; epoch schemes call
    /// [`Engine::tick`] first.
    #[inline]
    fn birth(_eng: &Engine<Self>, _t: Tid) -> Self::Birth {
        Self::Birth::of(0)
    }
    /// The stamp of a retire issued now.
    fn stamp(eng: &Engine<Self>) -> Self::Stamp;
    /// Retired-list length that triggers a scan (and spaces the next one).
    fn scan_threshold(eng: &Engine<Self>) -> usize {
        eng.cfg.eject_threshold
    }
    /// Moves retired entries that no announcement protects on to
    /// `local.ready` — and never one that is protected. Scan schemes
    /// [`Engine::survey`] the announcements and then [`eject_unless`].
    fn reclaim(eng: &Engine<Self>, local: &mut Local<Self>);
    /// The scheme's [`SmrConfig::max_garbage`] arm, run after every retire
    /// while a watermark is set.
    fn over_watermark(_eng: &Engine<Self>, _local: &mut Local<Self>, _cap: usize) {}
    /// Brings home entries parked outside the slot-local lists.
    ///
    /// # Safety
    ///
    /// `drain_all`'s exclusivity.
    unsafe fn recall(_eng: &Engine<Self>) {}
}

/// A stored birth: what a scheme keeps of the public record's
/// [`Retired::birth`]. Only these two types are ever one.
pub trait Birth: Copy + Default + Send + Sync + fmt::Debug + 'static {
    /// Keeps what the scheme reads of `epoch`.
    fn of(epoch: u64) -> Self;
    /// The epoch [`AcquireRetire::birth_epoch`] reports: 0 where nothing is
    /// kept.
    fn epoch(self) -> u64;
}

impl Birth for () {
    #[inline(always)]
    fn of(_: u64) {}
    #[inline(always)]
    fn epoch(self) -> u64 {
        0
    }
}

impl Birth for u64 {
    #[inline(always)]
    fn of(epoch: u64) -> u64 {
        epoch
    }
    #[inline(always)]
    fn epoch(self) -> u64 {
        self
    }
}

/// A retired entry as a slot stores it: the address, its scheme-sized
/// birth, and the stamp of its retire. 16 bytes under EBR, 8 under HP and
/// Hyaline, 24 under IBR (the public [`Retired`] record is 16 everywhere).
/// Once its protection lapses only the address is kept, for `eject`.
pub(crate) type Entry<P> = (usize, <P as Protection>::Birth, <P as Protection>::Stamp);

/// The owner-only part of a slot.
#[allow(missing_debug_implementations)] // unnameable; see `Protection`
pub struct Local<P: Protection> {
    /// Retired entries awaiting a scan, with the stamp of their retire.
    pub(crate) retired: Vec<Entry<P>>,
    /// Addresses whose protection has lapsed, ready for `eject`.
    pub(crate) ready: VecDeque<usize>,
    /// Critical-section nesting depth.
    pub(crate) depth: u32,
    /// Allocations since the last clock advance (see [`Engine::tick`]).
    allocs: u64,
    /// Retired-list length at which the next automatic scan fires. Spacing
    /// scans a full threshold past the previous scan's survivors (instead
    /// of re-scanning on every retire once the list is long) keeps the cost
    /// amortized even when an open section — often the retiring thread's
    /// own — pins every entry: without the spacing, a pinned list ≥
    /// threshold degenerates to one whole-slot-array scan plus list rebuild
    /// *per retire*. The other side of the spacing: a list that gets fewer
    /// retires than that after a scan is scanned again only by `flush`, so
    /// a thread that stops retiring keeps what it holds until its owner
    /// flushes (the `cdrc` domain does at quiescent settles and, for the
    /// dispose list, at section exit).
    next_scan: usize,
    /// The policy's own owner-only state.
    pub(crate) own: P::Local,
}

impl<P: Protection> Local<P> {
    /// The state of a slot nobody has used.
    fn new(cfg: &SmrConfig) -> Self {
        Local {
            retired: Vec::new(),
            ready: VecDeque::new(),
            depth: 0,
            allocs: 0,
            next_scan: 0,
            own: P::local(cfg),
        }
    }
}

/// One thread's announcement and bookkeeping, inline in one `CachePadded`
/// block: no part shares a 128-byte line with a neighbouring thread's.
#[allow(missing_debug_implementations)] // unnameable; see `Protection`
pub struct Slot<P: Protection> {
    pub(crate) ann: P::Ann,
    pub(crate) local: UnsafeCell<Local<P>>,
}

/// One instance of a reclamation scheme: the frame every scheme shares,
/// parameterized by the (crate-private) protection policy. Use it through
/// the aliases [`Ebr`](crate::Ebr), [`Ibr`](crate::Ibr), [`Hp`](crate::Hp)
/// and [`Hyaline`](crate::Hyaline) and the [`AcquireRetire`] trait.
//
// Safety invariant: `Slot::local` is only accessed by the thread whose
// `Tid` indexes that slot — except under `drain_all`'s exclusivity and
// `reclaim_slot`'s dead-owner contract. `Slot::ann` is written by the owner
// (and by whoever a policy documents) and read by all threads during scans.
// Every `unsafe` dereference of a `local` below leans on this.
pub struct Engine<P: Protection> {
    pub(crate) clock: Arc<GlobalEpoch>,
    pub(crate) cfg: SmrConfig,
    pub(crate) shared: P::Shared,
    pub(crate) slots: Box<[CachePadded<Slot<P>>; MAX_THREADS]>,
    /// What exiting threads handed off ([`AcquireRetire::hand_off`]): their
    /// retired entries with stamps, and their ready ones. The next
    /// outermost section exit of any thread adopts them.
    orphans: Mutex<Orphans<P>>,
    /// Whether `orphans` may hold anything; a hint read on every outermost
    /// section exit, so a stale `false` only delays the adoption.
    orphaned: AtomicBool,
}

/// The lists a thread handed off on its way out.
type Orphans<P> = (Vec<Entry<P>>, Vec<usize>);

// SAFETY: `clock`, `cfg`, `shared`, the hand-off box and every `Slot::ann`
// are `Sync` by their bounds. `Slot::local` is the one `!Sync` field; the
// frame invariant above gives each `Local` a single accessing thread at a
// time, and `Local` is `Send` (its policy parts by bound), so handing a slot
// from an exited thread to its successor is sound.
unsafe impl<P: Protection> Sync for Engine<P> {}

/// Retains in place the entries `keep` holds on to and queues the rest for
/// `eject`; allocation-free on the retired list.
pub(crate) fn eject_unless<B: Copy, S: Copy>(
    retired: &mut Vec<(usize, B, S)>,
    ready: &mut VecDeque<usize>,
    mut keep: impl FnMut(usize, B, S) -> bool,
) {
    retired.retain(|&(addr, birth, stamp)| {
        let kept = keep(addr, birth, stamp);
        if !kept {
            ready.push_back(addr);
        }
        kept
    });
}

impl<P: Protection> Engine<P> {
    #[inline(always)]
    fn slot(&self, t: Tid) -> &Slot<P> {
        &self.slots[t.index()]
    }

    /// Slot `t`'s owner-only state.
    ///
    /// # Safety
    ///
    /// The caller is slot `t`'s owner under the frame invariant and lets no
    /// two of these borrows overlap.
    #[inline(always)]
    #[allow(clippy::mut_from_ref)]
    unsafe fn own(&self, t: Tid) -> &mut Local<P> {
        &mut *self.slot(t).local.get()
    }

    /// This instance's key in the sanitizer's shadow tables.
    #[inline(always)]
    pub(crate) fn id(&self) -> usize {
        self as *const Self as usize
    }

    /// The fence-then-sweep skeleton under every scan and `quiescent`.
    pub(crate) fn sweep(&self) -> impl Iterator<Item = &P::Ann> {
        // Ordering: fence(SeqCst) — pairs with the announcement fence each
        // policy pays (`enter` for region schemes, and again wherever an
        // `acquire` widens or publishes an announcement). For any reader,
        // one of the two fences is first in the SeqCst total order: if the
        // reader's is, the announcement loads of this sweep must observe
        // its announcement (stored before its fence) and the scan keeps
        // what it protects; if ours is, the reader's post-fence loads —
        // its protected reads, or its validating re-read — observe every
        // unlink that preceded this fence, so it cannot reach (or will
        // reject) anything the caller goes on to eject or hand back. With
        // no entry to keep this degenerates to `quiescent`'s check.
        fence(Ordering::SeqCst);
        self.slots
            .iter()
            .take(registered_high_water_mark())
            .map(|slot| &slot.ann)
    }

    /// The head of a scan: the fault checkpoint, then `observe` over the
    /// [`sweep`](Self::sweep).
    pub(crate) fn survey(&self, observe: impl FnMut(&P::Ann)) {
        fault::on_scan();
        self.sweep().for_each(observe);
    }

    /// Runs the policy's reclaim step and spaces the next automatic one.
    pub(crate) fn scan(&self, local: &mut Local<P>) {
        P::reclaim(self, local);
        local.next_scan = local.retired.len() + P::scan_threshold(self);
    }

    /// The hand-off box, whoever panicked while holding it.
    fn orphans(&self) -> MutexGuard<'_, Orphans<P>> {
        self.orphans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes what exiting threads handed off into `local`'s lists and scans
    /// them there.
    #[cold]
    fn adopt(&self, local: &mut Local<P>) {
        let (retired, ready) = {
            let mut box_ = self.orphans();
            // The box is emptied under its lock, so clearing the hint here
            // cannot hide a later hand-off: that one sets it again after
            // pushing.
            // Ordering: Relaxed — the lock orders the entries; the hint
            // carries no data.
            exempt(|| self.orphaned.store(false, Ordering::Relaxed));
            std::mem::take(&mut *box_)
        };
        local.retired.extend(retired);
        local.ready.extend(ready);
        self.scan(local);
    }

    /// Counts an allocation by slot `t`'s owner and advances the clock every
    /// `epoch_freq` of them. Counted up and reset, rather than `allocs %
    /// epoch_freq`: this runs once per allocation and the modulo is an
    /// integer division on the hot path.
    #[inline]
    pub(crate) fn tick(&self, t: Tid) {
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { self.own(t) };
        local.allocs += 1;
        if local.allocs >= self.cfg.epoch_freq {
            local.allocs = 0;
            self.clock.advance();
        }
    }

    /// A protected-region `acquire`: the section's announcement is the
    /// protection, so the hop is a load.
    #[inline]
    pub(crate) fn region_load(slot: &Slot<P>, src: &AtomicUsize) -> usize {
        debug_assert!(
            // SAFETY: `slot` is the caller's own (frame invariant).
            unsafe { &*slot.local.get() }.depth > 0,
            "acquire outside critical section"
        );
        // Ordering: Acquire — pairs with the Release store/CAS that
        // published the pointee, making its initialized contents visible to
        // the dereferencing caller. Protection against reclamation comes
        // from the section's announcement fence, not from this load.
        src.load(Ordering::Acquire)
    }

    /// Bounded retire-side backpressure (the `max_garbage` escape hatch):
    /// sleep in short rounds until `relieved` or the round budget runs out.
    /// Only ever called with `depth == 0` — sleeping inside the caller's
    /// own section would pin the very garbage being waited on.
    #[cold]
    pub(crate) fn throttle(&self, mut relieved: impl FnMut() -> bool) {
        for _ in 0..THROTTLE_ROUNDS {
            std::thread::sleep(THROTTLE_SLEEP);
            if relieved() {
                return;
            }
        }
    }
}

unsafe impl<P: Protection> AcquireRetire for Engine<P> {
    type Guard = P::Guard;
    type Birth = P::Birth;

    const PROTECTS_REGIONS: bool = P::PROTECTS_REGIONS;
    const PROTECTS_SECTION_READS: bool = P::PROTECTS_SECTION_READS;

    fn new(clock: Arc<GlobalEpoch>, config: SmrConfig) -> Self {
        let slots: Box<[_]> = (0..MAX_THREADS)
            .map(|_| {
                CachePadded::new(Slot {
                    ann: P::ann(),
                    local: UnsafeCell::new(Local::new(&config)),
                })
            })
            .collect();
        Engine {
            clock,
            cfg: config,
            shared: P::Shared::default(),
            slots: slots.try_into().ok().expect("MAX_THREADS slots collected"),
            orphans: Mutex::new((Vec::new(), Vec::new())),
            orphaned: AtomicBool::new(false),
        }
    }

    fn default_config() -> SmrConfig {
        P::default_config()
    }

    fn scheme_name() -> &'static str {
        P::NAME
    }

    #[inline]
    fn begin_critical_section(&self, t: Tid) {
        let slot = self.slot(t);
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { &mut *slot.local.get() };
        local.depth += 1;
        if local.depth == 1 {
            P::enter(self, &slot.ann, local);
            fault::on_section_entry(t);
            sanitize::section_enter(self.id(), t, P::PROTECTS_SECTION_READS);
        }
    }

    #[inline]
    fn end_critical_section(&self, t: Tid) -> bool {
        let slot = self.slot(t);
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { &mut *slot.local.get() };
        debug_assert!(local.depth > 0, "end_critical_section without begin");
        local.depth -= 1;
        if local.depth > 0 {
            return false;
        }
        P::leave(self, &slot.ann, local);
        // Ordering: Relaxed — a hint, not a protocol word: the entries
        // travel under the box's lock, and a missed hint waits for the next
        // exit.
        if exempt(|| self.orphaned.load(Ordering::Relaxed)) {
            self.adopt(local);
        }
        sanitize::section_exit(self.id(), t);
        true
    }

    #[inline]
    fn birth_epoch(&self, t: Tid) -> u64 {
        P::birth(self, t).epoch()
    }

    #[inline]
    fn birth(&self, t: Tid) -> P::Birth {
        P::birth(self, t)
    }

    #[inline]
    fn acquire(&self, t: Tid, src: &AtomicUsize) -> (usize, Self::Guard) {
        P::acquire(self, t, self.slot(t), src)
    }

    #[inline]
    fn try_acquire(&self, t: Tid, src: &AtomicUsize) -> Option<(usize, Self::Guard)> {
        P::try_acquire(self, t, self.slot(t), src)
    }

    #[inline]
    fn release(&self, t: Tid, guard: Self::Guard) {
        P::release(self, t, self.slot(t), guard)
    }

    #[inline]
    fn retire(&self, t: Tid, r: Retired) {
        self.retire_born(t, r.addr, P::Birth::of(r.birth));
    }

    fn retire_born(&self, t: Tid, addr: usize, birth: P::Birth) {
        debug_assert!(crate::untagged(addr) != 0, "cannot retire a null pointer");
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { self.own(t) };
        local.retired.push((addr, birth, P::stamp(self)));
        // Scan only once a full threshold of retires has accumulated since
        // the last scan (see `Local::next_scan`), never on every retire.
        if local.retired.len() >= P::scan_threshold(self).max(local.next_scan) {
            self.scan(local);
        }
        // Escape hatch: with a watermark set, the scheme decides what being
        // over it means and what to do so a stalled reader elsewhere caps
        // this thread's garbage instead of pinning an ever-growing list.
        if let Some(cap) = self.cfg.max_garbage {
            P::over_watermark(self, local, cap);
        }
    }

    #[inline]
    fn eject(&self, t: Tid) -> Option<usize> {
        // SAFETY: `t` is the calling thread's slot (proper use).
        unsafe { self.own(t) }.ready.pop_front()
    }

    #[inline]
    fn has_ready(&self, t: Tid) -> bool {
        // SAFETY: `t` is the calling thread's slot (proper use).
        !unsafe { self.own(t) }.ready.is_empty()
    }

    fn quiescent(&self) -> bool {
        P::quiescent(self)
    }

    fn hazard_snapshot(&self, out: &mut Vec<usize>) -> bool {
        P::snapshot(self, out)
    }

    fn flush(&self, t: Tid) {
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { self.own(t) };
        // Ordering: Relaxed — a hint, as at section exit.
        if exempt(|| self.orphaned.load(Ordering::Relaxed)) {
            return self.adopt(local);
        }
        // Nothing to classify: skip the sweep (and its fault checkpoint).
        if !local.retired.is_empty() {
            self.scan(local);
        }
    }

    fn hand_off(&self, t: Tid) {
        // SAFETY: `t` is the calling thread's slot (proper use).
        let local = unsafe { self.own(t) };
        // No scan here: the adopter scans anyway, and an exiting thread
        // should be quick about it.
        if local.retired.is_empty() && local.ready.is_empty() {
            return;
        }
        let mut box_ = self.orphans();
        box_.0.append(&mut local.retired);
        box_.1.extend(local.ready.drain(..));
        // Ordering: Relaxed — as in `adopt`.
        exempt(|| self.orphaned.store(true, Ordering::Relaxed));
    }

    unsafe fn drain_all(&self) -> Vec<usize> {
        P::recall(self);
        let (retired, mut out) = std::mem::take(&mut *self.orphans());
        out.extend(retired.into_iter().map(|(a, ..)| a));
        for slot in self.slots.iter() {
            // SAFETY: exclusive access to every slot is the caller's
            // contract.
            let local = &mut *slot.local.get();
            out.extend(local.retired.drain(..).map(|(a, ..)| a));
            out.extend(local.ready.drain(..));
        }
        out
    }

    unsafe fn reclaim_slot(&self, dead: Tid, into: Tid) {
        debug_assert_ne!(dead, into, "cannot reclaim a slot into itself");
        // SAFETY: exclusive access to the dead slot's local state is the
        // caller's contract (the owner terminated; the abandon/join edge
        // published its writes). The borrow ends before `into`'s begins.
        // The slot is left as new; only its deferred entries are kept.
        let Local { retired, ready, .. } = std::mem::replace(self.own(dead), Local::new(&self.cfg));
        // SAFETY: `into` is the calling thread's own slot.
        let local = self.own(into);
        // Scanners that now find the dead announcement withdrawn may eject
        // entries it pinned; that is sound precisely because the owner is
        // dead: no post-fence read of its section, and no read through one
        // of its validated hazards, can ever execute again. The policies'
        // Release (or stronger) on the withdrawal also keeps the list
        // takeover above from sinking below it.
        P::force_close(self, &self.slot(dead).ann, local);
        // Migrate the orphaned deferred state into the caller's slot so its
        // scans (rather than the slot's eventual next owner) drain it.
        local.retired.extend(retired);
        local.ready.extend(ready);
        self.scan(local);
    }
}

impl<P: Protection> Drop for Engine<P> {
    fn drop(&mut self) {
        // Frees what a policy parked outside the slots; the retired records
        // themselves are dropped (owning domains drain before dropping us).
        // SAFETY: `&mut self` is `drain_all`'s exclusivity.
        unsafe { P::recall(self) }
    }
}

impl<P: Protection> fmt::Debug for Engine<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(P::NAME)
            .field("epoch", &self.clock.load())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;

    #[test]
    fn stored_entry_sizes() {
        // A birth is stored only where the eject rule reads it (IBR), a
        // stamp only where it is an epoch (EBR, IBR). The public record
        // `Retired` stays 16 bytes; a slot stores the compact entry, and a
        // ready one is the address alone.
        let w = size_of::<usize>();
        assert_eq!(size_of::<Entry<crate::ebr::Epochs>>(), 2 * w);
        assert_eq!(size_of::<Entry<crate::ibr::Intervals>>(), 3 * w);
        assert_eq!(size_of::<Entry<crate::hp::Hazards>>(), w);
        assert_eq!(size_of::<Entry<crate::hyaline::Batches>>(), w);
        assert_eq!(size_of::<Retired>(), 2 * w);
    }
}
