//! Lock-free data structures from the CDRC paper's evaluation (§5), each in
//! two variants:
//!
//! * [`manual`] — classic implementations over the generalized
//!   acquire-retire interface of the [`smr`] crate, where `retire` is a
//!   *delayed free* and the programmer is responsible for retiring every
//!   unlinked node (the error-prone code the paper's Fig. 1a highlights);
//! * [`rc`] — automatic implementations over the reference-counted pointer
//!   types of the [`cdrc`] crate, where a single pointer swing reclaims
//!   whole unlinked subtrees (Fig. 1b).
//!
//! Structures: Harris-Michael linked list, the resizable (split-ordered)
//! hash map built over that list — sized for its keys it is the paper's
//! fixed-bucket table, there is no separate one — Natarajan-Mittal external
//! BST (with the paper's sequential range query),
//! and the Ramalhete-Correia DoubleLink queue (whose `prev` edges become
//! atomic *weak* pointers in the RC variant — Fig. 10).

#![warn(missing_docs)]

pub mod manual;
pub(crate) mod nm;
pub mod rc;
pub(crate) mod split_order;

use smr::sync::atomic::{AtomicU64, Ordering};

use smr::{registered_high_water_mark, Tid, MAX_THREADS};

/// The uniform map interface the repo benchmark (`ledger/`) and the bench
/// driver (`crates/bench`) drive.
///
/// Implementations are linearizable for point operations; `range` may be
/// sequentially (non-linearizably) collected, as in the paper (§5.1,
/// footnote 5).
///
/// # Guard-centric operation API
///
/// Every operation exists in two forms: a guard-taking variant (`get_with`,
/// `insert_with`, …) that runs under a caller-held [`Guard`](Self::Guard),
/// and a guard-free convenience wrapper (`get`, `insert`, …) that opens a
/// section internally for its own duration. The per-critical-section fence
/// (one SeqCst announcement round trip for the region schemes) closes the
/// gap to manual reclamation **only when amortized over many operations**
/// (paper §3.4), so hot loops should [`pin`](Self::pin) once per batch:
///
/// ```
/// use cdrc::EbrScheme;
/// use lockfree::rc::RcHarrisMichaelList;
/// use lockfree::ConcurrentMap;
///
/// let map: RcHarrisMichaelList<u64, u64, EbrScheme> = RcHarrisMichaelList::new();
/// let guard = map.pin();
/// for k in 0..64u64 {
///     map.insert_with(k, k, &guard);
///     assert_eq!(map.get_with(&k, &guard), Some(k));
/// }
/// drop(guard); // reclamation of the batch's garbage resumes here
/// ```
///
/// Critical sections nest, so both call styles may be mixed freely on one
/// structure, even within a held guard. Holding a guard *too* long delays
/// reclamation (the announcement pins the scheme's epoch); the repo
/// benchmark and the bench driver (`bench::GUARD_BATCH`) re-pin every 64
/// operations, matching the paper's methodology.
pub trait ConcurrentMap<K, V>: Send + Sync {
    /// RAII token holding this thread's critical section(s) open across a
    /// batch of operations. Dropping it ends the section and lets deferred
    /// reclamation of the batch's garbage proceed.
    ///
    /// Guards are thread-bound (not `Send`) and must only be passed to
    /// operations on the structure that created them (or, for the RC
    /// variants, on structures sharing its domain, see `new_in`); debug
    /// builds assert this where it is not guaranteed by construction.
    type Guard;

    /// Opens an operation guard for the current thread.
    fn pin(&self) -> Self::Guard;

    /// As [`insert`](Self::insert), under a caller-held guard.
    fn insert_with(&self, k: K, v: V, guard: &Self::Guard) -> bool;

    /// As [`remove`](Self::remove), under a caller-held guard.
    fn remove_with(&self, k: &K, guard: &Self::Guard) -> bool;

    /// As [`get`](Self::get), under a caller-held guard.
    fn get_with(&self, k: &K, guard: &Self::Guard) -> Option<V>;

    /// As [`range`](Self::range), under a caller-held guard.
    fn range_with(&self, _from: &K, _to: &K, _limit: usize, _guard: &Self::Guard) -> Option<usize> {
        None
    }

    /// Inserts `k → v`; `false` if `k` was already present.
    fn insert(&self, k: K, v: V) -> bool {
        self.insert_with(k, v, &self.pin())
    }

    /// Removes `k`; `false` if absent.
    fn remove(&self, k: &K) -> bool {
        self.remove_with(k, &self.pin())
    }

    /// Looks up `k`.
    fn get(&self, k: &K) -> Option<V> {
        self.get_with(k, &self.pin())
    }

    /// Collects up to `limit` keys in `[from, to)`, returning how many were
    /// seen. Returns `None` if the structure does not support range queries.
    ///
    /// The default returns `None` without opening a section (pinning just to
    /// discover "unsupported" would waste a fence); structures overriding
    /// [`range_with`](Self::range_with) override this too, as
    /// `self.range_with(from, to, limit, &self.pin())`.
    fn range(&self, _from: &K, _to: &K, _limit: usize) -> Option<usize> {
        None
    }

    /// Nodes currently allocated and not yet freed (live + deferred
    /// garbage) — the paper's "extra nodes" metric is this minus the live
    /// count.
    ///
    /// # Reclamation domains
    ///
    /// This metric is **per structure**. RC variants read the counters of
    /// their own reclamation domain (`cdrc::DomainRef`): `new()` binds a
    /// structure to the scheme's global default domain, `new_in(domain)` to
    /// an explicit one. Structures that should reclaim — and be metered —
    /// together (e.g. a cache and its index) share one domain by cloning
    /// the handle; unrelated structures get fresh domains and are fully
    /// isolated, even on the same scheme: separate epoch clocks, retired
    /// lists and counters, so one structure's open guard never pins the
    /// other's garbage. Note that structures sharing one domain (including
    /// everything bound to the global default) deliberately share this
    /// counter. A manual structure owns its scheme instance and meters its
    /// own nodes.
    fn in_flight_nodes(&self) -> u64;
}

/// The uniform queue interface for the Fig. 12 benchmark.
///
/// Mirrors [`ConcurrentMap`]'s guard-centric design: `enqueue_with` /
/// `dequeue_with` run under a caller-held [`Guard`](Self::Guard) obtained
/// from [`pin`](Self::pin); the guard-free methods are thin wrappers that
/// open a section per call.
pub trait ConcurrentQueue<V>: Send + Sync {
    /// RAII token holding this thread's critical section(s) open across a
    /// batch of operations (see [`ConcurrentMap::Guard`]).
    type Guard;

    /// Opens an operation guard for the current thread.
    fn pin(&self) -> Self::Guard;

    /// As [`enqueue`](Self::enqueue), under a caller-held guard.
    fn enqueue_with(&self, v: V, guard: &Self::Guard);

    /// As [`dequeue`](Self::dequeue), under a caller-held guard.
    fn dequeue_with(&self, guard: &Self::Guard) -> Option<V>;

    /// Appends `v` at the tail.
    fn enqueue(&self, v: V) {
        self.enqueue_with(v, &self.pin());
    }

    /// Removes the head element, if any.
    fn dequeue(&self) -> Option<V> {
        self.dequeue_with(&self.pin())
    }
}

/// One thread's pair of event tallies — an `up` count and the `down` count
/// of events that each have a matching `up` which happened-before them —
/// aligned to its own cache line. Both counters share the lane
/// deliberately: they have the same single writer, so packing them costs
/// nothing and halves the footprint. 64-byte alignment (one x86 line)
/// rather than the scheme slots' 128: these lanes are written by one thread
/// and only *read* cross-thread, so adjacent-line prefetch pulling a
/// neighbour is harmless.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Lane {
    up: AtomicU64,
    down: AtomicU64,
}

/// Per-thread single-writer [`Lane`]s indexed by [`Tid`], folded on read:
/// the one counter shape behind the manual structures' node counts
/// (allocs/frees) and the resizable tables' element count
/// (inserts/removes). One instance costs a single 16 KiB allocation
/// (`MAX_THREADS` 64-byte lanes).
#[derive(Debug)]
pub(crate) struct LanePairs {
    lanes: Box<[Lane]>,
}

impl LanePairs {
    pub(crate) fn new() -> Self {
        LanePairs {
            lanes: (0..MAX_THREADS).map(|_| Lane::default()).collect(),
        }
    }

    /// Records one `up` event by thread `t`; returns the lane's new tally.
    #[inline]
    pub(crate) fn up(&self, t: Tid) -> u64 {
        // Ordering: Relaxed load + store — single-writer lane (only thread
        // `t` writes it), so the unfenced read-modify-write is race-free
        // and needs no `lock` prefix; see `smr::util::ShardedCounter::add`.
        let lane = &self.lanes[t.index()].up;
        let n = lane.load(Ordering::Relaxed) + 1;
        lane.store(n, Ordering::Relaxed);
        n
    }

    /// Records one `down` event by thread `t`.
    #[inline]
    pub(crate) fn down(&self, t: Tid) {
        // Ordering: as `up`.
        let lane = &self.lanes[t.index()].down;
        lane.store(lane.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Ups − downs.
    pub(crate) fn net(&self) -> u64 {
        // Ordering: Relaxed — monotone lanes; exact for events that
        // happened-before this read (join / drop exclusivity), monotone
        // under concurrency. Lanes past the registry high-water mark were
        // never written.
        //
        // Fold order: sum every `down` lane *before* any `up` lane. Each
        // down (a free, a remove) has a matching up (its alloc, its insert)
        // that happened-before it, so a sample reading downs first can at
        // worst miss concurrent downs (over-reporting the net); an
        // interleaved or ups-first fold could count a down whose up it had
        // not yet seen and under-report live garbage.
        let hwm = registered_high_water_mark();
        // Ordering: Relaxed — statistics lanes; the fold order above, not
        // any acquire edge, is what keeps the estimate one-sided.
        let fold = |pick: fn(&Lane) -> &AtomicU64| -> u64 {
            let lanes = self.lanes.iter().take(hwm);
            lanes.map(|lane| pick(lane).load(Ordering::Relaxed)).sum()
        };
        let down = fold(|lane| &lane.down);
        fold(|lane| &lane.up).saturating_sub(down)
    }
}

/// The seed a randomized concurrent test derives its per-thread streams
/// from: `TEST_SEED` if set, else 7. Tests name it when a worker dies, so a
/// failing run can be replayed.
#[cfg(test)]
pub(crate) fn test_seed() -> u64 {
    std::env::var("TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}
