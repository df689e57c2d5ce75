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
