//! The checker kernel: cooperative scheduler, DFS schedule explorer, and
//! the operational C11 memory model.
//!
//! One *run* executes the scenario closure once under a fixed schedule
//! prefix (the replay tape). Model threads are real OS threads serialized
//! by a token turnstile: exactly one model thread executes user code at a
//! time, and every modeled operation (atomic access, fence, spawn, join,
//! yield) is a *schedule point* where the explorer chooses which thread
//! runs next. Choices — both thread scheduling and which store a load
//! observes — are recorded on the tape as `(chosen, arity)` pairs;
//! depth-first backtracking over the tape enumerates every bounded
//! schedule.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::atomic::{AtomicU64 as RawU64, Ordering as RawOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

// ---------------------------------------------------------------------------
// Public configuration and results
// ---------------------------------------------------------------------------

/// Exploration bounds for [`try_check`].
#[derive(Debug, Clone)]
pub struct Config {
    /// CHESS-style preemption bound: maximum number of *involuntary*
    /// context switches (switching away from a thread that could have
    /// continued) per execution. `None` explores the full schedule space.
    /// Most ordering bugs surface within two preemptions, and the bound is
    /// what keeps the DFS polynomial in scenario size.
    pub preemption_bound: Option<usize>,
    /// Hard cap on explored executions; exceeding it panics (the scenario
    /// is too big to explore exhaustively — shrink it or lower the bound).
    pub max_iterations: u64,
    /// Hard cap on schedule points within one execution; exceeding it
    /// reports a violation (an unbounded spin loop in the scenario).
    pub max_ops: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            preemption_bound: Some(2),
            max_iterations: 1_000_000,
            max_ops: 50_000,
        }
    }
}

/// Successful exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct executions explored.
    pub iterations: u64,
    /// Deepest replay tape (schedule points with a real choice) seen.
    pub max_depth: usize,
}

/// A failed execution: the first panic (assertion failure, deadlock,
/// nondeterminism) encountered during exploration.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Index of the failing execution.
    pub iteration: u64,
    /// Panic message (or internal diagnosis) of the failure.
    pub message: String,
    /// The replay tape of the failing schedule, `(chosen, arity)` per
    /// choice point.
    pub tape: Vec<(u32, u32)>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "violation at iteration {} (tape depth {}): {}",
            self.iteration,
            self.tape.len(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    kernel: Arc<Kernel>,
    tid: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static EXEMPT_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Runs `f` with modeling suppressed: facade atomics accessed inside go
/// straight to the underlying `std` atomics and create no schedule points.
///
/// This is the escape hatch for *infrastructure* state that is shared
/// across checker iterations and must not enter the model: thread-slot
/// registries, statistics tallies, fault-injection checkpoints, test
/// bookkeeping (e.g. freed-object flags asserted by scenarios). Exempt
/// accesses are executed in program order by whichever model thread holds
/// the scheduler token, so within a run they behave sequentially
/// consistently.
pub fn exempt<R>(f: impl FnOnce() -> R) -> R {
    EXEMPT_DEPTH.with(|d| d.set(d.get() + 1));
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            EXEMPT_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _restore = Restore;
    f()
}

/// Whether the current thread is a model thread with modeling active
/// (inside a run, not under [`exempt`]).
pub(crate) fn in_model() -> bool {
    EXEMPT_DEPTH.with(|d| d.get()) == 0 && CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn current_ctx() -> Option<(Arc<Kernel>, usize)> {
    CTX.with(|c| c.borrow().as_ref().map(|x| (x.kernel.clone(), x.tid)))
}

// ---------------------------------------------------------------------------
// Location identity
// ---------------------------------------------------------------------------

static NEXT_LOC_ID: RawU64 = RawU64::new(0);

/// Allocates a process-unique location id (never zero). Ids — not
/// addresses — key the per-run location table, so heap reuse of a freed
/// atomic's address within a run can never alias its dead tenant's store
/// history.
pub(crate) fn fresh_loc_id() -> u64 {
    NEXT_LOC_ID.fetch_add(1, RawOrdering::Relaxed) + 1
}

// ---------------------------------------------------------------------------
// Views and the memory model
// ---------------------------------------------------------------------------

/// A view: for each (dense) location index, the modification-order index
/// of the newest store the owner is aware of. Reads below one's view are
/// forbidden (coherence); acquiring joins the message view of the store
/// read.
type View = Vec<usize>;

fn vget(v: &View, l: usize) -> usize {
    v.get(l).copied().unwrap_or(0)
}

fn vset(v: &mut View, l: usize, i: usize) {
    if v.len() <= l {
        v.resize(l + 1, 0);
    }
    if v[l] < i {
        v[l] = i;
    }
}

fn vjoin(dst: &mut View, src: &View) {
    if dst.len() < src.len() {
        dst.resize(src.len(), 0);
    }
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        if *d < *s {
            *d = *s;
        }
    }
}

/// One store in a location's modification order: the value plus the
/// *message view* a reader synchronizing with it acquires.
struct StoreElem {
    val: u64,
    view: View,
}

struct Loc {
    /// Modification order. Index 0 is the initial value (snapshotted from
    /// the real atomic on the location's first modeled access this run).
    stores: Vec<StoreElem>,
    /// `SeqCst` floor: SC loads of this location must read a store with
    /// index ≥ this (raised by SC stores/RMWs to their own index, by SC
    /// loads to the index they read, and by SC fences to the fencing
    /// thread's view). Together with the SC-fence view exchange this
    /// realizes the C++20 [atomics.order] coherence rules under the
    /// approximation that the SC order S is the execution order.
    sc_floor: usize,
}

#[derive(Default)]
struct Mem {
    by_id: HashMap<u64, usize>,
    locs: Vec<Loc>,
    /// Join of every SC-fencing thread's view, exchanged two-ways at SC
    /// *fences* only. SC loads/stores deliberately do not touch it: an SC
    /// operation is acquire/release plus the per-location `sc_floor`
    /// constraint, nothing more — modeling SC ops as global view joins
    /// would over-synchronize and hide real acquire/release bugs.
    sc_view: View,
    /// For each location, the index of the newest `SeqCst` *store/RMW* to
    /// it. An SC fence joins this into the fencing thread's coherence
    /// floors: C++20 [atomics.order] requires a load sequenced after an SC
    /// fence Y to observe any SC write that precedes Y in S (= execution
    /// order here) or something newer. Indices only — no message views —
    /// so the fence orders reads without manufacturing happens-before.
    sc_write_floor: View,
}

// ---------------------------------------------------------------------------
// Kernel state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

struct TState {
    status: Status,
    /// The thread's current view (what it has observed).
    cur: View,
    /// View at the thread's last release fence (relaxed stores carry it).
    frel: View,
    /// Accumulated message views of relaxed loads, consumed (joined into
    /// `cur`) by the next acquire fence.
    pending: View,
    joiners: Vec<usize>,
}

impl TState {
    fn new(cur: View) -> Self {
        TState {
            status: Status::Runnable,
            cur,
            frel: Vec::new(),
            pending: Vec::new(),
            joiners: Vec::new(),
        }
    }
}

struct KState {
    threads: Vec<TState>,
    current: usize,
    unfinished: usize,
    tape: Vec<(u32, u32)>,
    pos: usize,
    preemptions: usize,
    bound: Option<usize>,
    mem: Mem,
    violation: Option<String>,
    /// Set on deadlock / runaway / nondeterminism: the turnstile is
    /// abandoned and every thread free-runs (ops still execute under the
    /// kernel lock) so the iteration can terminate and report.
    bail: bool,
    ops: u64,
    max_ops: u64,
}

impl KState {
    /// Consults (extending if needed) the replay tape for a choice among
    /// `n` alternatives. Choices with `n == 1` are not recorded.
    fn choose(&mut self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let c = if self.pos < self.tape.len() {
            let (c, arity) = self.tape[self.pos];
            if arity as usize != n && self.violation.is_none() {
                self.violation = Some(format!(
                    "nondeterministic scenario: replay expected {arity} alternatives \
                     at choice {} but found {n} (scenario must be a pure function \
                     of the schedule)",
                    self.pos
                ));
                self.bail = true;
            }
            (c as usize).min(n - 1)
        } else {
            self.tape.push((0, n as u32));
            0
        };
        self.pos += 1;
        c
    }

    fn enabled(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn fail(&mut self, msg: String) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
        self.bail = true;
    }
}

pub(crate) struct Kernel {
    m: Mutex<KState>,
    cv: Condvar,
}

fn lock(k: &Kernel) -> MutexGuard<'_, KState> {
    k.m.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait_until_scheduled<'a>(
    kernel: &'a Kernel,
    mut st: MutexGuard<'a, KState>,
    me: usize,
) -> MutexGuard<'a, KState> {
    while !(st.bail || st.current == me && st.threads[me].status == Status::Runnable) {
        st = kernel.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st
}

/// The pre-operation schedule point: the running thread offers the
/// explorer a switch before executing its next modeled operation. Switching
/// away (while the current thread could continue) consumes one unit of the
/// preemption budget; once the budget is spent the current thread runs on.
fn schedule<'a>(kernel: &'a Kernel, me: usize) -> MutexGuard<'a, KState> {
    let mut st = lock(kernel);
    if st.bail {
        // The run has been abandoned (violation recorded). Unwind this
        // thread so even non-terminating scenarios (spin loops whose
        // partner will never run) reach their catch_unwind boundary —
        // unless we are *already* unwinding (a modeled op in a destructor),
        // where a second panic would abort: then free-run the op.
        if !std::thread::panicking() {
            drop(st);
            panic!("interleave: run abandoned after violation");
        }
        return st;
    }
    st.ops += 1;
    if st.ops > st.max_ops {
        let cap = st.max_ops;
        st.fail(format!(
            "execution exceeded max_ops = {cap} schedule points — unbounded spin loop \
             in the scenario, or a scenario too large to model"
        ));
        kernel.cv.notify_all();
        return st;
    }
    let mut choices = st.enabled();
    // Current thread first, so choice 0 continues it: iteration 0 is then
    // the natural switch-free execution and the DFS finds shallow
    // schedules first.
    choices.retain(|&t| t != me);
    choices.insert(0, me);
    let budget_left = st.bound.is_none_or(|b| st.preemptions < b);
    if !budget_left {
        choices.truncate(1);
    }
    let k = st.choose(choices.len());
    if st.bail {
        // `choose` diagnosed nondeterminism: keep running this op so the
        // thread reaches its next schedule point (which unwinds), and wake
        // everyone else so they can bail out of their waits.
        kernel.cv.notify_all();
        return st;
    }
    let next = choices[k];
    if next != me {
        st.preemptions += 1;
        st.current = next;
        kernel.cv.notify_all();
        st = wait_until_scheduled(kernel, st, me);
    }
    st
}

/// A voluntary hand-off: the caller cannot (or chooses not to) continue,
/// so switching away costs no preemption budget. Blocks until rescheduled.
fn yield_token<'a>(
    kernel: &'a Kernel,
    mut st: MutexGuard<'a, KState>,
    me: usize,
) -> MutexGuard<'a, KState> {
    let choices: Vec<usize> = st.enabled().into_iter().filter(|&t| t != me).collect();
    if choices.is_empty() {
        if st.threads[me].status != Status::Runnable && st.unfinished > 0 {
            st.fail(
                "deadlock: no runnable thread (every unfinished thread is blocked)".to_string(),
            );
            kernel.cv.notify_all();
            return st;
        }
        // `me` is still runnable and alone: keep the token.
        return st;
    }
    let k = st.choose(choices.len());
    st.current = choices[k];
    kernel.cv.notify_all();
    wait_until_scheduled(kernel, st, me)
}

// ---------------------------------------------------------------------------
// Thread operations (called from `crate::thread`)
// ---------------------------------------------------------------------------

pub(crate) fn op_spawn(kernel: &Arc<Kernel>, me: usize) -> usize {
    let mut st = schedule(kernel, me);
    let tid = st.threads.len();
    // Thread start synchronizes-with: the child begins with the spawner's
    // view (release fence and pending start empty).
    let cur = st.threads[me].cur.clone();
    st.threads.push(TState::new(cur));
    st.unfinished += 1;
    tid
}

pub(crate) fn op_join(kernel: &Arc<Kernel>, me: usize, target: usize) {
    let mut st = schedule(kernel, me);
    loop {
        if st.bail {
            return;
        }
        if st.threads[target].status == Status::Finished {
            // Join synchronizes-with thread completion: inherit the
            // child's final view.
            let child_cur = st.threads[target].cur.clone();
            vjoin(&mut st.threads[me].cur, &child_cur);
            return;
        }
        st.threads[me].status = Status::Blocked;
        st.threads[target].joiners.push(me);
        st = yield_token(kernel, st, me);
    }
}

pub(crate) fn op_yield(kernel: &Arc<Kernel>, me: usize) {
    let st = schedule(kernel, me);
    if st.bail {
        return;
    }
    // A voluntary reschedule on top of the involuntary one `schedule`
    // already offered: lets the explorer switch away for free.
    let _st = yield_token(kernel, st, me);
}

/// Installs the model-thread context and parks until first scheduled.
pub(crate) fn enter_model_thread(kernel: &Arc<Kernel>, tid: usize) {
    CTX.with(|c| {
        *c.borrow_mut() = Some(Ctx {
            kernel: kernel.clone(),
            tid,
        })
    });
    let st = lock(kernel);
    let _st = wait_until_scheduled(kernel, st, tid);
}

/// Clears the model-thread context: everything the OS thread does after
/// this (result publication, TLS destructors) uses real atomics.
pub(crate) fn leave_model_thread() {
    CTX.with(|c| *c.borrow_mut() = None);
}

/// Marks `tid` finished, wakes its joiners, records a panic as the run's
/// violation, and passes the token on.
pub(crate) fn finish_model_thread(kernel: &Arc<Kernel>, tid: usize, panic_msg: Option<String>) {
    let mut st = lock(kernel);
    st.threads[tid].status = Status::Finished;
    st.unfinished -= 1;
    let joiners = std::mem::take(&mut st.threads[tid].joiners);
    for j in joiners {
        st.threads[j].status = Status::Runnable;
    }
    if let Some(msg) = panic_msg {
        if st.violation.is_none() {
            st.violation = Some(msg);
        }
    }
    if st.unfinished > 0 && !st.bail {
        let choices = st.enabled();
        if choices.is_empty() {
            st.fail("deadlock: all unfinished threads are blocked".to_string());
        } else {
            let k = st.choose(choices.len());
            st.current = choices[k];
        }
    }
    kernel.cv.notify_all();
}

pub(crate) fn spawn_ctx() -> Option<(Arc<Kernel>, usize)> {
    if in_model() {
        current_ctx()
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Memory operations (called from `crate::sync::atomic` wrappers)
// ---------------------------------------------------------------------------

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn ensure_loc(st: &mut KState, id: u64, init: impl FnOnce() -> u64) -> usize {
    if let Some(&l) = st.mem.by_id.get(&id) {
        return l;
    }
    let l = st.mem.locs.len();
    st.mem.locs.push(Loc {
        stores: vec![StoreElem {
            val: init(),
            view: Vec::new(),
        }],
        sc_floor: 0,
    });
    st.mem.by_id.insert(id, l);
    l
}

fn model_ctx(what: &str) -> (Arc<Kernel>, usize) {
    current_ctx().unwrap_or_else(|| panic!("modeled {what} outside a model thread"))
}

pub(crate) fn atomic_load(id: u64, init: impl FnOnce() -> u64, ord: Ordering) -> u64 {
    let (kernel, me) = model_ctx("load");
    let mut st = schedule(&kernel, me);
    let l = ensure_loc(&mut st, id, init);
    let mut floor = vget(&st.threads[me].cur, l);
    if ord == Ordering::SeqCst {
        floor = floor.max(st.mem.locs[l].sc_floor);
    }
    let n = st.mem.locs[l].stores.len() - floor;
    // Choice 0 reads the newest store; higher choices read progressively
    // staler (but still coherent) ones.
    let k = st.choose(n);
    let idx = st.mem.locs[l].stores.len() - 1 - k;
    let (val, view) = {
        let s = &st.mem.locs[l].stores[idx];
        (s.val, s.view.clone())
    };
    let t = &mut st.threads[me];
    vset(&mut t.cur, l, idx);
    if is_acquire(ord) {
        vjoin(&mut t.cur, &view);
    } else {
        vjoin(&mut t.pending, &view);
    }
    if ord == Ordering::SeqCst {
        let fl = &mut st.mem.locs[l].sc_floor;
        *fl = (*fl).max(idx);
    }
    val
}

pub(crate) fn atomic_store(id: u64, init: impl FnOnce() -> u64, val: u64, ord: Ordering) {
    let (kernel, me) = model_ctx("store");
    let mut st = schedule(&kernel, me);
    let l = ensure_loc(&mut st, id, init);
    let idx = st.mem.locs[l].stores.len();
    let mut view = if is_release(ord) {
        st.threads[me].cur.clone()
    } else {
        st.threads[me].frel.clone()
    };
    vset(&mut view, l, idx);
    st.mem.locs[l].stores.push(StoreElem { val, view });
    vset(&mut st.threads[me].cur, l, idx);
    if ord == Ordering::SeqCst {
        let fl = &mut st.mem.locs[l].sc_floor;
        *fl = (*fl).max(idx);
        vset(&mut st.mem.sc_write_floor, l, idx);
    }
}

/// Shared read-modify-write core: reads the modification-order-newest
/// store (RMWs are atomic, so they always see the latest value), appends
/// the new store, and continues the release sequence by joining the
/// predecessor's message view into the new one.
fn rmw_core(st: &mut KState, me: usize, l: usize, new_val: u64, ord: Ordering) -> u64 {
    let idx_old = st.mem.locs[l].stores.len() - 1;
    let (old_val, old_view) = {
        let s = &st.mem.locs[l].stores[idx_old];
        (s.val, s.view.clone())
    };
    {
        let t = &mut st.threads[me];
        vset(&mut t.cur, l, idx_old);
        if is_acquire(ord) {
            vjoin(&mut t.cur, &old_view);
        } else {
            vjoin(&mut t.pending, &old_view);
        }
    }
    let idx = idx_old + 1;
    let mut view = old_view;
    {
        let t = &st.threads[me];
        let own = if is_release(ord) { &t.cur } else { &t.frel };
        vjoin(&mut view, own);
    }
    vset(&mut view, l, idx);
    st.mem.locs[l].stores.push(StoreElem { val: new_val, view });
    vset(&mut st.threads[me].cur, l, idx);
    if ord == Ordering::SeqCst {
        let fl = &mut st.mem.locs[l].sc_floor;
        *fl = (*fl).max(idx);
        vset(&mut st.mem.sc_write_floor, l, idx);
    }
    old_val
}

pub(crate) fn atomic_rmw(
    id: u64,
    init: impl FnOnce() -> u64,
    ord: Ordering,
    f: impl FnOnce(u64) -> u64,
) -> u64 {
    let (kernel, me) = model_ctx("rmw");
    let mut st = schedule(&kernel, me);
    let l = ensure_loc(&mut st, id, init);
    let old = st.mem.locs[l].stores.last().expect("nonempty").val;
    let new_val = f(old);
    rmw_core(&mut st, me, l, new_val, ord)
}

/// Compare-exchange. Failure reads the modification-order-newest store
/// (approximation: a failed CAS never reads a stale value) with the
/// failure ordering's acquire semantics.
pub(crate) fn atomic_cas(
    id: u64,
    init: impl FnOnce() -> u64,
    expected: u64,
    new_val: u64,
    success: Ordering,
    failure: Ordering,
) -> Result<u64, u64> {
    let (kernel, me) = model_ctx("compare_exchange");
    let mut st = schedule(&kernel, me);
    let l = ensure_loc(&mut st, id, init);
    let idx_old = st.mem.locs[l].stores.len() - 1;
    let (old_val, old_view) = {
        let s = &st.mem.locs[l].stores[idx_old];
        (s.val, s.view.clone())
    };
    if old_val == expected {
        Ok(rmw_core(&mut st, me, l, new_val, success))
    } else {
        let t = &mut st.threads[me];
        vset(&mut t.cur, l, idx_old);
        if is_acquire(failure) {
            vjoin(&mut t.cur, &old_view);
        } else {
            vjoin(&mut t.pending, &old_view);
        }
        Err(old_val)
    }
}

pub(crate) fn fence_op(ord: Ordering) {
    let (kernel, me) = model_ctx("fence");
    let mut st = schedule(&kernel, me);
    let acq = is_acquire(ord);
    let rel = is_release(ord);
    if acq {
        let pending = std::mem::take(&mut st.threads[me].pending);
        vjoin(&mut st.threads[me].cur, &pending);
    }
    if ord == Ordering::SeqCst {
        // Two-way view exchange with the global SC-fence view: the precise
        // C++20 fence-to-fence visibility rule. Then floor every location
        // at this thread's (post-exchange) view: a later SC load anywhere
        // must not read a store this fence already superseded
        // ([atomics.order] p6, with S = execution order).
        let cur = st.threads[me].cur.clone();
        vjoin(&mut st.mem.sc_view, &cur);
        let sc = st.mem.sc_view.clone();
        vjoin(&mut st.threads[me].cur, &sc);
        // [atomics.order]: loads after this fence observe every SC write
        // that precedes the fence in S (indices only, no views).
        let scw = st.mem.sc_write_floor.clone();
        vjoin(&mut st.threads[me].cur, &scw);
        let cur = st.threads[me].cur.clone();
        for (l, loc) in st.mem.locs.iter_mut().enumerate() {
            let known = vget(&cur, l);
            if loc.sc_floor < known {
                loc.sc_floor = known;
            }
        }
    }
    if rel {
        st.threads[me].frel = st.threads[me].cur.clone();
    }
}

/// Collapses a modeled location back into its real atomic: returns the
/// modification-order-newest modeled value and forgets the location, so
/// the caller (holding `&mut` — exclusive access) can fold the value into
/// the real cell and hand out `get_mut`/`into_inner` access. The atomic's
/// next shared modeled use re-registers under a fresh id.
pub(crate) fn collapse(id: u64) -> Option<u64> {
    if !in_model() {
        return None;
    }
    let (kernel, me) = model_ctx("get_mut/into_inner");
    let mut st = schedule(&kernel, me);
    let l = st.mem.by_id.remove(&id)?;
    Some(st.mem.locs[l].stores.last().expect("nonempty").val)
}

// ---------------------------------------------------------------------------
// Driver: the DFS exploration loop
// ---------------------------------------------------------------------------

static RUN_LOCK: Mutex<()> = Mutex::new(());

pub(crate) fn payload_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn backtrack(tape: &mut Vec<(u32, u32)>) -> bool {
    while let Some(&(c, arity)) = tape.last() {
        if c + 1 < arity {
            tape.last_mut().expect("nonempty").0 = c + 1;
            return true;
        }
        tape.pop();
    }
    false
}

/// Explores every schedule of `f` within `cfg`'s bounds. Returns a
/// [`Report`] if every execution completed without panicking, or the
/// first [`Violation`] otherwise.
///
/// # Panics
///
/// Panics if `cfg.max_iterations` is exhausted before the schedule space
/// is (the scenario is too large), or when called from inside a model
/// thread (checks do not nest).
pub fn try_check(cfg: Config, f: impl Fn() + Send + Sync + 'static) -> Result<Report, Violation> {
    assert!(
        !in_model(),
        "interleave::try_check called from inside a model thread"
    );
    let _run = RUN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = Arc::new(f);
    let mut tape: Vec<(u32, u32)> = Vec::new();
    let mut iterations: u64 = 0;
    let mut max_depth = 0usize;
    loop {
        assert!(
            iterations < cfg.max_iterations,
            "interleave: exploration exceeded max_iterations = {} (tape depth {}) — \
             shrink the scenario or lower the preemption bound",
            cfg.max_iterations,
            tape.len()
        );
        let kernel = Arc::new(Kernel {
            m: Mutex::new(KState {
                threads: vec![TState::new(Vec::new())],
                current: 0,
                unfinished: 1,
                tape: tape.clone(),
                pos: 0,
                preemptions: 0,
                bound: cfg.preemption_bound,
                mem: Mem::default(),
                violation: None,
                bail: false,
                ops: 0,
                max_ops: cfg.max_ops,
            }),
            cv: Condvar::new(),
        });
        let root_f = Arc::clone(&f);
        let root_kernel = Arc::clone(&kernel);
        let root = std::thread::spawn(move || {
            enter_model_thread(&root_kernel, 0);
            let r = panic::catch_unwind(AssertUnwindSafe(|| root_f()));
            leave_model_thread();
            let msg = r.err().map(|p| payload_msg(p.as_ref()));
            finish_model_thread(&root_kernel, 0, msg);
        });
        {
            let mut st = lock(&kernel);
            while st.unfinished > 0 {
                st = kernel.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        root.join().expect("model root thread infrastructure panic");
        iterations += 1;
        let (final_tape, violation) = {
            let mut st = lock(&kernel);
            (std::mem::take(&mut st.tape), st.violation.take())
        };
        if let Some(message) = violation {
            return Err(Violation {
                iteration: iterations - 1,
                message,
                tape: final_tape,
            });
        }
        max_depth = max_depth.max(final_tape.len());
        tape = final_tape;
        if !backtrack(&mut tape) {
            return Ok(Report {
                iterations,
                max_depth,
            });
        }
    }
}

/// Like [`try_check`] but panics (with the failing schedule's tape) on the
/// first violation — the assert-style entry point for tests.
pub fn check_with(cfg: Config, f: impl Fn() + Send + Sync + 'static) {
    match try_check(cfg, f) {
        Ok(_) => {}
        Err(v) => panic!("interleave: {v}"),
    }
}

/// [`check_with`] under the default [`Config`].
pub fn check(f: impl Fn() + Send + Sync + 'static) {
    check_with(Config::default(), f)
}
