//! Immediate recursive destruction and per-thread decrement batching:
//!
//! * million-node structures drop without stack overflow, on every scheme,
//!   through both the graph (immediate) and non-graph (deferred) paths and
//!   through the structure `Drop` impls (rc and manual lists);
//! * every teardown balances `allocated() == freed()`;
//! * batched decrements reach the deferred machinery at each flush point —
//!   section exit, batch-capacity overflow, thread unregister, and
//!   last-handle domain teardown;
//! * a proptest model checks batching is observationally invisible: a
//!   store/swap/take sequence over a slot behaves exactly like a `Vec`
//!   model, and the domain still balances afterwards.

use smr::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use cdrc::{
    AtomicSharedPtr, AtomicWeakPtr, DomainRef, EbrScheme, EdgeCollector, GraphNode, HpScheme,
    HyalineScheme, IbrScheme, Scheme, SharedPtr, WeakPtr,
};
use lockfree::manual::HarrisMichaelList;
use lockfree::rc::RcHarrisMichaelList;
use lockfree::ConcurrentMap;

const MILLION: usize = 1_000_000;

// ---------------------------------------------------------------------
// Chain scaffolding: a graph node (immediate destruction) and a plain
// node (deferred path), identical layout.
// ---------------------------------------------------------------------

struct GraphChain<S: Scheme> {
    next: AtomicSharedPtr<GraphChain<S>, S>,
}

impl<S: Scheme> GraphNode<S> for GraphChain<S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

struct PlainChain<S: Scheme> {
    next: AtomicSharedPtr<PlainChain<S>, S>,
}

fn build_graph_chain<S: Scheme>(d: &DomainRef<S>, n: usize) -> SharedPtr<GraphChain<S>, S> {
    let mut head: SharedPtr<GraphChain<S>, S> = SharedPtr::null();
    for _ in 0..n {
        let node = SharedPtr::new_graph_in(
            GraphChain {
                next: AtomicSharedPtr::null_in(d),
            },
            d,
        );
        let old = std::mem::replace(&mut head, node);
        head.as_ref().unwrap().next.store(old);
    }
    head
}

fn build_plain_chain<S: Scheme>(d: &DomainRef<S>, n: usize) -> SharedPtr<PlainChain<S>, S> {
    let mut head: SharedPtr<PlainChain<S>, S> = SharedPtr::null();
    for _ in 0..n {
        let node = SharedPtr::new_in(
            PlainChain {
                next: AtomicSharedPtr::null_in(d),
            },
            d,
        );
        let old = std::mem::replace(&mut head, node);
        head.as_ref().unwrap().next.store(old);
    }
    head
}

/// Drives `d` until it balances (bounded), without touching other slots.
fn settle<S: Scheme>(d: &DomainRef<S>) {
    let t = smr::current_tid();
    for _ in 0..64 {
        if d.allocated() == d.freed() {
            return;
        }
        d.process_deferred(t);
    }
    assert_eq!(d.allocated(), d.freed(), "domain failed to settle");
}

// ---------------------------------------------------------------------
// 1. Million-node drops are stack-safe and balance, per scheme.
// ---------------------------------------------------------------------

fn million_graph_chain<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let head = build_graph_chain(&d, MILLION);
    assert_eq!(d.allocated() - d.freed(), MILLION as u64);
    // The drop destructs the whole chain iteratively, right here.
    drop(head);
    settle(&d);
}

#[test]
fn million_node_graph_chain_all_schemes() {
    million_graph_chain::<EbrScheme>();
    million_graph_chain::<IbrScheme>();
    million_graph_chain::<HpScheme>();
    million_graph_chain::<HyalineScheme>();
}

/// The non-graph path: each level re-defers its child, so reclamation takes
/// one collect round per level — it must iterate, never recurse.
fn million_plain_chain<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let head = build_plain_chain(&d, MILLION);
    drop(head);
    let t = smr::current_tid();
    // One call: process_deferred loops internally until nothing is left.
    d.process_deferred(t);
    assert_eq!(d.allocated(), d.freed());
}

#[test]
fn million_node_plain_chain_is_stack_safe() {
    // One scheme suffices for the stack-safety property (the deferred
    // apply loop is scheme-independent); the graph test covers all four.
    million_plain_chain::<EbrScheme>();
}

/// Structure-level coverage: descending keys make every insert a head
/// insert, so building is O(n) and the list's `Drop` faces the full chain.
fn million_rc_list<S: Scheme>(n: usize) {
    let d: DomainRef<S> = DomainRef::new();
    let list: RcHarrisMichaelList<u64, u64, S> = RcHarrisMichaelList::new_in(d.clone());
    for k in (0..n as u64).rev() {
        assert!(list.insert(k, k));
    }
    drop(list);
    assert_eq!(d.allocated(), d.freed(), "rc list Drop balances");
}

#[test]
fn million_node_rc_list_drop_all_schemes() {
    million_rc_list::<EbrScheme>(MILLION);
    million_rc_list::<IbrScheme>(MILLION);
    million_rc_list::<HpScheme>(MILLION);
    million_rc_list::<HyalineScheme>(MILLION);
}

fn million_manual_list<S: smr::AcquireRetire>(n: usize) {
    let list: HarrisMichaelList<u64, u64, S> = HarrisMichaelList::new();
    for k in (0..n as u64).rev() {
        assert!(list.insert(k, k));
    }
    drop(list); // the shared iterative teardown walker
}

#[test]
fn million_node_manual_list_drop_all_schemes() {
    million_manual_list::<smr::Ebr>(MILLION);
    million_manual_list::<smr::Ibr>(MILLION);
    million_manual_list::<smr::Hp>(MILLION);
    million_manual_list::<smr::Hyaline>(MILLION);
}

// ---------------------------------------------------------------------
// 2. Batch flush points, observed through payload drops.
// ---------------------------------------------------------------------

/// Payload whose `Drop` bumps a counter: observable disposal.
struct Tracked {
    drops: Arc<AtomicUsize>,
}

impl Drop for Tracked {
    fn drop(&mut self) {
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

fn tracked<S: Scheme>(d: &DomainRef<S>, drops: &Arc<AtomicUsize>) -> SharedPtr<Tracked, S> {
    SharedPtr::new_in(
        Tracked {
            drops: Arc::clone(drops),
        },
        d,
    )
}

/// Fewer than `BATCH_CAP` displaced decrements sit in the calling thread's
/// buffer; no explicit flush API is ever called. Ordinary section activity
/// alone (open a guard, store once, close it — each exit flushes whatever
/// is pending) must drain them. If the section exit did not flush,
/// the first batch would sit in the buffer forever and the loop below
/// would never converge.
fn flush_at_section_exit<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let drops = Arc::new(AtomicUsize::new(0));
    let slot: AtomicSharedPtr<Tracked, S> = AtomicSharedPtr::null_in(&d);
    for _ in 0..8 {
        slot.store(tracked(&d, &drops)); // displaced drop → batched
    }
    let mut spins = 0;
    while drops.load(Ordering::SeqCst) < 7 {
        // Plain section churn — never process_deferred.
        let cs = d.cs();
        slot.store(tracked(&d, &drops));
        drop(cs);
        spins += 1;
        assert!(spins < 10_000, "section exits never flushed the batch");
    }
    drop(slot);
    settle(&d);
}

#[test]
fn batch_flushes_at_section_exit_all_schemes() {
    flush_at_section_exit::<EbrScheme>();
    flush_at_section_exit::<IbrScheme>();
    flush_at_section_exit::<HpScheme>();
    flush_at_section_exit::<HyalineScheme>();
}

/// Overflow flush: more than one batch capacity of displaced decrements on
/// a thread that never opens an explicit section still reclaims (capacity
/// flushes collect as they go; the remainder is picked up below the cap by
/// the orphan/teardown machinery when the slot drops).
fn flush_at_capacity<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let slot: AtomicSharedPtr<Tracked, S> = AtomicSharedPtr::null_in(&d);
        for _ in 0..1_000 {
            slot.store(tracked(&d, &drops));
        }
        // Well over one capacity: overflow flushes must have run — most of
        // the displaced payloads are already disposed without any section
        // or explicit drain.
        assert!(
            drops.load(Ordering::SeqCst) > 500,
            "capacity overflow never flushed (only {} drops)",
            drops.load(Ordering::SeqCst)
        );
        drop(slot);
    }
    settle(&d);
    assert_eq!(drops.load(Ordering::SeqCst), 1_000);
}

#[test]
fn batch_flushes_at_capacity_all_schemes() {
    flush_at_capacity::<EbrScheme>();
    flush_at_capacity::<IbrScheme>();
    flush_at_capacity::<HpScheme>();
    flush_at_capacity::<HyalineScheme>();
}

/// A worker thread leaves fewer than one capacity of batched decrements
/// behind and exits without flushing anything explicitly. Its unregister
/// callback must hand them to the slot's retired lists so ordinary,
/// non-exclusive collection recovers them: retired lists are slot-local,
/// so successor threads reusing the dead slot drive the drain — no
/// exclusive `drain_and_apply_all`, no surviving reference to the worker.
/// (The callback-ran-at-all property is pinned down by the white-box
/// `unregister_flushes_pending_batch` unit test in `cdrc::domain`.)
fn flush_at_thread_unregister<S: Scheme>() {
    let d: DomainRef<S> = DomainRef::new();
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let d = d.clone();
        let drops = Arc::clone(&drops);
        std::thread::spawn(move || {
            let slot: AtomicSharedPtr<Tracked, S> = AtomicSharedPtr::null_in(&d);
            for _ in 0..8 {
                slot.store(tracked(&d, &drops));
            }
            drop(slot);
            // Thread exit: the registry runs the flush callback.
        })
        .join()
        .unwrap();
    }
    let mut spins = 0;
    while drops.load(Ordering::SeqCst) < 8 {
        let d2 = d.clone();
        std::thread::spawn(move || d2.process_deferred(smr::current_tid()))
            .join()
            .unwrap();
        spins += 1;
        assert!(spins < 1_000, "dead thread's batch never reclaimed");
    }
    settle(&d);
}

#[test]
fn batch_flushes_at_thread_unregister_all_schemes() {
    flush_at_thread_unregister::<EbrScheme>();
    flush_at_thread_unregister::<IbrScheme>();
    flush_at_thread_unregister::<HpScheme>();
    flush_at_thread_unregister::<HyalineScheme>();
}

/// A thread that exits mid-run does not strand its lists. Thread A drops
/// a chain while B's section protects the chain's head, then exits: its
/// unregister callback can issue the decrement but not apply it, and
/// before the hand-off the entry waited on A's slot for its next owner.
/// Now the live threads adopt it, so after B's next guard only what B
/// itself keeps alive (nothing) is left.
fn exit_hands_off_what_a_section_pins<S: Scheme>() {
    const N: usize = 1_000;
    let d: DomainRef<S> = DomainRef::new();
    let root = Arc::new(AtomicSharedPtr::new_in(build_graph_chain(&d, N), &d));
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let (gone_tx, gone_rx) = std::sync::mpsc::channel::<()>();
    let b = {
        let (d, root) = (d.clone(), Arc::clone(&root));
        std::thread::spawn(move || {
            {
                let cs = d.cs();
                let head = root.get_snapshot(&cs);
                held_tx.send(()).unwrap();
                gone_rx.recv().unwrap();
                assert!(head.as_ref().is_some());
            }
            drop(d.cs());
            d.in_flight()
        })
    };
    held_rx.recv().unwrap();
    {
        let root = Arc::clone(&root);
        std::thread::spawn(move || root.store(SharedPtr::null()))
            .join()
            .unwrap();
    }
    gone_tx.send(()).unwrap();
    let left = b.join().unwrap();
    assert_eq!(
        left,
        0,
        "{}: the exited thread's lists stranded",
        S::scheme_name()
    );
    settle(&d);
}

#[test]
fn exit_hands_off_what_a_section_pins_all_schemes() {
    exit_hands_off_what_a_section_pins::<EbrScheme>();
    exit_hands_off_what_a_section_pins::<IbrScheme>();
    exit_hands_off_what_a_section_pins::<HpScheme>();
    exit_hands_off_what_a_section_pins::<HyalineScheme>();
}

/// An exited thread's weak decrement and deferred disposal, adopted by a
/// thread that has never touched a weak pointer, are applied at that
/// thread's next section exit, with no `process_deferred`. A drops the last
/// strong reference to X while a weak location names X (the disposal is
/// deferred), then clears the location (a deferred weak decrement); B's
/// section pins both until A has sent B away, and A exits, handing its
/// lists off. The main thread only stores into a strong slot under a guard.
fn adopted_weak_entries_are_applied<S: Scheme>() {
    use std::sync::mpsc::channel;
    let d: DomainRef<S> = DomainRef::new();
    let (entered_tx, entered_rx) = channel();
    let (leave_tx, leave_rx) = channel::<()>();
    let (left_tx, left_rx) = channel();
    std::thread::scope(|s| {
        let d = &d;
        s.spawn(move || {
            let cs = d.cs();
            entered_tx.send(()).unwrap();
            leave_rx.recv().unwrap();
            drop(cs);
            left_tx.send(()).unwrap();
        });
        entered_rx.recv().unwrap();
        s.spawn(move || {
            let weak: AtomicWeakPtr<u64, S> = AtomicWeakPtr::null_in(d);
            let x = SharedPtr::new_in(1u64, d);
            weak.store(x.downgrade());
            {
                let _cs = d.cs();
                drop(x);
                weak.store(WeakPtr::null());
            }
            leave_tx.send(()).unwrap();
            left_rx.recv().unwrap();
        })
        .join()
        .unwrap();
    });
    let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
    {
        let _cs = d.cs();
        slot.store(SharedPtr::new_in(1, &d));
        slot.store(SharedPtr::new_in(2, &d));
    }
    assert_eq!(
        d.allocated() - d.freed(),
        1,
        "{}: X stayed in flight",
        S::scheme_name()
    );
    drop(slot);
    settle(&d);
}

#[test]
fn adopted_weak_entries_are_applied_all_schemes() {
    adopted_weak_entries_are_applied::<EbrScheme>();
    adopted_weak_entries_are_applied::<IbrScheme>();
    adopted_weak_entries_are_applied::<HpScheme>();
    adopted_weak_entries_are_applied::<HyalineScheme>();
}

/// Dropping the last user handle while batched decrements are pending:
/// the orphan-teardown path must flush them, observable purely through
/// payload drops (no domain handle survives to ask).
fn flush_at_domain_teardown<S: Scheme>() {
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let d: DomainRef<S> = DomainRef::new();
        let slot: AtomicSharedPtr<Tracked, S> = AtomicSharedPtr::null_in(&d);
        for _ in 0..8 {
            slot.store(tracked(&d, &drops));
        }
        drop(slot);
        drop(d); // last handle: orphan teardown flushes and applies
    }
    assert_eq!(drops.load(Ordering::SeqCst), 8);
}

#[test]
fn batch_flushes_at_domain_teardown_all_schemes() {
    flush_at_domain_teardown::<EbrScheme>();
    flush_at_domain_teardown::<IbrScheme>();
    flush_at_domain_teardown::<HpScheme>();
    flush_at_domain_teardown::<HyalineScheme>();
}

// ---------------------------------------------------------------------
// 3. Proptest: batching is observationally invisible.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Op {
    Store(u64),
    Swap(u64),
    Take,
    Load,
    /// Close and reopen the ambient section (forces a flush mid-sequence).
    Cycle,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..100).prop_map(Op::Store),
        (0u64..100).prop_map(Op::Swap),
        Just(Op::Take),
        Just(Op::Load),
        Just(Op::Cycle),
    ]
}

/// Runs `ops` against a real slot and a plain `Option<u64>` model; every
/// observable value must match, and the domain must balance afterwards —
/// whether a decrement was applied inline, batched, or flushed early can
/// never show through.
fn batched_matches_model<S: Scheme>(ops: &[Op]) {
    let d: DomainRef<S> = DomainRef::new();
    {
        let slot: AtomicSharedPtr<u64, S> = AtomicSharedPtr::null_in(&d);
        let mut model: Option<u64> = None;
        let mut cs = Some(d.cs());
        for &o in ops {
            match o {
                Op::Store(v) => {
                    slot.store(SharedPtr::new_in(v, &d));
                    model = Some(v);
                }
                Op::Swap(v) => {
                    let prev = slot.swap(SharedPtr::new_in(v, &d));
                    assert_eq!(prev.as_ref().copied(), model);
                    model = Some(v);
                }
                Op::Take => {
                    let prev = slot.take();
                    assert_eq!(prev.as_ref().copied(), model);
                    model = None;
                }
                Op::Load => {
                    let cur = slot.load();
                    assert_eq!(cur.as_ref().copied(), model);
                }
                Op::Cycle => {
                    // Close first (drops the guard and flushes), then reopen.
                    drop(cs.take());
                    cs = Some(d.cs());
                }
            }
        }
        drop(cs);
        drop(slot);
    }
    settle(&d);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn batching_is_observationally_invisible(ops in proptest::collection::vec(op(), 1..120)) {
        batched_matches_model::<EbrScheme>(&ops);
        batched_matches_model::<HpScheme>(&ops);
    }
}
