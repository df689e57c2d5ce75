//! Teardown bench: time-to-reclaimed for a million-node list and tree per
//! scheme — the headline cell of the immediate-recursive-destruction work.
//!
//! Two node flavours per shape, identical layout:
//!
//! * `graph` — the node implements [`cdrc::GraphNode`] and is allocated
//!   through `SharedPtr::new_graph_in`, so dropping the last root reference
//!   destructs the whole reachable subgraph iteratively on the spot (the
//!   CIRC-style immediate path this PR adds);
//! * `deferred` — the same node without the trait: every child edge
//!   relinquishes from inside the payload's `Drop` and takes one deferral
//!   round-trip per level (the pre-PR behaviour, kept in-binary as the
//!   same-machine baseline — there is no older binary to compare against).
//!
//! Each cell measures from "drop the root" to `allocated() == freed()` on a
//! private domain and reports total ms plus ns/node; the JSON line carries
//! the deferred baseline as `before_ms` / `before_ns_per_node`.
//!
//! Doubles as a CI smoke with the usual contract: after printing its cells
//! the process exits nonzero if any cell is non-positive/non-finite or a
//! domain failed to reclaim every node. `TEARDOWN_NODES` sets the node
//! count (default 1M; CI runs 50k).

use std::time::Instant;

use bench::emit_json;
use cdrc::{
    AtomicSharedPtr, DomainRef, EbrScheme, EdgeCollector, GraphNode, HpScheme, HyalineScheme,
    IbrScheme, Scheme, SharedPtr,
};

/// Chain node with the edge trait: immediate iterative destruction.
struct GraphChain<S: Scheme> {
    next: AtomicSharedPtr<GraphChain<S>, S>,
}

impl<S: Scheme> GraphNode<S> for GraphChain<S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.next);
    }
}

/// Chain node without the trait: one deferral round-trip per level.
struct DeferredChain<S: Scheme> {
    next: AtomicSharedPtr<DeferredChain<S>, S>,
}

/// Binary node with the edge trait.
struct GraphTree<S: Scheme> {
    left: AtomicSharedPtr<GraphTree<S>, S>,
    right: AtomicSharedPtr<GraphTree<S>, S>,
}

impl<S: Scheme> GraphNode<S> for GraphTree<S> {
    fn pop_edges(&mut self, out: &mut EdgeCollector<'_, S>) {
        out.take_atomic(&mut self.left);
        out.take_atomic(&mut self.right);
    }
}

/// Binary node without the trait.
struct DeferredTree<S: Scheme> {
    left: AtomicSharedPtr<DeferredTree<S>, S>,
    right: AtomicSharedPtr<DeferredTree<S>, S>,
}

fn node_count() -> usize {
    std::env::var("TEARDOWN_NODES")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1_000_000, |n| n.max(1))
}

/// Drops `root`, drives the domain until every node is reclaimed, and
/// returns the elapsed time. Panics (→ nonzero exit) if the domain does not
/// balance — a leak in the destruct path must fail CI, not report a cell.
fn time_to_reclaimed<T, S: Scheme>(d: &DomainRef<S>, root: SharedPtr<T, S>) -> f64 {
    let t = smr::current_tid();
    let start = Instant::now();
    drop(root);
    let mut rounds = 0u32;
    while d.allocated() != d.freed() {
        d.process_deferred(t);
        rounds += 1;
        assert!(
            rounds < 1_000,
            "teardown did not converge: {} allocated, {} freed",
            d.allocated(),
            d.freed()
        );
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// Chain-shaped node: how to allocate one and reach its `next` edge.
trait ChainShape<S: Scheme>: Sized {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S>;
    fn next(&self) -> &AtomicSharedPtr<Self, S>;
}

impl<S: Scheme> ChainShape<S> for GraphChain<S> {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S> {
        SharedPtr::new_graph_in(
            GraphChain {
                next: AtomicSharedPtr::null_in(d),
            },
            d,
        )
    }
    fn next(&self) -> &AtomicSharedPtr<Self, S> {
        &self.next
    }
}

impl<S: Scheme> ChainShape<S> for DeferredChain<S> {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S> {
        SharedPtr::new_in(
            DeferredChain {
                next: AtomicSharedPtr::null_in(d),
            },
            d,
        )
    }
    fn next(&self) -> &AtomicSharedPtr<Self, S> {
        &self.next
    }
}

/// Tree-shaped node: how to allocate one and reach its child edges.
trait TreeShape<S: Scheme>: Sized {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S>;
    fn children(&self) -> (&AtomicSharedPtr<Self, S>, &AtomicSharedPtr<Self, S>);
}

impl<S: Scheme> TreeShape<S> for GraphTree<S> {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S> {
        SharedPtr::new_graph_in(
            GraphTree {
                left: AtomicSharedPtr::null_in(d),
                right: AtomicSharedPtr::null_in(d),
            },
            d,
        )
    }
    fn children(&self) -> (&AtomicSharedPtr<Self, S>, &AtomicSharedPtr<Self, S>) {
        (&self.left, &self.right)
    }
}

impl<S: Scheme> TreeShape<S> for DeferredTree<S> {
    fn alloc(d: &DomainRef<S>) -> SharedPtr<Self, S> {
        SharedPtr::new_in(
            DeferredTree {
                left: AtomicSharedPtr::null_in(d),
                right: AtomicSharedPtr::null_in(d),
            },
            d,
        )
    }
    fn children(&self) -> (&AtomicSharedPtr<Self, S>, &AtomicSharedPtr<Self, S>) {
        (&self.left, &self.right)
    }
}

/// Builds an `n`-node singly-linked chain under `d` and returns its head.
fn build_chain<T: ChainShape<S>, S: Scheme>(d: &DomainRef<S>, n: usize) -> SharedPtr<T, S> {
    let mut head: SharedPtr<T, S> = SharedPtr::null();
    for _ in 0..n {
        let node = T::alloc(d);
        let old = std::mem::replace(&mut head, node);
        head.as_ref().unwrap().next().store(old);
    }
    head
}

/// Builds a perfect binary tree of `depth` levels (2^depth - 1 nodes).
fn build_tree<T: TreeShape<S>, S: Scheme>(d: &DomainRef<S>, depth: u32) -> SharedPtr<T, S> {
    let node = T::alloc(d);
    if depth > 1 {
        let (l, r) = node.as_ref().unwrap().children();
        l.store(build_tree(d, depth - 1));
        r.store(build_tree(d, depth - 1));
    }
    node
}

/// Depth whose perfect tree is the largest not exceeding `n` nodes.
fn tree_depth(n: usize) -> u32 {
    let mut depth = 1u32;
    while (1usize << (depth + 1)) - 1 <= n {
        depth += 1;
    }
    depth
}

fn list_cell<S: Scheme>(scheme: &str, n: usize, out: &mut Vec<f64>) {
    // Graph flavour: immediate iterative destruction.
    let d: DomainRef<S> = DomainRef::new();
    let head = build_chain::<GraphChain<S>, S>(&d, n);
    let ms = time_to_reclaimed(&d, head);

    // Deferred flavour: the in-binary baseline.
    let d: DomainRef<S> = DomainRef::new();
    let head = build_chain::<DeferredChain<S>, S>(&d, n);
    let before_ms = time_to_reclaimed(&d, head);

    let ns = ms * 1e6 / n as f64;
    let before_ns = before_ms * 1e6 / n as f64;
    let name = format!("teardown/list/{scheme}");
    println!("{name:<28} {ms:>9.1} ms  ({ns:.1} ns/node; deferred {before_ms:.1} ms)");
    emit_json(format!(
        "{{\"name\":\"{name}\",\"nodes\":{n},\"ms\":{ms:.3},\"ns_per_node\":{ns:.3},\
         \"before_ms\":{before_ms:.3},\"before_ns_per_node\":{before_ns:.3}}}"
    ));
    out.extend([ms, before_ms]);
}

fn tree_cell<S: Scheme>(scheme: &str, n: usize, out: &mut Vec<f64>) {
    let depth = tree_depth(n);
    let nodes = (1usize << depth) - 1;

    let d: DomainRef<S> = DomainRef::new();
    let root = build_tree::<GraphTree<S>, S>(&d, depth);
    let ms = time_to_reclaimed(&d, root);

    let d: DomainRef<S> = DomainRef::new();
    let root = build_tree::<DeferredTree<S>, S>(&d, depth);
    let before_ms = time_to_reclaimed(&d, root);

    let ns = ms * 1e6 / nodes as f64;
    let before_ns = before_ms * 1e6 / nodes as f64;
    let name = format!("teardown/tree/{scheme}");
    println!("{name:<28} {ms:>9.1} ms  ({ns:.1} ns/node; deferred {before_ms:.1} ms)");
    emit_json(format!(
        "{{\"name\":\"{name}\",\"nodes\":{nodes},\"ms\":{ms:.3},\"ns_per_node\":{ns:.3},\
         \"before_ms\":{before_ms:.3},\"before_ns_per_node\":{before_ns:.3}}}"
    ));
    out.extend([ms, before_ms]);
}

fn main() {
    let n = node_count();
    let mut measured = Vec::new();

    list_cell::<EbrScheme>("ebr", n, &mut measured);
    list_cell::<IbrScheme>("ibr", n, &mut measured);
    list_cell::<HpScheme>("hp", n, &mut measured);
    list_cell::<HyalineScheme>("hyaline", n, &mut measured);

    tree_cell::<EbrScheme>("ebr", n, &mut measured);
    tree_cell::<IbrScheme>("ibr", n, &mut measured);
    tree_cell::<HpScheme>("hp", n, &mut measured);
    tree_cell::<HyalineScheme>("hyaline", n, &mut measured);

    // Smoke contract: every cell strictly positive and finite (the
    // allocated()==freed() convergence is asserted inside each cell).
    if let Some(bad) = measured.iter().find(|&&v| !(v > 0.0 && v.is_finite())) {
        eprintln!("teardown: non-positive or non-finite measurement ({bad}); failing");
        std::process::exit(1);
    }
    eprintln!("teardown: all {} cells strictly positive", measured.len());
}
