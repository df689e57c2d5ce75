//! The Harris-Michael list (Michael 2002), written once for both families:
//! deletion first *marks* the victim's edge (low bit), then unlinks it with
//! a CAS on the predecessor's edge; searches help unlink marked nodes they
//! meet. The [`Family`] an operation runs under does what reclamation
//! needs: protect each node read, link, and reclaim what an unlink takes
//! out. The lists (`rc::list`, `manual::list`) run these from a list head,
//! and the split-ordered maps ([`crate::split_order`]) from a bucket
//! sentinel's edge.

use std::cmp::Ordering;
use std::mem::ManuallyDrop;

use crate::family::{Edge, Family, Kind, Link};

/// The deletion mark: set in a node's edge, the node is logically deleted.
pub(crate) const MARK: usize = 1;

/// A list node of either family. `repr(C)`, in the order a hop reads:
/// `find` loads `next` and compares `key`, so both sit in the node's first
/// bytes (right after the control-block header, under RC).
#[repr(C)]
pub(crate) struct Node<K, V, M: Kind> {
    pub(crate) next: M::Edge<Self>,
    pub(crate) key: K,
    pub(crate) birth: M::Birth,
    pub(crate) value: V,
}

impl<K, V, M: Kind> Link<M> for Node<K, V, M> {
    #[inline(always)]
    fn next(&self) -> &M::Edge<Self> {
        &self.next
    }
}

/// Where a [`find`] stopped. Holds the node around the edge it stopped at
/// (none at the start edge) and the node that edge names until it drops;
/// [`link_at`] and [`remove_at`] act on it.
pub(crate) struct Cursor<F: Family> {
    f: F,
    prev: ManuallyDrop<Option<F::Held>>,
    /// Read (unmarked) from that edge; a null word is the end of the list.
    pub(crate) cur: ManuallyDrop<F::Held>,
    pub(crate) found: bool,
}

impl<F: Family> Cursor<F> {
    #[inline(always)]
    fn new(f: F, prev: Option<F::Held>, cur: F::Held, found: bool) -> Self {
        let (prev, cur) = (ManuallyDrop::new(prev), ManuallyDrop::new(cur));
        Cursor {
            f,
            prev,
            cur,
            found,
        }
    }

    /// The node the search stopped at; `None` at the end of the list.
    #[inline(always)]
    pub(crate) fn node(&self) -> Option<&F::Node> {
        F::node(&self.cur)
    }
}

impl<F: Family> Drop for Cursor<F> {
    #[inline(always)]
    fn drop(&mut self) {
        // Safety: both are taken once, here, and not touched again.
        let (prev, cur) = unsafe {
            (
                ManuallyDrop::take(&mut self.prev),
                ManuallyDrop::take(&mut self.cur),
            )
        };
        release(self.f, prev, [cur]);
    }
}

/// Gives back what a search holds. Not `.into_iter().flatten()`: the
/// adaptor does not fold away under a region scheme (`Guard = ()`) and
/// cost ~5 % per manual hop (traversal_parity).
#[inline(always)]
fn release<F: Family, const N: usize>(f: F, prev: Option<F::Held>, held: [F::Held; N]) {
    if let Some(p) = prev {
        f.release(p);
    }
    for h in held {
        f.release(h);
    }
}

/// The edge out of `prev`, or `head` while the search has not left it.
#[inline(always)]
fn edge_of<'a, F: Family>(head: &'a Edge<F>, prev: &'a Option<F::Held>) -> &'a Edge<F>
where
    F::Node: 'a,
{
    // A `prev` is a node the search stepped over, never null.
    match prev.as_ref().and_then(F::node) {
        Some(node) => node.next(),
        None => head,
    }
}

/// The Harris-Michael search: walks from the edge `head` to the first node
/// that `cmp` (node against the target) does not order `Less`, unlinking
/// marked nodes on the way. Restarts begin at `head` again, so it must be
/// an edge that is never marked: the list head, or a sentinel's `next`.
///
/// The hop is: read `next`, validate the `prev` edge, compare, rotate. Held
/// nodes are only moved and released, never lent to a function that is not
/// inlined (the no-escape invariant on `cdrc::SnapshotPtr`), so the
/// loop-carried dependency is load → mask → load, and under a region
/// scheme the rotation compiles to nothing.
// Always inlined into the caller's operation: out of line, the cursor comes
// back through memory on every operation (−4 … −7 % on the ledger's
// `kv_cold_read` cells). `scripts/inline_check.sh` fails if the ledger
// binary holds a copy.
#[inline(always)]
pub(crate) fn find<F: Family>(
    f: F,
    head: &Edge<F>,
    mut cmp: impl FnMut(&F::Node) -> Ordering,
) -> Cursor<F> {
    'retry: loop {
        let mut prev: Option<F::Held> = None;
        let mut cur = f.read(head);
        if F::word(&cur) & MARK != 0 {
            // Only transiently, mid-unlink or mid-splice.
            f.release(cur);
            continue 'retry;
        }
        loop {
            let Some(node) = F::node(&cur) else {
                return Cursor::new(f, prev, cur, false);
            };
            let next = f.read(node.next());
            // Validate cur is still linked unmarked at the prev edge.
            let edge = edge_of::<F>(head, &prev);
            if F::load(edge) != F::word(&cur) {
                release(f, prev, [cur, next]);
                continue 'retry;
            }
            if F::word(&next) & MARK != 0 {
                // cur is logically deleted: help unlink it and go on from
                // its successor, or restart if the edge changed first.
                match f.unlink(edge, &cur, next) {
                    Some(unmarked) => {
                        f.release(cur);
                        cur = unmarked;
                    }
                    None => {
                        release(f, prev, [cur]);
                        continue 'retry;
                    }
                }
                continue;
            }
            match cmp(node) {
                Ordering::Less => {
                    release(f, prev, []);
                    prev = Some(cur);
                    cur = next;
                }
                ord => {
                    f.release(next);
                    return Cursor::new(f, prev, cur, ord == Ordering::Equal);
                }
            }
        }
    }
}

/// Links `node` in at the cursor, which did not find its key. A lost race
/// hands `node` back untouched: re-find (the witness alone cannot certify
/// that prev is still linked).
#[inline]
pub(crate) fn link_at<F: Family>(
    head: &Edge<F>,
    c: &Cursor<F>,
    node: F::Owned,
) -> Result<(), F::Owned> {
    F::link(edge_of::<F>(head, &c.prev), &c.cur, node)
}

/// Inserts a node for `key` where [`find`] from `head` says it goes, unless
/// the key is there already: `true` if linked. It searches first (`cmp`
/// orders a node against a key), builds the node with `make` only on a
/// miss, and keeps it across lost races, re-finding by the key inside it
/// (`key_of`).
#[inline]
pub(crate) fn find_or_link<F: Family, Q>(
    f: F,
    head: &Edge<F>,
    key: Q,
    cmp: impl Fn(&F::Node, &Q) -> Ordering,
    make: impl FnOnce(Q) -> F::Owned,
    key_of: impl Fn(&F::Node) -> &Q,
) -> bool {
    // The key, until a miss builds the node that carries it.
    let mut pending: Result<F::Owned, (Q, _)> = Err((key, make));
    loop {
        let c = {
            let key = match &pending {
                Ok(node) => key_of(F::built(node)),
                Err((key, _)) => key,
            };
            find(f, head, |n| cmp(n, key))
        };
        if c.found {
            if let Ok(node) = pending {
                f.discard(node); // never published
            }
            return false;
        }
        let node = pending.unwrap_or_else(|(key, make)| make(key));
        match link_at(head, &c, node) {
            Ok(()) => return true,
            Err(back) => pending = Ok(back),
        }
    }
}

/// Deletes the node the cursor found: marks its edge, then tries the
/// physical unlink (a later [`find`] does it otherwise). `false` if a
/// competing delete marked it first: re-find, which helps that delete
/// along.
#[inline]
pub(crate) fn remove_at<F: Family>(head: &Edge<F>, c: &Cursor<F>) -> bool {
    let node = c.node().expect("cursor found a node");
    let Some(next) = c.f.mark(node.next()) else {
        return false;
    };
    if let Some(next) = c.f.unlink(edge_of::<F>(head, &c.prev), &c.cur, next) {
        c.f.release(next);
    }
    true
}

/// A list insert from `head`: [`find_or_link`] by key, then the family's
/// end of an operation.
#[inline]
pub(crate) fn insert<K: Ord, V, M: Kind, F>(f: F, head: &Edge<F>, key: K, value: V) -> bool
where
    F: Family<Kind = M, Node = Node<K, V, M>>,
{
    let node = |key| {
        f.alloc(head, |next, birth| Node {
            next,
            key,
            birth,
            value,
        })
    };
    let linked = find_or_link(f, head, key, |n, k| n.key.cmp(k), node, |n| &n.key);
    f.end();
    linked
}

/// A list remove from `head` of the node `cmp` calls equal.
#[inline]
pub(crate) fn remove<F: Family>(
    f: F,
    head: &Edge<F>,
    mut cmp: impl FnMut(&F::Node) -> Ordering,
) -> bool {
    let removed = loop {
        let c = find(f, head, &mut cmp);
        if !c.found {
            break false;
        }
        if remove_at(head, &c) {
            break true;
        }
    };
    f.end();
    removed
}

/// A list lookup from `head`: what `read` makes of the node `cmp` calls
/// equal.
#[inline]
pub(crate) fn get<F: Family, R>(
    f: F,
    head: &Edge<F>,
    cmp: impl FnMut(&F::Node) -> Ordering,
    read: impl FnOnce(&F::Node) -> R,
) -> Option<R> {
    let c = find(f, head, cmp);
    let out = c.node().filter(|_| c.found).map(read);
    drop(c);
    f.end();
    out
}
