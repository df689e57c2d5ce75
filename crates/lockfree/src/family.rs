//! Where the two families differ. [`crate::list`] and [`crate::split_order`]
//! write the Harris-Michael list and the split-ordered map once, against
//! [`Family`]; an operation runs them under the automatic family
//! (`rc::Rc`, over `cdrc` pointers) or the manual one (`manual::Manual`,
//! over an `smr` scheme and its `Reclaimer`).
//!
//! The paper's manual-to-automatic step is the difference between those
//! two impls: the automatic one has no `retire`, no `collect` and no guard
//! to give back, because dropping the reference an unlinking CAS displaced
//! *is* the reclamation path.

/// A family as the shared node types see it: the edge a node links to an
/// `N` through, and what a node carries for its reclamation (the manual
/// birth epoch; nothing under RC).
pub(crate) trait Kind {
    type Edge<N>;
    type Birth;
}

/// What the search needs of a node: its successor edge (low bit set: this
/// node is logically deleted).
pub(crate) trait Link<M: Kind>: Sized {
    fn next(&self) -> &M::Edge<Self>;
}

/// The edge type of `F`'s nodes.
pub(crate) type Edge<F> = <<F as Family>::Kind as Kind>::Edge<<F as Family>::Node>;

/// What one operation of a list or map runs under, and everything it does
/// that depends on how nodes are reclaimed. A value is the operation's
/// context (its critical section), so it is `Copy` and handed by value.
pub(crate) trait Family: Copy {
    type Kind: Kind;
    type Node: Link<Self::Kind>;
    /// A node read from an edge, protected until [`release`]d.
    ///
    /// [`release`]: Family::release
    type Held;
    /// A node allocated by this operation and not yet published.
    type Owned;

    /// Reads `e` and protects the node it names.
    fn read(self, e: &Edge<Self>) -> Self::Held;
    /// The word in `e`, tag bits included; nothing is protected.
    fn load(e: &Edge<Self>) -> usize;
    /// The word `h` was read as, tag bits included.
    fn word(h: &Self::Held) -> usize;
    /// The node `h` names; `None` for a null word.
    fn node(h: &Self::Held) -> Option<&Self::Node>;
    /// Gives back `h`'s protection.
    fn release(self, h: Self::Held);

    /// Marks `e`'s node deleted: sets the mark on `e` unless a competing
    /// delete did first (`None`). `Some` is the successor the mark froze,
    /// to be handed to [`unlink`](Family::unlink) and released.
    fn mark(self, e: &Edge<Self>) -> Option<Self::Held>;
    /// Installs `node` at `e` if `e` still holds `at`'s word, with `node`'s
    /// edge naming `at`'s node; a lost race hands `node` back untouched.
    fn link(e: &Edge<Self>, at: &Self::Held, node: Self::Owned) -> Result<(), Self::Owned>;
    /// Swings `e` from the marked node `cur` to its successor `next` and,
    /// if that CAS succeeds, reclaims `cur` and hands `next` back unmarked.
    /// `None` (with `next` released) if the CAS failed: another thread
    /// unlinked `cur`, or `e`'s own node is being deleted. Impls inline it:
    /// the search hop lends it its held nodes, and an out-of-line call
    /// keeps them in memory on every hop (1.7× per HP hop in
    /// `traversal_parity`).
    fn unlink(self, e: &Edge<Self>, cur: &Self::Held, next: Self::Held) -> Option<Self::Held>;

    /// Allocates the node `make` builds from a null edge and a birth, for
    /// linking behind `at`.
    fn alloc(
        self,
        at: &Edge<Self>,
        make: impl FnOnce(Edge<Self>, <Self::Kind as Kind>::Birth) -> Self::Node,
    ) -> Self::Owned;
    /// The node inside an `Owned`.
    fn built(o: &Self::Owned) -> &Self::Node;
    /// Frees a node that was never published.
    fn discard(self, o: Self::Owned);
    /// Runs once an operation is over.
    fn end(self);

    /// A null edge of the structure `like` belongs to: an empty bucket slot.
    fn null(like: &Edge<Self>) -> Edge<Self>;
    /// The sentinel a bucket slot names, once one is installed.
    fn sentinel(self, slot: &Edge<Self>) -> Option<Self::Held>;
    /// Installs sentinel `s` in an empty bucket slot. Losing the race is
    /// harmless: the list holds one sentinel per bucket, so the winner
    /// installed the same node.
    fn install(slot: &Edge<Self>, s: &Self::Held);
}
