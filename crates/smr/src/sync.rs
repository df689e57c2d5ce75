//! The `sync` facade: the single point where the suite chooses between
//! real `std::sync::atomic` and the vendored `interleave` model checker.
//!
//! Every atomic on a protocol path — the [`RcWord`](../cdrc) engine,
//! domain retire/scan, each scheme's announce/scan handshake, the
//! evaluation structures — imports from here instead of `std`. In normal
//! builds this module *is* `std::sync::atomic` (a `pub use`, zero cost);
//! under `--features model-check` it becomes the model-aware wrapper
//! types from `interleave`, so the `model_check` test suite can explore
//! every bounded interleaving of the protocol under C11
//! acquire/release semantics rather than whatever the host's (x86)
//! hardware happens to exhibit.
//!
//! CI greps deny direct `std::sync::atomic` imports everywhere outside
//! this module and the vendored shims (`scripts/ordering_lint.sh`), so
//! new protocol state cannot silently escape the checker.
//!
//! [`exempt`] suppresses modeling for infrastructure state that must not
//! enter the model: thread-slot registries, fault-injection checkpoints,
//! statistics tallies, and test bookkeeping. In normal builds it is an
//! identity function.

/// Real or model-aware atomics, selected by the `model-check` feature.
#[cfg(not(feature = "model-check"))]
pub use std::sync::atomic;

#[cfg(feature = "model-check")]
pub use interleave::sync::atomic;

/// Runs `f` outside the model: atomics accessed inside go straight to
/// the underlying `std` cells and create no schedule points. Identity in
/// normal builds. See the module docs for what belongs here.
#[cfg(not(feature = "model-check"))]
#[inline(always)]
pub fn exempt<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(feature = "model-check")]
pub use interleave::exempt;
