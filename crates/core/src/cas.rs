//! Result types for the witness-returning compare-and-swap family.

use std::fmt;

use crate::tagged::TaggedPtr;

/// The error of a compare-exchange
/// ([`AtomicRcPtr::compare_exchange`](crate::AtomicRcPtr::compare_exchange)):
/// the witnessed current word plus the untouched `desired` pointer, handed
/// back so the caller can retry without reallocating or paying a count
/// round-trip.
pub struct CompareExchangeErr<P, T> {
    /// The word the location actually held at the failed CAS — the retry
    /// loop's next `expected`, no re-load needed.
    pub current: TaggedPtr<T>,
    /// The pointer that was to be installed, returned with its reference
    /// intact.
    pub desired: P,
}

impl<P: fmt::Debug, T> fmt::Debug for CompareExchangeErr<P, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompareExchangeErr")
            .field("current", &self.current)
            .field("desired", &self.desired)
            .finish()
    }
}
