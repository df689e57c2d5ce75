//! Umbrella crate for the CDRC reproduction suite.
//!
//! Re-exports the workspace crates so examples and integration tests can use
//! a single dependency. See the [`cdrc`] crate for the reference-counted
//! pointer library (the paper's primary contribution), [`smr`] for the
//! manual reclamation substrate and [`lockfree`] for the evaluation data
//! structures.
//!
//! ```
//! use cdrc_suite::cdrc::{EbrScheme, Scheme, SharedPtr};
//! use cdrc_suite::lockfree::{rc, ConcurrentMap};
//!
//! let p: SharedPtr<u32, EbrScheme> = SharedPtr::new(1);
//! assert_eq!(p.as_ref(), Some(&1));
//!
//! let map: rc::RcHarrisMichaelList<u64, u64, EbrScheme> = rc::RcHarrisMichaelList::new();
//! assert!(map.insert(7, 7));
//! assert_eq!(map.get(&7), Some(7));
//!
//! let t = cdrc_suite::smr::current_tid();
//! EbrScheme::global_domain().process_deferred(t);
//! ```

pub use cdrc;
pub use lockfree;
pub use smr;
pub use sticky;
