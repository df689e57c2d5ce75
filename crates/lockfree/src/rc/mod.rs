//! Automatically memory-managed variants over the `cdrc` pointer types.
//!
//! Same algorithms as [`crate::manual`], with every raw pointer replaced by
//! a reference-counted pointer and every `retire` call *deleted*: unlinking
//! the last strong reference reclaims nodes (and whole spliced-out chains)
//! automatically, once no snapshot or in-flight protection refers to them.

pub mod dlqueue;
pub mod list;
pub mod nmtree;
pub mod resizable;

pub use dlqueue::RcDoubleLinkQueue;
pub use list::RcHarrisMichaelList;
pub use nmtree::RcNatarajanMittalTree;
pub use resizable::RcResizableHashMap;
