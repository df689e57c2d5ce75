//! Model-aware drop-in replacements for `std::sync::atomic`.
//!
//! Each wrapper pairs the real `std` atomic with a lazily-assigned
//! process-unique location id. Outside a model run (or under
//! [`exempt`](crate::exempt)) every operation routes straight to the real
//! atomic with the caller's ordering; inside a run it becomes a kernel
//! operation — a schedule point plus a C11-model memory access. The real
//! cell then holds only the location's *initial* value (snapshotted on
//! first modeled access each run); modeled stores are not written back,
//! which is why scenarios must confine shared state to objects created
//! and destroyed inside the checked closure.

use crate::kernel;
use std::sync::atomic as real;

pub use std::sync::atomic::Ordering;

/// A memory fence: modeled (schedule point + view/fence semantics) inside
/// a run, `std::sync::atomic::fence` outside.
#[inline]
pub fn fence(order: Ordering) {
    assert!(
        order != Ordering::Relaxed,
        "there is no such thing as a relaxed fence"
    );
    if kernel::in_model() {
        kernel::fence_op(order);
    } else {
        real::fence(order);
    }
}

macro_rules! model_atomic {
    ($name:ident, $prim:ty, $raw:ty, $doc:expr) => {
        #[doc = $doc]
        ///
        /// Drop-in model-aware replacement for the `std::sync::atomic`
        /// type of the same name (see the module docs).
        #[derive(Debug)]
        #[repr(C)]
        pub struct $name {
            real: $raw,
            slot: real::AtomicU64,
        }

        impl $name {
            /// Creates a new atomic (const, so statics work).
            #[inline]
            pub const fn new(v: $prim) -> Self {
                $name {
                    real: <$raw>::new(v),
                    slot: real::AtomicU64::new(0),
                }
            }

            #[inline]
            fn model_id(&self) -> Option<u64> {
                if !kernel::in_model() {
                    return None;
                }
                let id = self.slot.load(Ordering::Relaxed);
                if id != 0 {
                    return Some(id);
                }
                let fresh = kernel::fresh_loc_id();
                match self
                    .slot
                    .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
                {
                    Ok(_) => Some(fresh),
                    Err(raced) => Some(raced),
                }
            }

            #[inline]
            fn snapshot(&self) -> u64 {
                Self::to_bits(self.real.load(Ordering::Relaxed))
            }

            /// Loads the value.
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_load(id, || self.snapshot(), order)),
                    None => self.real.load(order),
                }
            }

            /// Stores `val`.
            #[inline]
            pub fn store(&self, val: $prim, order: Ordering) {
                match self.model_id() {
                    Some(id) => {
                        kernel::atomic_store(id, || self.snapshot(), Self::to_bits(val), order)
                    }
                    None => self.real.store(val, order),
                }
            }

            /// Swaps in `val`, returning the previous value.
            #[inline]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |_| Self::to_bits(val),
                    )),
                    None => self.real.swap(val, order),
                }
            }

            /// Strong compare-exchange.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match self.model_id() {
                    Some(id) => kernel::atomic_cas(
                        id,
                        || self.snapshot(),
                        Self::to_bits(current),
                        Self::to_bits(new),
                        success,
                        failure,
                    )
                    .map(Self::from_bits)
                    .map_err(Self::from_bits),
                    None => self.real.compare_exchange(current, new, success, failure),
                }
            }

            /// Weak compare-exchange. Modeled as the strong variant
            /// (spurious failures are not explored — see the crate docs).
            #[inline]
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                match self.model_id() {
                    Some(_) => self.compare_exchange(current, new, success, failure),
                    None => self
                        .real
                        .compare_exchange_weak(current, new, success, failure),
                }
            }

            /// Mutable access to the value. Under modeling this first
            /// collapses the modeled history into the real cell (exclusive
            /// access proves no concurrent observer exists).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.collapse_into_real();
                self.real.get_mut()
            }

            /// Consumes the atomic, returning its value (collapsing the
            /// modeled history first, as for `get_mut`).
            #[inline]
            pub fn into_inner(mut self) -> $prim {
                self.collapse_into_real();
                self.real.into_inner()
            }

            fn collapse_into_real(&mut self) {
                let id = self.slot.load(Ordering::Relaxed);
                if id != 0 {
                    if let Some(bits) = kernel::collapse(id) {
                        self.real.store(Self::from_bits(bits), Ordering::Relaxed);
                    }
                    self.slot.store(0, Ordering::Relaxed);
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new(Default::default())
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
    };
}

macro_rules! int_ops {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Wrapping add; returns the previous value.
            #[inline]
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |old| Self::to_bits(Self::from_bits(old).wrapping_add(val)),
                    )),
                    None => self.real.fetch_add(val, order),
                }
            }

            /// Wrapping subtract; returns the previous value.
            #[inline]
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |old| Self::to_bits(Self::from_bits(old).wrapping_sub(val)),
                    )),
                    None => self.real.fetch_sub(val, order),
                }
            }

            /// Bitwise OR; returns the previous value.
            #[inline]
            pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |old| Self::to_bits(Self::from_bits(old) | val),
                    )),
                    None => self.real.fetch_or(val, order),
                }
            }

            /// Bitwise AND; returns the previous value.
            #[inline]
            pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |old| Self::to_bits(Self::from_bits(old) & val),
                    )),
                    None => self.real.fetch_and(val, order),
                }
            }

            /// Maximum; returns the previous value.
            #[inline]
            pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                match self.model_id() {
                    Some(id) => Self::from_bits(kernel::atomic_rmw(
                        id,
                        || self.snapshot(),
                        order,
                        |old| Self::to_bits(Self::from_bits(old).max(val)),
                    )),
                    None => self.real.fetch_max(val, order),
                }
            }
        }
    };
}

model_atomic!(
    AtomicUsize,
    usize,
    real::AtomicUsize,
    "An unsigned pointer-sized model-aware atomic."
);
impl AtomicUsize {
    #[inline]
    fn to_bits(v: usize) -> u64 {
        v as u64
    }
    #[inline]
    fn from_bits(b: u64) -> usize {
        b as usize
    }
}
int_ops!(AtomicUsize, usize);

model_atomic!(
    AtomicU64,
    u64,
    real::AtomicU64,
    "A 64-bit unsigned model-aware atomic."
);
impl AtomicU64 {
    #[inline]
    fn to_bits(v: u64) -> u64 {
        v
    }
    #[inline]
    fn from_bits(b: u64) -> u64 {
        b
    }
}
int_ops!(AtomicU64, u64);

model_atomic!(
    AtomicU32,
    u32,
    real::AtomicU32,
    "A 32-bit unsigned model-aware atomic."
);
impl AtomicU32 {
    #[inline]
    fn to_bits(v: u32) -> u64 {
        v as u64
    }
    #[inline]
    fn from_bits(b: u64) -> u32 {
        b as u32
    }
}
int_ops!(AtomicU32, u32);

model_atomic!(
    AtomicIsize,
    isize,
    real::AtomicIsize,
    "A signed pointer-sized model-aware atomic."
);
impl AtomicIsize {
    #[inline]
    fn to_bits(v: isize) -> u64 {
        v as i64 as u64
    }
    #[inline]
    fn from_bits(b: u64) -> isize {
        b as i64 as isize
    }
}
int_ops!(AtomicIsize, isize);

model_atomic!(
    AtomicBool,
    bool,
    real::AtomicBool,
    "A boolean model-aware atomic."
);
impl AtomicBool {
    #[inline]
    fn to_bits(v: bool) -> u64 {
        v as u64
    }
    #[inline]
    fn from_bits(b: u64) -> bool {
        b != 0
    }
}

/// A raw-pointer model-aware atomic.
///
/// Drop-in model-aware replacement for `std::sync::atomic::AtomicPtr`
/// (see the module docs). Pointers round-trip through the model as
/// addresses; provenance is whatever the platform gives an
/// address-reconstituted pointer, which matches how the repo's lock-free
/// structures use tagged words.
#[derive(Debug)]
#[repr(C)]
pub struct AtomicPtr<T> {
    real: real::AtomicPtr<T>,
    slot: real::AtomicU64,
}

impl<T> AtomicPtr<T> {
    /// Creates a new atomic pointer (const, so statics work).
    #[inline]
    pub const fn new(p: *mut T) -> Self {
        AtomicPtr {
            real: real::AtomicPtr::new(p),
            slot: real::AtomicU64::new(0),
        }
    }

    #[inline]
    fn model_id(&self) -> Option<u64> {
        if !kernel::in_model() {
            return None;
        }
        let id = self.slot.load(Ordering::Relaxed);
        if id != 0 {
            return Some(id);
        }
        let fresh = kernel::fresh_loc_id();
        match self
            .slot
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => Some(fresh),
            Err(raced) => Some(raced),
        }
    }

    #[inline]
    fn snapshot(&self) -> u64 {
        self.real.load(Ordering::Relaxed) as u64
    }

    /// Loads the pointer.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut T {
        match self.model_id() {
            Some(id) => kernel::atomic_load(id, || self.snapshot(), order) as *mut T,
            None => self.real.load(order),
        }
    }

    /// Stores `p`.
    #[inline]
    pub fn store(&self, p: *mut T, order: Ordering) {
        match self.model_id() {
            Some(id) => kernel::atomic_store(id, || self.snapshot(), p as u64, order),
            None => self.real.store(p, order),
        }
    }

    /// Swaps in `p`, returning the previous pointer.
    #[inline]
    pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
        match self.model_id() {
            Some(id) => kernel::atomic_rmw(id, || self.snapshot(), order, |_| p as u64) as *mut T,
            None => self.real.swap(p, order),
        }
    }

    /// Strong compare-exchange.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match self.model_id() {
            Some(id) => kernel::atomic_cas(
                id,
                || self.snapshot(),
                current as u64,
                new as u64,
                success,
                failure,
            )
            .map(|b| b as *mut T)
            .map_err(|b| b as *mut T),
            None => self.real.compare_exchange(current, new, success, failure),
        }
    }

    /// Weak compare-exchange (modeled as strong — see the crate docs).
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: *mut T,
        new: *mut T,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut T, *mut T> {
        match self.model_id() {
            Some(_) => self.compare_exchange(current, new, success, failure),
            None => self
                .real
                .compare_exchange_weak(current, new, success, failure),
        }
    }

    /// Mutable access (collapses the modeled history first — see the
    /// integer wrappers).
    #[inline]
    pub fn get_mut(&mut self) -> &mut *mut T {
        self.collapse_into_real();
        self.real.get_mut()
    }

    /// Consumes the atomic, returning the pointer.
    #[inline]
    pub fn into_inner(mut self) -> *mut T {
        self.collapse_into_real();
        self.real.into_inner()
    }

    fn collapse_into_real(&mut self) {
        let id = self.slot.load(Ordering::Relaxed);
        if id != 0 {
            if let Some(bits) = kernel::collapse(id) {
                self.real.store(bits as *mut T, Ordering::Relaxed);
            }
            self.slot.store(0, Ordering::Relaxed);
        }
    }
}

impl<T> Default for AtomicPtr<T> {
    fn default() -> Self {
        Self::new(std::ptr::null_mut())
    }
}

impl<T> From<*mut T> for AtomicPtr<T> {
    fn from(p: *mut T) -> Self {
        Self::new(p)
    }
}
