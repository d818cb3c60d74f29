//! Concurrency primitives, cfg-switched between `std` and the `loom`
//! model checker.
//!
//! Production builds get zero-cost `std` types; with the `loom` feature
//! (enabled by `heavy-tests`), the same ring code compiles against the
//! tracked types, so the model tests in `tests/model.rs` exhaustively
//! interleave the *real* [`crate::ring::SpscRing`] implementation, not
//! a copy of it. Only the primitives the ring actually uses are
//! exposed.
//!
//! Both variants share loom's access-closure `UnsafeCell` API
//! ([`UnsafeCell::with`] / [`UnsafeCell::with_mut`]): the closures
//! receive raw pointers, so dereferencing stays an explicit `unsafe`
//! obligation at the call site — the std variant's closures inline to
//! nothing.

#[cfg(feature = "loom")]
pub(crate) use loom::cell::UnsafeCell;
#[cfg(feature = "loom")]
pub(crate) use loom::sync::atomic::{AtomicUsize, Ordering};

#[cfg(not(feature = "loom"))]
pub(crate) use std::sync::atomic::{AtomicUsize, Ordering};

/// The std stand-in for `loom::cell::UnsafeCell`: a plain
/// [`std::cell::UnsafeCell`] behind the same `with`/`with_mut` API.
#[cfg(not(feature = "loom"))]
#[derive(Debug, Default)]
pub(crate) struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

#[cfg(not(feature = "loom"))]
impl<T> UnsafeCell<T> {
    pub(crate) const fn new(data: T) -> Self {
        Self(std::cell::UnsafeCell::new(data))
    }

    /// Call `f` with a shared raw pointer to the contents.
    #[inline(always)]
    pub(crate) fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        f(self.0.get())
    }

    /// Call `f` with a mutable raw pointer to the contents.
    #[inline(always)]
    pub(crate) fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        f(self.0.get())
    }
}
