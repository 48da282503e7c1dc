//! The cfg-switched synchronization seam.
//!
//! Production crates (`rips-live`, `rips-runtime`) import their atomics,
//! cells, fences and ordering helpers from here instead of `std`:
//!
//! * In a normal build (`cfg(not(rips_verify))`) everything is a
//!   re-export of `std::sync::atomic` plus `#[inline(always)]` identity
//!   helpers — zero cost, bit-for-bit identical behavior.
//! * Under `RUSTFLAGS="--cfg rips_verify"` the same paths resolve to
//!   the instrumented types in [`crate::rt`], so every access becomes a
//!   scheduling point of the bounded model checker and participates in
//!   happens-before tracking.
//!
//! The `&'static str` *site labels* taken by [`ord`], [`fence_at`] and
//! [`swap_bool`] name ordering-sensitive program points. Normally they
//! compile away; under the checker they label replay traces and are the
//! handles the mutation sweep uses to seed single-ordering bugs
//! (see [`crate::mutate`]).

#[cfg(not(rips_verify))]
mod imp {
    use std::sync::atomic::Ordering;

    /// Atomic types: plain `std::sync::atomic` re-exports.
    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    /// The data-cell seam: a zero-cost `UnsafeCell` wrapper.
    pub mod cell {
        /// Zero-cost wrapper over `std::cell::UnsafeCell` exposing the
        /// same raw-pointer closure API as the instrumented cell.
        #[repr(transparent)]
        pub struct UnsafeCellWrap<T> {
            inner: std::cell::UnsafeCell<T>,
        }

        impl<T> UnsafeCellWrap<T> {
            /// Wrap a value.
            #[inline(always)]
            pub fn new(v: T) -> Self {
                Self {
                    inner: std::cell::UnsafeCell::new(v),
                }
            }

            /// Shared (read) access; dereferencing the pointer is the
            /// caller's `unsafe`.
            #[inline(always)]
            pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
                f(self.inner.get())
            }

            /// Exclusive (write) access; dereferencing the pointer is
            /// the caller's `unsafe`.
            #[inline(always)]
            pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
                f(self.inner.get())
            }
        }
    }

    /// Identity in normal builds: the ordering written at the call site
    /// is the ordering used.
    #[inline(always)]
    pub fn ord(_site: &'static str, o: Ordering) -> Ordering {
        o
    }

    /// A named fence; compiles to a plain `std` fence.
    #[inline(always)]
    pub fn fence_at(_site: &'static str, o: Ordering) {
        std::sync::atomic::fence(o);
    }

    /// A named boolean swap; compiles to a plain `swap`.
    #[inline(always)]
    pub fn swap_bool(_site: &'static str, a: &atomic::AtomicBool, v: bool, o: Ordering) -> bool {
        a.swap(v, o)
    }
}

#[cfg(rips_verify)]
mod imp {
    use std::sync::atomic::Ordering;

    /// Atomic types: the instrumented model-checker cells.
    pub mod atomic {
        pub use crate::rt::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }

    /// The data-cell seam: the race-checked instrumented cell.
    pub mod cell {
        pub use crate::rt::UnsafeCellWrap;
    }

    /// Under the checker: label the next operation for replay traces
    /// and apply the active ordering mutation, if this is its site.
    pub fn ord(site: &'static str, o: Ordering) -> Ordering {
        crate::rt::set_site(site);
        crate::mutate::apply_ord(site, o)
    }

    /// Under the checker: an instrumented fence, deletable by the
    /// mutation sweep.
    pub fn fence_at(site: &'static str, o: Ordering) {
        if crate::mutate::fence_survives(site) {
            crate::rt::set_site(site);
            crate::rt::fence(o);
        }
    }

    fn load_part(o: Ordering) -> Ordering {
        match o {
            Ordering::AcqRel | Ordering::Acquire => Ordering::Acquire,
            Ordering::SeqCst => Ordering::SeqCst,
            _ => Ordering::Relaxed,
        }
    }

    fn store_part(o: Ordering) -> Ordering {
        match o {
            Ordering::AcqRel | Ordering::Release => Ordering::Release,
            Ordering::SeqCst => Ordering::SeqCst,
            _ => Ordering::Relaxed,
        }
    }

    /// Under the checker: an instrumented boolean swap. When the active
    /// mutation splits this site, the RMW decomposes into a separate
    /// load and store with a scheduling point in between — the classic
    /// lost-update bug the swap exists to prevent.
    pub fn swap_bool(site: &'static str, a: &atomic::AtomicBool, v: bool, o: Ordering) -> bool {
        if crate::mutate::rmw_is_split(site) {
            crate::rt::set_site(site);
            let old = a.load(load_part(o));
            crate::rt::set_site(site);
            a.store(v, store_part(o));
            old
        } else {
            crate::rt::set_site(site);
            a.swap(v, o)
        }
    }
}

pub use imp::*;
