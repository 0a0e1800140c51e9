//! Atomic publication of shared immutable values: a home-built `ArcCell`.
//!
//! The engine's shard workers publish an immutable snapshot after (some)
//! minibatches, and query threads read the latest one. A
//! `RwLock<Arc<Snapshot>>` serves that pattern but pays an OS-backed lock
//! word on every read *and* every write — on the ingest hot path that is a
//! contended atomic RMW plus a potential futex wait for what is logically a
//! single pointer exchange. [`ArcCell`] keeps exactly the pointer exchange:
//!
//! * the cell owns one strong reference, stored as a raw pointer in an
//!   [`AtomicPtr`];
//! * [`ArcCell::set`] (the single writer) swaps the pointer in with
//!   `Release` ordering, so everything written before the publication is
//!   visible to any reader that observes the new pointer;
//! * [`ArcCell::get`] briefly swaps the pointer *out* (taking ownership of
//!   the cell's strong count), clones the `Arc`, and puts it back;
//! * [`ArcCell::with`] swaps it out, lets a short closure read the value
//!   in place, and puts it back — no clone, no drop, so no read-modify-write
//!   on the shared reference count (the engine's point queries).
//!
//! The swap-out window means two concurrent readers exclude each other
//! between the swap and the store — a few instructions for `get`, the
//! closure's run for `with` — an obstruction-free busy-wait, not a lock:
//! there is no OS interaction, no writer starvation (writers use the same
//! protocol), and the window does not scale with the size of `T`. This is
//! the classic `ArcCell` design (crossbeam 0.2); it is rebuilt here
//! because the offline build vendors no concurrency crates.
//!
//! ```
//! use std::sync::Arc;
//! use psfa_primitives::ArcCell;
//!
//! let cell = ArcCell::new(Arc::new(1u64));
//! assert_eq!(*cell.get(), 1);
//! let old = cell.set(Arc::new(2));
//! assert_eq!((*old, *cell.get()), (1, 2));
//! assert_eq!(cell.with(|value| value * 10), 20);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

/// A shared, atomically swappable [`Arc`] slot (see the module docs).
pub struct ArcCell<T> {
    /// Raw pointer from `Arc::into_raw`, representing one strong reference
    /// owned by the cell. Null only transiently, while a `get`, `with` or
    /// `set` holds the reference.
    ptr: AtomicPtr<T>,
}

// The cell hands out clones of an `Arc<T>` (`get`, `set`) and lends `&T`
// (`with`) across threads, so it needs exactly the bounds
// `Arc<T>: Send + Sync` needs (`T: Send + Sync`, which covers `&T: Send`).
unsafe impl<T: Send + Sync> Send for ArcCell<T> {}
unsafe impl<T: Send + Sync> Sync for ArcCell<T> {}

impl<T> ArcCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            ptr: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
        }
    }

    /// Takes the cell's strong reference off the slot, spinning through the
    /// (normally nanoseconds-long) windows in which another thread holds
    /// it. After a short burst of pure spinning the wait yields to the
    /// scheduler: if the slot-holder was preempted mid-`get` on an
    /// oversubscribed host, burning its timeslice away would only delay
    /// the holder further (priority inversion) — yielding hands it the CPU
    /// it needs to put the pointer back.
    ///
    /// Returns the `Arc::into_raw` of that strong reference, which the
    /// caller now owns exclusively and must store back into the slot.
    fn take_raw(&self) -> *mut T {
        let mut spins = 0u32;
        loop {
            let raw = self.ptr.swap(std::ptr::null_mut(), Ordering::Acquire);
            if !raw.is_null() {
                return raw;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// [`ArcCell::take_raw`] as an owned `Arc`.
    fn take(&self) -> Arc<T> {
        // SAFETY: a non-null pointer in the slot is always the
        // `Arc::into_raw` of a strong reference owned by the cell, and the
        // swap in `take_raw` transferred that ownership to us exclusively.
        unsafe { Arc::from_raw(self.take_raw()) }
    }

    /// Puts a strong reference back into the (currently null) slot.
    fn put(&self, value: Arc<T>) {
        self.ptr
            .store(Arc::into_raw(value).cast_mut(), Ordering::Release);
    }

    /// Returns a clone of the current value.
    ///
    /// Pairs with [`ArcCell::set`]: observing a pointer published by `set`
    /// makes every write the publisher performed before the `set` visible
    /// (`Release` store / `Acquire` swap).
    pub fn get(&self) -> Arc<T> {
        let current = self.take();
        let out = current.clone();
        self.put(current);
        out
    }

    /// Runs `f` on the current value **in place**, without touching its
    /// reference count: one swap takes the slot, `f` reads the value, one
    /// store puts it back — where [`ArcCell::get`] adds a clone and a drop,
    /// two more atomic read-modify-writes on the shared count.
    ///
    /// The slot stays empty while `f` runs, so every other `get`, `with`
    /// and [`ArcCell::set`] on this cell spins (then yields) until `f`
    /// returns. Hence the contract: `f` is **short** — a lookup, not a scan
    /// or an allocation-heavy computation; take a [`ArcCell::get`] clone for
    /// longer work — and `f` **never touches this same cell** (a nested
    /// `get`, `with` or `set` would wait for the slot it holds itself,
    /// forever). If `f` unwinds, a drop guard puts the value back first, so
    /// the cell stays readable. Visibility is `get`'s: `f` sees everything
    /// the publisher wrote before the `set` that stored this value.
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        /// Holds the slot's reference and stores it back on drop — on
        /// return and on unwind alike.
        struct Held<'a, T> {
            cell: &'a ArcCell<T>,
            raw: *mut T,
        }
        impl<T> Drop for Held<'_, T> {
            fn drop(&mut self) {
                self.cell.ptr.store(self.raw, Ordering::Release);
            }
        }
        let held = Held {
            cell: self,
            raw: self.take_raw(),
        };
        // SAFETY: `held.raw` is the `Arc::into_raw` of the cell's strong
        // reference, which `take_raw` handed to us exclusively; nothing can
        // drop it until `held` stores it back, after `f` returns or unwinds.
        // `f` cannot keep the borrow: `R` is fixed outside its lifetime.
        f(unsafe { &*held.raw })
    }

    /// Publishes `value` and returns the previously held one.
    pub fn set(&self, value: Arc<T>) -> Arc<T> {
        let old = self.take();
        self.put(value);
        old
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no other thread can hold the slot mid-swap, so the
        // pointer is non-null and owned by the cell.
        let raw = *self.ptr.get_mut();
        if !raw.is_null() {
            // SAFETY: the slot owns one strong reference (see `put`).
            unsafe { drop(Arc::from_raw(raw)) };
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ArcCell").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn get_and_set_exchange_values() {
        let cell = ArcCell::new(Arc::new(vec![1, 2, 3]));
        assert_eq!(*cell.get(), vec![1, 2, 3]);
        let old = cell.set(Arc::new(vec![4]));
        assert_eq!(*old, vec![1, 2, 3]);
        assert_eq!(*cell.get(), vec![4]);
    }

    #[test]
    fn no_reference_is_leaked_or_double_freed() {
        let first = Arc::new(7u64);
        let cell = ArcCell::new(first.clone());
        let second = Arc::new(8u64);
        let got = cell.get();
        let old = cell.set(second.clone());
        drop(cell);
        // `first` is referenced by `first`, `got`, and `old` only.
        drop(got);
        drop(old);
        assert_eq!(Arc::strong_count(&first), 1);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn with_reads_in_place_and_survives_a_panicking_closure() {
        let first = Arc::new(7u64);
        let cell = ArcCell::new(first.clone());
        // In place: the closure sees the value with no clone taken.
        let (value, count) = cell.with(|v| (*v, Arc::strong_count(&first)));
        assert_eq!((value, count), (7, 2));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|v| -> u64 { panic!("closure panics while reading {v}") })
        }));
        assert!(outcome.is_err());
        // The guard put the reference back: readable, nothing leaked or
        // freed (`first` and the cell's own reference only).
        assert_eq!(Arc::strong_count(&first), 2);
        assert_eq!(cell.with(|v| *v), 7);
        assert_eq!(*cell.get(), 7);
        let second = Arc::new(8u64);
        let old = cell.set(second.clone());
        assert!(Arc::ptr_eq(&old, &first));
        drop((cell, old));
        assert_eq!(Arc::strong_count(&first), 1);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn concurrent_readers_and_one_writer_never_tear() {
        // One writer republishes (epoch, 2*epoch) pairs; readers must always
        // observe internally consistent pairs with monotone epochs. Half the
        // readers clone through `get`, half read in place through `with`.
        let cell = Arc::new(ArcCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for reader in 0..4 {
            let cell = cell.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let pair = if reader % 2 == 0 {
                        *cell.get()
                    } else {
                        cell.with(|pair| *pair)
                    };
                    assert_eq!(pair.1, 2 * pair.0, "torn read: {pair:?}");
                    assert!(pair.0 >= last, "epoch went backwards");
                    last = pair.0;
                }
            }));
        }
        for epoch in 1..=10_000u64 {
            cell.set(Arc::new((epoch, 2 * epoch)));
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.get().0, 10_000);
    }
}
