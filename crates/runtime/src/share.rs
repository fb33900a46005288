//! Shared mutable buffers for task closures.
//!
//! An STF runtime cannot express its aliasing discipline in the borrow
//! checker: which task may mutate which region is decided *dynamically* by
//! the dependency analysis. [`SharedData`] is the small, explicitly-unsafe
//! escape hatch the solver crates use: a reference-counted buffer whose
//! accessors hand out slices of **caller-chosen ranges**, derived from a
//! raw pointer so that references to *disjoint* ranges created by
//! different tasks never alias (the same reasoning as `split_at_mut`).
//!
//! # Safety contract
//!
//! * [`SharedData::range_mut`] requires that, for the lifetime of the
//!   returned slice, no other live reference (shared or mutable) overlaps
//!   the requested range.
//! * [`SharedData::range`] requires that no live *mutable* reference
//!   overlaps the range.
//!
//! In this workspace both are guaranteed by construction: every task
//! declares its accesses (`Read`/`Write`/…/GatherV-with-disjoint-ranges)
//! and the runtime never schedules two tasks with conflicting declared
//! accesses concurrently. Declaring accesses that do not match what the
//! closure touches is a bug in the *submitting* code, exactly as in
//! QUARK, StarPU, or OpenMP `depend` clauses.
//!
//! A debug build checks both at run time, as a debug assertion: every
//! borrow of a buffer bound with [`SharedData::bind_keys`] is validated
//! against the executing task's declared accesses and against the live
//! borrows of every other running task, which is what catches GatherV
//! writers whose ranges overlap. A violation fails the task, so
//! [`Scope::wait`](crate::Scope::wait) returns it as an error. A release
//! build has no tracker field and makes no tracker call.

use std::ops::Range;
use std::sync::Arc;

struct Inner<T> {
    ptr: *mut T,
    len: usize,
    /// The shadow tracker's state (debug builds only); set once by
    /// [`SharedData::bind_keys`], shared by all clones of the handle.
    #[cfg(debug_assertions)]
    tracker: std::sync::OnceLock<std::sync::Arc<crate::check::BufferTracker>>,
}

// SAFETY: access is only possible through `unsafe fn`s whose contract
// (module docs) forbids concurrent conflicting use.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from Box::into_raw of a boxed slice and are
        // only reconstituted once, here.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

/// A shared, runtime-disciplined buffer. Cloning is cheap (Arc bump).
pub struct SharedData<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for SharedData<T> {
    fn clone(&self) -> Self {
        SharedData {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> SharedData<T> {
    /// Wrap a buffer for shared use by tasks.
    pub fn new(data: Vec<T>) -> Self {
        let boxed = data.into_boxed_slice();
        let len = boxed.len();
        let ptr = Box::into_raw(boxed) as *mut T;
        SharedData {
            inner: Arc::new(Inner {
                ptr,
                len,
                #[cfg(debug_assertions)]
                tracker: std::sync::OnceLock::new(),
            }),
        }
    }

    /// Bind this buffer to the [`DataKey`](crate::DataKey)s tasks use when
    /// declaring accesses to it. In a debug build every subsequent task
    /// borrow of this buffer is validated against the executing task's
    /// declared accesses and all concurrently live borrows; a release
    /// build ignores the keys. Binding twice keeps the first key set.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn bind_keys(&self, keys: &[crate::DataKey]) {
        #[cfg(debug_assertions)]
        let _ = self.inner.tracker.set(crate::check::new_tracker(keys));
    }

    /// Number of elements (fixed at construction).
    pub fn len(&self) -> usize {
        self.inner.len
    }

    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// Shared view of `range`.
    ///
    /// # Safety
    /// No live mutable reference may overlap `range` (module contract).
    pub unsafe fn range(&self, range: Range<usize>) -> &[T] {
        assert!(
            range.start <= range.end && range.end <= self.inner.len,
            "SharedData::range {}..{} out of bounds (len {})",
            range.start,
            range.end,
            self.inner.len
        );
        #[cfg(debug_assertions)]
        if let Some(tracker) = self.inner.tracker.get() {
            crate::check::on_borrow(tracker, range.start, range.end, false);
        }
        std::slice::from_raw_parts(self.inner.ptr.add(range.start), range.len())
    }

    /// Exclusive view of `range`.
    ///
    /// # Safety
    /// No other live reference (shared or mutable) may overlap `range`
    /// (module contract). Disjoint ranges may be borrowed mutably by
    /// different tasks simultaneously — that is the GatherV pattern.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.inner.len,
            "SharedData::range_mut {}..{} out of bounds (len {})",
            range.start,
            range.end,
            self.inner.len
        );
        #[cfg(debug_assertions)]
        if let Some(tracker) = self.inner.tracker.get() {
            crate::check::on_borrow(tracker, range.start, range.end, true);
        }
        std::slice::from_raw_parts_mut(self.inner.ptr.add(range.start), range.len())
    }

    /// Shared view of the whole buffer.
    ///
    /// # Safety
    /// As [`SharedData::range`] over `0..len`.
    pub unsafe fn slice(&self) -> &[T] {
        self.range(0..self.inner.len)
    }

    /// Exclusive view of the whole buffer.
    ///
    /// # Safety
    /// As [`SharedData::range_mut`] over `0..len`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self) -> &mut [T] {
        self.range_mut(0..self.inner.len)
    }

    /// Recover the buffer once no other handle exists. Call after
    /// [`Scope::wait`](crate::Scope::wait) has retired every task that
    /// captured a clone.
    pub fn try_unwrap(self) -> Result<Vec<T>, SharedData<T>> {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => {
                // SAFETY: unique ownership; reconstitute the box exactly
                // once and suppress Inner's Drop.
                let inner = std::mem::ManuallyDrop::new(inner);
                let boxed = unsafe {
                    Box::from_raw(std::ptr::slice_from_raw_parts_mut(inner.ptr, inner.len))
                };
                Ok(boxed.into_vec())
            }
            Err(arc) => Err(SharedData { inner: arc }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_shared() {
        let s = SharedData::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        let s2 = s.clone();
        // SAFETY: single-threaded test, no overlapping borrows held.
        unsafe {
            s2.range_mut(1..2)[0] = 20.0;
        }
        drop(s2);
        let v = s.try_unwrap().unwrap_or_else(|_| panic!("unique"));
        assert_eq!(v, vec![1.0, 20.0, 3.0]);
    }

    #[test]
    fn try_unwrap_fails_while_shared() {
        let s = SharedData::new(vec![1u8]);
        let s2 = s.clone();
        let s = s.try_unwrap().unwrap_err();
        drop(s2);
        assert!(s.try_unwrap().is_ok());
    }

    #[test]
    fn empty_buffer() {
        let s = SharedData::new(Vec::<f64>::new());
        assert!(s.is_empty());
        assert!(s.try_unwrap().unwrap_or_else(|_| panic!()).is_empty());
    }

    #[test]
    fn disjoint_writes_from_tasks() {
        use crate::{DataKey, Runtime};
        let rt = Runtime::new(2);
        let scope = rt.scope();
        let buf = SharedData::new(vec![0usize; 100]);
        let k = DataKey::new(0, 0);
        for chunk in 0..10 {
            let buf = buf.clone();
            scope.task("fill").gatherv(k).spawn(move || {
                // SAFETY: each task borrows a distinct 10-element range and
                // the GatherV group is joined before anyone reads.
                let s = unsafe { buf.range_mut(chunk * 10..(chunk + 1) * 10) };
                for (off, x) in s.iter_mut().enumerate() {
                    *x = chunk * 10 + off;
                }
            });
        }
        scope.wait().unwrap();
        let v = buf.try_unwrap().unwrap_or_else(|_| panic!("unique"));
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
