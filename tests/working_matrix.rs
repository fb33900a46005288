//! A solver keeps its n×n working matrix V between vector solves: a
//! repeated solve allocates only its result, and a reused V — not zero, and
//! in a debug build full of NaN — gives the bits a fresh one does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dcst::prelude::*;

/// The system allocator, counting on each thread the allocations of at
/// least that thread's threshold.
struct Counting;

thread_local! {
    /// `(threshold, count)`; `usize::MAX` counts nothing.
    static LARGE: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = LARGE.try_with(|large| {
        let (min, count) = large.get();
        if size >= min {
            large.set((min, count + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to `System`; `note` only
// touches a `Cell` of plain integers and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How many allocations of at least `min` bytes `f` makes on this thread.
fn large_allocations<R>(min: usize, f: impl FnOnce() -> R) -> (R, usize) {
    LARGE.with(|large| large.set((min, 0)));
    let out = f();
    let (_, count) = LARGE.with(|large| large.replace((usize::MAX, 0)));
    (out, count)
}

fn opts(mode: SolveMode) -> DcOptions {
    DcOptions {
        threads: 2,
        mode,
        ..DcOptions::default()
    }
}

/// The four drivers, all over one solver type's V slot.
fn solver(discipline: &str, o: DcOptions) -> Box<dyn TridiagEigensolver> {
    match discipline {
        "taskflow" => Box::new(TaskFlowDc::new(o)),
        "sequential" => Box::new(SequentialDc::new(o)),
        "forkjoin" => Box::new(ForkJoinDc::new(o)),
        "levelparallel" => Box::new(LevelParallelDc::new(o)),
        other => unreachable!("{other}"),
    }
}

const DISCIPLINES: [&str; 4] = ["taskflow", "sequential", "forkjoin", "levelparallel"];

#[test]
fn a_repeated_solve_allocates_only_its_result() {
    // Both V and the workspace the result is sorted into are n×n: the
    // first solve allocates both, every later one only the result.
    let n = 600;
    let t = MatrixType::Type2.generate(n, 3);
    for discipline in ["taskflow", "sequential"] {
        let solver = solver(discipline, opts(SolveMode::Full));
        let (first, count) = large_allocations(n * n * 8, || solver.solve(&t).unwrap());
        assert_eq!(
            count, 2,
            "{discipline}: the first solve allocates V and the result"
        );
        let (second, count) = large_allocations(n * n * 8, || solver.solve(&t).unwrap());
        assert_eq!(count, 1, "{discipline}: the second solve reuses V");
        assert_eq!(first.vectors.as_slice(), second.vectors.as_slice());
    }
}

#[test]
fn a_reused_solver_gives_a_fresh_solvers_bits() {
    // One solver per discipline and mode solves every Table III type in
    // turn, so each solve after the first runs on the V the one before left
    // (in a debug build, filled with NaN first). The disciplines give the
    // same bits, so one fresh solver's stand for all four.
    let n = 300;
    let bits = |e: &Eigen| -> Vec<u64> {
        let all = e.values.iter().chain(e.vectors.as_slice());
        all.map(|x| x.to_bits()).collect()
    };
    for mode in [
        SolveMode::Full,
        SolveMode::Subset {
            il: n / 4,
            iu: n / 2,
        },
    ] {
        let reused = DISCIPLINES.map(|discipline| solver(discipline, opts(mode)));
        for ty in MatrixType::ALL {
            let t = ty.generate(n, 3);
            let fresh = bits(&TaskFlowDc::new(opts(mode)).solve(&t).unwrap());
            for (discipline, solver) in DISCIPLINES.iter().zip(&reused) {
                let again = solver.solve(&t).unwrap();
                assert!(fresh == bits(&again), "{discipline} {mode:?} {ty:?}");
            }
        }
    }
}
