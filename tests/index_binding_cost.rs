//! Cost pin for index-driven FROM binding: a selective probe must do work
//! in proportion to its candidates, not to the extent.
//!
//! A warmed 1-row `weight = k` probe binds its FROM item from the index's
//! candidate run; the extent is never materialized. A counting global
//! allocator pins this without a clock: the probe makes no more
//! allocations over 16 000 items than over 1 000, apart from a small
//! constant slack. Copying the extent would add one allocation per
//! member (every `Oid::Named` owns its string).

use lyric::{execute_shared, ExecOptions};
use lyric_bench::workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread: the measured query runs serially
    /// on the test thread, so other test threads cannot disturb it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations of the warmed probe at `n` items: the fewest over a few
/// repeats, so a one-off growth of some process-wide buffer (a ring, a
/// registry map) does not count against the query.
fn warm_probe_allocations(n: usize) -> u64 {
    let db = workload::scaling_db(n, 1);
    let q = workload::q_weight_eq(n as i64 / 2);
    let opts = ExecOptions::default()
        .with_threads(1)
        .with_index(true)
        .with_boxes(true)
        .with_cache(true);
    // The first run builds and caches the index.
    execute_shared(&db, &q, &opts).expect("warm-up probe");
    (0..3)
        .map(|_| {
            let before = allocations();
            let res = execute_shared(&db, &q, &opts).expect("probe");
            let used = allocations() - before;
            assert_eq!(res.rows.len(), 1, "n={n}: one item has the weight");
            assert_eq!(res.stats.index_probes, 1, "n={n}: {}", res.stats);
            assert_eq!(res.stats.index_pruned, n as u64 - 1, "n={n}: {}", res.stats);
            used
        })
        .min()
        .expect("three runs")
}

#[test]
fn selective_probe_allocations_do_not_grow_with_the_extent() {
    const SLACK: u64 = 16;
    let small = warm_probe_allocations(1_000);
    let large = warm_probe_allocations(16_000);
    assert!(
        large <= small + SLACK,
        "a 1-row probe allocated {large} times over 16 000 items but {small} times over 1 000"
    );
}
