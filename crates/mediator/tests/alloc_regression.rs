//! Allocation regression test of the columnar data plane.
//!
//! Task bodies and the tagger index build columns, not rows: a warm request
//! allocates per *task* and per *document node*, never per relation row. A
//! `Vec<Value>` per row (the pre-columnar loops: 0.93 allocations per row
//! in `execute_graph`, 3.42 per node in `tag_document` on this very run,
//! against 0.14 and 1.59 now) fails the bounds below; `HashMap` seeds and
//! growth jitter do not come near them.
//!
//! The data is Table 1's Small hospital — large enough (well over 20k
//! document nodes for the chosen date) that per-task constants vanish in
//! the ratios. One test only: this binary's allocator counts every thread.

use aig_core::paper::sigma0;
use aig_datagen::{DatasetSize, HospitalConfig};
use aig_mediator::tagging::tag_document;
use aig_mediator::{execute_graph, ExecOptions, Mediator, MediatorOptions};
use aig_relstore::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Allocations (and reallocations) made so far: a statistic, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter never influences what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes (on any thread: nothing else runs meanwhile).
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Relaxed);
    let out = f();
    (out, ALLOCS.load(Relaxed) - before)
}

#[test]
fn a_warm_request_allocates_per_task_and_per_node_not_per_row() {
    let data = HospitalConfig::sized(DatasetSize::Small)
        .generate()
        .unwrap();
    let aig = sigma0().unwrap();
    let mediator = Mediator::new(data.catalog, &MediatorOptions::default()).unwrap();
    let args = [("date", Value::str(&data.dates[0]))];
    // The first request escalates the unfolding to the data's depth and
    // caches the plan; the plan's graph is then run and tagged directly.
    mediator.request(&aig, &args).unwrap();
    let plan = mediator.prepare(&aig).unwrap();
    let options = ExecOptions {
        shipcut: plan.shipcut.clone(),
        ..ExecOptions::default()
    };
    let run = || execute_graph(&plan.aig, mediator.catalog(), &plan.graph, &args, &options);

    // Warm twice; the second is the one measured.
    let warm = run().unwrap();
    tag_document(&plan.aig, &plan.graph, &warm.store).unwrap();
    let (exec, exec_allocs) = counted(run);
    let exec = exec.unwrap();
    let (tree, tag_allocs) = counted(|| tag_document(&plan.aig, &plan.graph, &exec.store));
    let tree = tree.unwrap();

    let rows: f64 = exec.measured.iter().map(|m| m.in_rows + m.out_rows).sum();
    let nodes = tree.len() as f64;
    assert!(nodes >= 20_000.0, "document too small to measure: {nodes}");
    assert!(rows >= 100_000.0, "run too small to measure: {rows} rows");
    let per_row = exec_allocs as f64 / rows;
    let per_node = tag_allocs as f64 / nodes;
    println!("execute_graph {per_row:.3} allocations/row, tag_document {per_node:.3}/node");
    assert!(
        per_row < 0.5,
        "execute_graph: {exec_allocs} allocations for {rows} rows read or produced \
         = {per_row:.2} per row"
    );
    assert!(
        per_node < 3.0,
        "tag_document: {tag_allocs} allocations for {nodes} nodes = {per_node:.2} per node"
    );
}
