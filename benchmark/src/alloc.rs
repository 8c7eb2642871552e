//! The counting allocator: the instrument behind every allocation metric.
//! A std-only wrapper over [`System`] that tracks allocation count, bytes
//! requested, live bytes and peak live bytes with relaxed atomics — they
//! are statistics and publish no other data.
//!
//! Counting is **switched**: on the seed, always-on counters added 26 % to
//! `plan_cold`'s request wall (750k allocations a request, five locked
//! read-modify-writes per allocate/free pair). Wall clocks are therefore
//! read with counting off (one relaxed load per call), and allocations are
//! counted in passes of their own. Live bytes are only meaningful as a
//! difference inside one window in which counting stayed on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Signed: a window may free more than it allocated.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

pub struct Counting;

fn grew(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if ON.load(Relaxed) && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if ON.load(Relaxed) && !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    /// A `realloc` counts as one allocation of the new size (it may move).
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if ON.load(Relaxed) && !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

/// Switches counting on or off and returns the previous state.
pub fn counting(on: bool) -> bool {
    ON.swap(on, Relaxed)
}

/// The counters at one instant. `allocs` and `bytes` only grow, so the
/// difference of two snapshots is what happened in between.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    pub live: i64,
    pub peak: i64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size, so the next
/// [`snapshot`]'s `peak` is the high-water mark since this call.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}
