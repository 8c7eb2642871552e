//! The counting allocator's unit test, alone in its own test binary: exact
//! counts need a process in which no other test thread allocates.

#[path = "../src/alloc.rs"]
mod alloc;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

#[test]
fn a_known_vec_is_one_allocation_of_its_capacity() {
    assert!(!alloc::counting(true), "counting starts switched off");
    alloc::reset_peak();
    let before = alloc::snapshot();
    let v: Vec<u64> = Vec::with_capacity(1000);
    let after = alloc::snapshot();
    assert_eq!(after.allocs - before.allocs, 1);
    assert_eq!(after.bytes - before.bytes, 8000);
    assert_eq!(after.live - before.live, 8000);
    assert!(after.peak >= before.live + 8000);
    drop(v);
    assert_eq!(alloc::snapshot().live, before.live);

    // Switched off, nothing is counted.
    assert!(alloc::counting(false));
    let off = alloc::snapshot();
    drop(Vec::<u64>::with_capacity(1000));
    assert_eq!(alloc::snapshot().allocs, off.allocs);
    assert_eq!(alloc::snapshot().live, off.live);
}
