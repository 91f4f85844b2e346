//! A counting wrapper around the system allocator, so allocations per bin and
//! peak heap are measured rather than argued from code review.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

/// Heap acquisitions (alloc, zeroed alloc, realloc) since process start.
static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// Highest `LIVE` seen since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

// The counters are statistics that publish no other data, so `Relaxed` is
// enough; with shard or worker threads the peak may lag by one allocation.
fn grew(bytes: usize) {
    ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every call defers to `System` with the caller's own arguments, so
// `System`'s contract is the caller's contract unchanged; the counters are
// atomics touched nowhere else and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let pointer = unsafe { System.alloc(layout) };
        if !pointer.is_null() {
            grew(layout.size());
        }
        pointer
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let pointer = unsafe { System.alloc_zeroed(layout) };
        if !pointer.is_null() {
            grew(layout.size());
        }
        pointer
    }

    unsafe fn realloc(&self, pointer: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: pointer, layout and size are the caller's, passed through.
        let moved = unsafe { System.realloc(pointer, layout, new_size) };
        if !moved.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        moved
    }

    unsafe fn dealloc(&self, pointer: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: pointer and layout are the caller's, passed through.
        unsafe { System.dealloc(pointer, layout) }
    }
}

/// Heap acquisitions so far.
pub fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}

/// Starts a new peak measurement from the bytes live right now.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live-byte count since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}
