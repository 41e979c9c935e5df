//! A counting allocator for `xml.heap_bytes_per_node`. It forwards to the
//! system allocator and, only while [`measure_live_bytes`] is running, keeps
//! a running total of live bytes. Outside that window (every `run`, and all
//! of `trace` but one parse) it costs one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics
// (relaxed atomics that publish no other data) and never influence what is
// returned.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are exactly `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `build` with counting on and return its value together with the heap
/// bytes it left allocated (what the returned value holds on to). Call it
/// while no other thread allocates, or their traffic is counted too.
pub fn measure_live_bytes<T>(build: impl FnOnce() -> T) -> (T, i64) {
    LIVE_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let value = build();
    COUNTING.store(false, Ordering::Relaxed);
    (value, LIVE_BYTES.load(Ordering::Relaxed))
}
