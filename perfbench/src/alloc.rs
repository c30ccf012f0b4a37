//! A counting `#[global_allocator]`: forwards to the system allocator and,
//! while the traced rep has it switched on, counts calls and bytes. The
//! end-to-end reps run with it off, where it costs one relaxed load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// Statistics only: none of these publishes other data, so `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator `main.rs` installs.
pub struct CountingAlloc;

fn note(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory
// being handed out, and `note` does not allocate.
// edvit:allow(unsafe-outside-kernels)
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) } // edvit:allow(unsafe-outside-kernels)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) } // edvit:allow(unsafe-outside-kernels)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) } // edvit:allow(unsafe-outside-kernels)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) } // edvit:allow(unsafe-outside-kernels)
    }
}

/// Zeroes the counters and starts counting.
pub fn start() {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns `(allocations, bytes requested)` since
/// [`start`].
pub fn stop() -> (u64, u64) {
    ENABLED.store(false, Ordering::Relaxed);
    (COUNT.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_between_start_and_stop() {
        // The test binary installs the allocator too (see `main.rs`), and
        // other test threads allocate concurrently, so only bounds hold: a
        // 1 MiB block is far more than their small allocations add up to.
        const BLOCK: usize = 1 << 20;
        start();
        let counted: Vec<u8> = Vec::with_capacity(BLOCK);
        std::hint::black_box(&counted);
        let (count, bytes) = stop();
        assert!(count >= 1);
        assert!(bytes >= BLOCK as u64, "the block was counted");
        let uncounted: Vec<u8> = Vec::with_capacity(BLOCK);
        std::hint::black_box(&uncounted);
        let (_, after) = stop();
        assert!(after - bytes < BLOCK as u64, "switched off, it was not");
    }
}
