//! The benchmark binary's global allocator: the system allocator plus
//! a live-byte counter with a resettable high-water mark, for the
//! `peak_heap*_mb` metrics. On request it also feeds the program's
//! arena counters (`mcos_telemetry::mem`), which only move when some
//! binary's allocator reports to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ARENAS: AtomicBool = AtomicBool::new(false);

fn grew(bytes: u64) {
    // ORDERING: Relaxed — statistics; nothing is published through them.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // ORDERING: Relaxed — see above. The plain load keeps the common
    // case (no new peak) free of a contended read-modify-write.
    if live > PEAK.load(Ordering::Relaxed) {
        // ORDERING: Relaxed — see above.
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
    // ORDERING: Relaxed — a mode flag set before the traced solves.
    if ARENAS.load(Ordering::Relaxed) {
        mcos_telemetry::mem::record_alloc(bytes);
    }
}

fn shrank(bytes: u64) {
    // ORDERING: Relaxed — statistic.
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
    // ORDERING: Relaxed — mode flag.
    if ARENAS.load(Ordering::Relaxed) {
        mcos_telemetry::mem::record_dealloc(bytes);
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counters never allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` comes from our caller, valid per the contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size() as u64);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` match an earlier allocation and
        // `new_size` is nonzero, per the contract on our caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size() as u64);
            grew(new_size as u64);
        }
        p
    }
}

/// Starts a peak window: returns the live bytes now, and resets the
/// high-water mark to them.
pub fn window() -> u64 {
    // ORDERING: Relaxed — statistic.
    let live = LIVE.load(Ordering::Relaxed);
    // ORDERING: Relaxed — statistic.
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// High-water mark of live bytes since the last [`window`].
pub fn peak() -> u64 {
    // ORDERING: Relaxed — statistic, read after the measured call.
    PEAK.load(Ordering::Relaxed)
}

/// Starts or stops routing allocations to the program's arena
/// counters. Only the main thread switches it, between solves.
pub fn report_arenas(on: bool) {
    // ORDERING: Relaxed — no solve runs while the flag changes; the
    // spawn and join of its threads order the flag for them.
    ARENAS.store(on, Ordering::Relaxed);
}
