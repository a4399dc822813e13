//! The two operating-system facilities the benchmark needs beyond
//! `std`: the calling thread's CPU affinity, and the process's CPU
//! time. Linux only, through the C library `std` already links.

use std::time::Duration;

const SET_WORDS: usize = 16; // 1024 CPUs, the kernel's default `cpu_set_t`.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const SC_CLK_TCK: i32 = 2;

/// The CPUs the calling thread may run on, ascending.
pub fn affinity() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread (and the threads it spawns from now
/// on, which inherit the set) to `cpus`.
pub fn pin(cpus: &[usize]) {
    let mut mask = [0u64; SET_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// User plus system CPU time of the whole process, all threads.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` on 64-bit
    // Linux, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Time the hypervisor has taken from each CPU since boot ("steal" in
/// `/proc/stat`), indexed by CPU number; empty where the file cannot
/// be read.
pub fn steal() -> Vec<Duration> {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return Vec::new();
    };
    // SAFETY: `sysconf` only reads a constant of the C library.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let mut out = Vec::new();
    for line in stat.lines() {
        let mut fields = line.split_ascii_whitespace();
        let Some(cpu) = fields.next().and_then(|n| n.strip_prefix("cpu")) else {
            continue;
        };
        let (Ok(cpu), Some(Ok(ticks))) =
            (cpu.parse::<usize>(), fields.nth(7).map(str::parse::<u64>))
        else {
            continue;
        };
        if out.len() <= cpu {
            out.resize(cpu + 1, Duration::ZERO);
        }
        out[cpu] = Duration::from_secs_f64(ticks as f64 / hz);
    }
    out
}
