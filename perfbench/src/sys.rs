//! Process measurements: CPU time, memory high-water marks, signals, CPU
//! affinity and the run's provenance (CPU count, git sha).

use std::fs;
use std::path::Path;

mod ffi {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    extern "C" {
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        pub fn kill(pid: i32, sig: i32) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
    /// `cpu_set_t` holds 1024 CPUs.
    pub const CPU_WORDS: usize = 16;
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const SIGTERM: i32 = 15;
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU time of this whole process, threads that already exited included,
/// in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = ffi::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux supports.
    let rc = unsafe { ffi::clock_gettime(ffi::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of another process's live threads, in nanoseconds: the sum of
/// the first field of each `/proc/<pid>/task/*/schedstat`.
pub fn task_cpu_ns(pid: u32) -> Option<u64> {
    let mut total = 0u64;
    for entry in fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let path = entry.ok()?.path().join("schedstat");
        if let Ok(text) = fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// `VmHWM` (peak resident set) of a process, in kB.
pub fn vm_hwm_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; ffi::CPU_WORDS];
    // SAFETY: `mask` is a writable cpu_set_t-sized buffer for the call.
    let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..ffi::CPU_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to `cpus`. Returns whether the kernel accepted the mask.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; ffi::CPU_WORDS];
    for &cpu in cpus.iter().filter(|&&c| c < ffi::CPU_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable cpu_set_t-sized buffer for the call.
    unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Returns the heap memory the allocator keeps but no longer uses to the
/// kernel, then resets this process's `VmHWM` to its current RSS, so the
/// next reading covers only what follows from a comparable start.
/// Returns whether the kernel accepted the reset.
pub fn reset_hwm() -> bool {
    // SAFETY: malloc_trim only walks the allocator's own free lists.
    unsafe {
        ffi::malloc_trim(0);
    }
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Asks a process to drain and exit.
pub fn sigterm(pid: u32) {
    // SAFETY: kill(2) takes plain integers; a stale pid only yields ESRCH.
    unsafe {
        ffi::kill(pid as i32, ffi::SIGTERM);
    }
}

/// The commit the checkout was made from, read from `.git` without
/// running git; `unknown` outside a git checkout.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let sha = fs::read_to_string(git.join("HEAD")).ok().and_then(|head| {
        match head.trim().strip_prefix("ref: ") {
            None => Some(head.trim().to_owned()),
            Some(reference) => fs::read_to_string(git.join(reference))
                .ok()
                .map(|s| s.trim().to_owned())
                .or_else(|| {
                    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_owned)
                }),
        }
    });
    sha.unwrap_or_else(|| "unknown".to_owned())
}
