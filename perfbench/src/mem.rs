//! Peak resident memory of the serving phase, from the kernel's VmHWM.

/// Returns freed heap to the kernel and restarts the peak-RSS counter, so
/// that memory the input generator used and freed does not count as the
/// server's. Returns `false` where the kernel offers no reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    // "5" resets the VmHWM peak to the current RSS (proc(5), clear_refs).
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The peak resident set since the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free pages at the top of
    // each heap to the kernel; it takes no pointers and has no
    // preconditions.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}
