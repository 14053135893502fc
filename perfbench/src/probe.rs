//! Readings taken from outside the program under test: process memory
//! and per-thread CPU time from `/proc`, and the host's CPU count.

use std::fs;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time, ns, summed over this process's live threads whose name
/// starts with `prefix` (`/proc/self/task/*/schedstat`, whose first
/// field is the thread's time on CPU in ns).
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let dir = task.path();
        let named = fs::read_to_string(dir.join("comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if !named {
            continue;
        }
        if let Some(ns) = fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        {
            total += ns;
        }
    }
    total
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from, when the checkout tells:
/// `PERFBENCH_COMMIT` if set, else `.git/HEAD` resolved by hand (no
/// `git` process is spawned), else `"unknown"`.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("PERFBENCH_COMMIT") {
        return c;
    }
    let resolve = || -> Option<String> {
        let head = fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
            return Some(id.trim().to_string());
        }
        let packed = fs::read_to_string(".git/packed-refs").ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Fixes glibc's mmap threshold at its default, 128 KiB. Left dynamic,
/// it rises after the first large free, and whether later buffers come
/// from the heap or from fresh mappings then varies from run to run,
/// and with it the peak RSS.
pub fn fix_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes allocator tunables.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 << 10) };
}
