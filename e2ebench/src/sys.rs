//! Facts about the measuring process and its host.

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where the file is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host's available parallelism, recorded in a traced run's results
/// file.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
