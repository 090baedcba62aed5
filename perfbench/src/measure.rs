//! Sampling helpers: percentiles, CPU time, peak memory, set-up timing.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of unsorted samples (`0 < p ≤ 1`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// User plus system CPU time of the whole process (every thread, live or
/// exited), in milliseconds, from `/proc/self/stat` (10 ms ticks).
pub fn process_cpu_ms() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; the fields after it may not.
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a command field") + 2..]
        .split_whitespace()
        .collect();
    // Fields 14 (utime) and 15 (stime) of proc(5), counted after the name.
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks * 1e3 / TICKS_PER_SECOND
}

fn schedstat_ms(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let ns: f64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e6)
}

/// CPU time of each live thread of the process, in milliseconds by thread
/// id, from `/proc/self/task/*/schedstat` (nanosecond resolution).
pub fn thread_cpu_ms() -> BTreeMap<String, f64> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task is readable")
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let ms = schedstat_ms(&entry.path().join("schedstat"))?;
            Some((entry.file_name().to_string_lossy().into_owned(), ms))
        })
        .collect()
}

/// CPU time of the calling thread, in milliseconds.
pub fn current_thread_cpu_ms() -> f64 {
    schedstat_ms(std::path::Path::new("/proc/thread-self/schedstat"))
        .expect("/proc/thread-self/schedstat is readable")
}

/// CPU time the threads alive at both readings spent between them.
pub fn cpu_between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> f64 {
    after
        .iter()
        .map(|(tid, ms)| ms - before.get(tid).copied().unwrap_or(0.0))
        .sum()
}

/// Resets the process's peak resident set size to its current size
/// (`/proc/self/clear_refs`, value 5), so the next [`peak_rss_mb`] covers
/// only what runs in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("the memory field is reported");
    kib / 1024.0
}

/// How many times each run sets up; the median set-up time is reported.
pub const SETUP_REPEATS: usize = 5;

/// Runs `setup` and returns its result with the time it took, in seconds.
pub fn timed<T>(setup: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = setup();
    (out, start.elapsed().as_secs_f64())
}
