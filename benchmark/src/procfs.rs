//! Process and system counters read from `/proc`: resident memory, CPU
//! time, thread count, and the system-wide fork counter. All of them read 0
//! where `/proc` is missing, so the benchmark still runs off Linux.

use std::fs;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// reported 100 to user space on every architecture since 2.6; reading the
/// real value needs `sysconf`, which safe std does not offer.
const TICKS_PER_S: f64 = 100.0;

fn status_field(field: &str) -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_field("VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// Live threads of this process right now.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

/// User + system CPU time of this process so far, in milliseconds,
/// finished threads included (10 ms resolution).
pub fn cpu_ms() -> f64 {
    let Ok(text) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: utime and stime are the
    // 12th and 13th of them.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 1000.0 / TICKS_PER_S
}

/// Processes and threads created on the whole machine since boot
/// (`processes` in `/proc/stat`). System-wide, so a delta over a round also
/// counts whatever else the box started meanwhile.
pub fn forks() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("processes "))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_move() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        assert!(rss_mb() > 0.5);
        assert!(threads() >= 1.0);
        let before = forks();
        std::thread::spawn(|| {}).join().unwrap();
        assert!(forks() > before);
        let cpu = cpu_ms();
        assert!((0.0..1e9).contains(&cpu));
    }
}
