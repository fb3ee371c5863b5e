//! Host fingerprint and process metrics, read from `/proc/self` with the
//! standard library only.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times: the kernel's
/// `USER_HZ`, fixed at 100 in the Linux user-space ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process (every thread).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields[11].parse::<f64>().expect("utime is numeric")
        + fields[12].parse::<f64>().expect("stime is numeric");
    ticks / USER_HZ
}

/// Peak resident memory (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status reports VmHWM");
    kb / 1024.0
}

/// One line naming the host and build the numbers come from.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={profile}",
        env!("PERFBENCH_RUSTC")
    )
}
