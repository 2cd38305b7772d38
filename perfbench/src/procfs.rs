//! Process-level measurement from `/proc/self`: peak resident set size
//! and CPU time. Both read as 0 where `/proc` is absent.

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100
/// on every mainstream Linux build).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// User plus system CPU time of the whole process, in seconds.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the full line.
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / CLOCK_TICKS_PER_S)
        })
        .unwrap_or(0.0)
}
