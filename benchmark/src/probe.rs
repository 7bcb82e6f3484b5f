//! Simulator-cost probes for this process.
//!
//! CPU time and the resident-set high-water mark come from `/proc/self`.
//! Involuntary context switches come from `getrusage(RUSAGE_SELF)`: the
//! counters in `/proc/self/status` belong to the main thread only, and the
//! simulator's work runs on per-pod threads that have exited by the time
//! the benchmark reads them.

use std::os::raw::{c_int, c_long};

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux configuration).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, exited threads
/// included.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) as f64 / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` of Linux: two timevals, then fourteen longs of which
/// the last is `ru_nivcsw`.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Involuntary context switches of the whole process, exited threads
/// included.
pub fn invol_ctx_switches() -> u64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` (two `struct timeval` of two `long`s each, then
    // fourteen `long`s), so the kernel writes only inside it; RUSAGE_SELF
    // is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        u64::try_from(usage.longs[13]).unwrap_or(0)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        // A count, possibly zero on an idle host: only check it reads.
        let _ = invol_ctx_switches();
    }
}
