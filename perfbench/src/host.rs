//! Process and host probes: CPU time, peak RSS, and the host/settings record.

use std::process::{Command, Stdio};

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds of this process (all threads, live and exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name: state is field 3, so utime
    // (field 14) and stime (field 15) sit at offsets 11 and 12.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's standard output, or `unknown` if it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, or `unknown` when the working directory is not the
/// root of a git work tree (an exported source tree must not report the commit
/// of some enclosing repository).
pub fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    first_line_of("git", &["rev-parse", "--short=12", "HEAD"])
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"])
}

/// Bodies and passes of the reference's pairwise-force loop.
const REFERENCE_BODIES: usize = 512;
const REFERENCE_PASSES: usize = 160;

/// Wall seconds of a fixed host-speed reference on `threads` threads.
///
/// The reference is this benchmark's own code, so no change to the program
/// moves it: each thread sums softened pairwise forces over a small body set
/// (in-cache floating-point work, like the applications' interaction loops).
/// Dividing a program's time by it cancels the host running faster or slower
/// overall, which on a shared host moves every timing by tens of percent for
/// minutes at a time.  It stays in cache on purpose: a random-access part over
/// a few MiB tracked the load on the host's shared last-level cache, which this
/// program does not feel.
///
/// The result is the harmonic mean of the threads' durations: the time the
/// same total work takes when, as in the program's work-stealing pool, a
/// faster CPU picks up the share of a slower one.
pub fn reference_seconds(threads: usize) -> f64 {
    let durations: Vec<f64> = std::thread::scope(|scope| {
        let running: Vec<_> = (0..threads as u64)
            .map(|seed| {
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    std::hint::black_box(reference_kernel(seed));
                    start.elapsed().as_secs_f64()
                })
            })
            .collect();
        running.into_iter().map(|t| t.join().expect("reference thread panicked")).collect()
    });
    durations.len() as f64 / durations.iter().map(|d| 1.0 / d).sum::<f64>()
}

fn reference_kernel(seed: u64) -> f64 {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next_unit = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let bodies: Vec<[f64; 3]> =
        (0..REFERENCE_BODIES).map(|_| [0, 1, 2].map(|_| next_unit())).collect();
    let mut potential = 0.0;
    for _ in 0..REFERENCE_PASSES {
        for a in &bodies {
            for b in &bodies {
                let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
                potential += 1.0 / (d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + 1e-3).sqrt();
            }
        }
    }
    potential
}
