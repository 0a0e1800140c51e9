//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and the environment header.

use std::process::Command;

use crate::json::Value;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + system, all threads) so far, in nanoseconds.
///
/// `/proc/self/stat` reports the same quantity in 10 ms ticks — too coarse
/// for a 150 ms segment, and coarse enough that separate runs read exactly
/// the same value — so this asks the kernel's nanosecond process clock.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which points at a live, properly aligned `Timespec` of the layout
    // 64-bit Linux uses; it retains nothing after returning.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment header carried by the output and by every results file.
/// Every timing this benchmark reports is wall-clock, hence `"basis":
/// "wall"` — nothing here is a modelled (critical-path) number.
pub fn environment(seed: u64, quick: bool, seconds: f64, traced: bool) -> Value {
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    Value::obj([
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_rev",
            Value::str(command_line(
                "git",
                &["-C", manifest_dir, "rev-parse", "HEAD"],
            )),
        ),
        // A string, so a full 64-bit seed survives the trip through JSON.
        ("seed", Value::str(seed.to_string())),
        ("mode", Value::str(if quick { "quick" } else { "full" })),
        ("seconds", Value::Num(seconds)),
        ("traced", Value::Bool(traced)),
        ("basis", Value::str("wall")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let before = process_cpu_ns();
        let mut x = 0u64;
        while process_cpu_ns() == before {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
    }
}
