//! Process peak-memory sampling for the benchmark harnesses.
//!
//! `BENCH_engine.json` records the peak resident set alongside the
//! population store's analytic byte counts so the scale CI job can hold
//! 1M-host runs to a memory ceiling. The reading is the process's peak
//! resident set (`VmHWM`), not its current one (`VmRSS`): a harness
//! samples it after its runs have freed their buffers, and only the
//! high-water mark still shows what those runs held. Only Linux exposes
//! `VmHWM` in `/proc/self/status`; elsewhere the reading is simply
//! absent (the schema field is optional).

/// The process's peak resident set in bytes so far (`VmHWM`), or `None`
/// when the platform doesn't expose `/proc/self/status`.
///
/// # Examples
///
/// ```
/// if let Some(peak) = hotspots_telemetry::resident_bytes() {
///     assert!(peak > 0);
/// }
/// ```
pub fn resident_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vmhwm(&status)
}

/// Extracts `VmHWM` (reported in kB) from `/proc/self/status` text.
fn parse_vmhwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_status_lines() {
        let status = "Name:\thotspots\nVmPeak:\t  123456 kB\nVmHWM:\t  131072 kB\n\
                      VmRSS:\t   98304 kB\nThreads:\t1\n";
        assert_eq!(parse_vmhwm(status), Some(131_072 * 1024));
        assert_eq!(parse_vmhwm("Name:\thotspots\nVmRSS:\t98304 kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn reads_own_process_on_linux() {
        if cfg!(target_os = "linux") {
            let peak = resident_bytes().expect("linux exposes /proc/self/status");
            assert!(peak > 1024, "peak resident set {peak} implausibly small");
            // the high-water mark still counts a buffer the process has
            // touched and freed
            drop(std::hint::black_box(vec![1u8; 32 << 20]));
            let after = resident_bytes().expect("still readable");
            assert!(
                after >= (32 << 20).max(peak),
                "peak {after} after a 32 MiB buffer"
            );
        }
    }
}
