//! The host a run measured on: ROADMAP's host fingerprint, and the
//! process's peak resident memory.

use crate::metrics::json_string;

/// A `/proc/self/status` field in KiB.
fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The process's peak resident set (VmHWM) so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(-1.0, |kb| kb as f64 / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One JSON object: cores, CPU model, compiler, execution backend and the
/// runner count the fleet resolves to.
pub fn fingerprint(fleet_runners: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"backend\": {}, \"fleet_runners\": {}}}",
        nproc(),
        json_string(&cpu_model()),
        json_string(&rustc_version()),
        json_string(desim::Backend::default_backend().name()),
        fleet_runners
    )
}
