//! Small shared helpers: order statistics, process memory, the host
//! fingerprint, and scratch-directory handling.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use iot_stats::percentile::percentile;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The tail percentile of a latency sample, refusing samples too small to
/// have at least ten values beyond it.
///
/// # Errors
///
/// Returns a message when fewer than ten samples lie beyond `pct`.
pub fn tail(values: &[f64], pct: f64) -> Result<f64, String> {
    let beyond = values.len() as f64 * (1.0 - pct / 100.0);
    if beyond < 10.0 {
        return Err(format!(
            "p{pct} needs at least ten samples beyond it; {} samples give {beyond:.1}",
            values.len()
        ));
    }
    Ok(percentile(values, pct))
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Reads one `kB` field of `/proc/self/status` (e.g. `VmHWM`, `VmRSS`)
/// in MB; 0 when the field is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            let kb: f64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM")
}

/// Resets this process's peak-RSS counter (`VmHWM`) to its current
/// resident set, so [`peak_rss_mb`] then reads the peak since this call.
/// Without it the peak would depend on how many repetitions a run's time
/// allowed, as the allocator's retained memory grows across them.
pub fn reset_peak_rss() {
    // Best effort: a kernel that refuses leaves the process-wide peak.
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set size of this process in MB.
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS")
}

/// Jiffies the hypervisor stole from this machine and the total, summed
/// over all CPUs (from `/proc/stat`); (0, 0) when unavailable.
pub fn steal_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// The share of the machine's CPU time the hypervisor stole over an
/// interval: a noisy neighbour shows here, not in the program.
pub struct StealClock((u64, u64));

impl StealClock {
    pub fn start() -> Self {
        StealClock(steal_jiffies())
    }

    pub fn share(&self) -> f64 {
        let now = steal_jiffies();
        let total = now.1.saturating_sub(self.0 .1).max(1);
        now.0.saturating_sub(self.0 .0) as f64 / total as f64
    }
}

/// Steal share above the quietest that still counts as quiet, and the
/// share of intervals kept when fewer are that quiet: for repetitions
/// (seconds long; at least half kept, as a run makes only a few), and
/// for open-loop latency windows (at least a quarter of a run's 80–170).
/// A window's steal reads in whole jiffies (10 ms of one CPU, about 5 %
/// of a two-CPU 100 ms window), and one stolen jiffy already lifts a
/// window's tail, so only windows at the quietest count.
pub const REP_QUIET: Quiet = Quiet {
    slack: 0.02,
    min_share: 0.5,
};
pub const WINDOW_QUIET: Quiet = Quiet {
    slack: 0.01,
    min_share: 0.25,
};

/// A rule for keeping the intervals that ran quietly.
pub struct Quiet {
    pub slack: f64,
    pub min_share: f64,
}

/// Indices of the intervals that ran quietly: those within `rule.slack`
/// of the lowest steal share, or, when fewer than `rule.min_share` of them
/// are, that share of the quietest (rounded up). Selecting on this outside
/// signal, never on the measured value, keeps a noisy neighbour out of
/// the medians without biasing them.
pub fn quiet(steal: &[f64], rule: &Quiet) -> Vec<usize> {
    let floor = steal.iter().copied().fold(f64::INFINITY, f64::min);
    let keep = (steal.len() as f64 * rule.min_share).ceil() as usize;
    let quiet: Vec<usize> = (0..steal.len())
        .filter(|&i| steal[i] <= floor + rule.slack)
        .collect();
    if quiet.len() >= keep {
        return quiet;
    }
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    idx.truncate(keep);
    idx.sort_unstable();
    idx
}

/// The host a result was measured on: core count, CPU model, kernel, and
/// the filesystem holding the durable directory. Results are comparable
/// only between equal fingerprints.
pub fn host_fingerprint(durable_dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel", kernel),
        ("durable_fs", filesystem_of(durable_dir)),
    ]
}

/// The filesystem type of the mount holding `path` (via `df -T`), or
/// `"unknown"`.
fn filesystem_of(path: &Path) -> String {
    Command::new("df")
        .arg("-T")
        .arg(path)
        .output()
        .ok()
        .and_then(|out| {
            let text = String::from_utf8_lossy(&out.stdout).into_owned();
            text.lines()
                .nth(1)
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes every dirty page to disk (`sync`), so that the next timed span
/// is not charged for writeback left over from earlier work.
pub fn flush_filesystems() {
    // Best effort: without `sync` the next span may just read slower.
    let _ = Command::new("sync").status();
}

/// A fresh, empty directory at `path` (any previous content removed).
pub fn fresh_dir(path: &Path) -> io::Result<PathBuf> {
    if path.exists() {
        fs::remove_dir_all(path)?;
    }
    fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

/// Recursively copies the directory tree at `from` to `to`.
pub fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Total size in bytes of the regular files directly in `dir` whose name
/// satisfies `keep`.
pub fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() && keep(&entry.file_name().to_string_lossy()) {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// A 64-bit mix of a seed and a stream index (SplitMix64 finaliser), so
/// every derived seed is distinct and reproducible.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_drops_only_noisy_intervals() {
        let q = |s: &[f64]| quiet(s, &REP_QUIET);
        assert_eq!(q(&[0.01, 0.0, 0.02, 0.005]), vec![0, 1, 2, 3]);
        assert_eq!(q(&[0.2, 0.01, 0.3, 0.05, 0.02]), vec![1, 3, 4]);
        assert_eq!(q(&[0.0, 0.1, 0.2, 0.01]), vec![0, 3]);
        assert_eq!(q(&[0.1]), vec![0]);
        let w = |s: &[f64]| quiet(s, &WINDOW_QUIET);
        assert_eq!(
            w(&[0.0, 0.05, 0.0, 0.1, 0.2, 0.0, 0.0, 0.05]),
            vec![0, 2, 5, 6]
        );
        assert_eq!(w(&[0.0, 0.05, 0.1, 0.2]), vec![0]);
        assert_eq!(w(&[0.3, 0.1, 0.2, 0.25, 0.4, 0.5, 0.35, 0.45]), vec![1, 2]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert!(tail(&v, 95.0).is_err());
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert!(tail(&v, 95.0).is_ok());
    }
}
