//! The run record printed beside the metrics: what ran, where, and how
//! fast this machine copies and hashes, so figures from different
//! machines can be put side by side.

use canary_core::fnv1a64;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Machine calibration measured in-process.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Best-of-several `copy_from_slice` throughput over 32 MiB, GB/s.
    pub memcpy_gb_s: f64,
    /// Best-of-several `canary_core::fnv1a64` throughput over 8 MiB, bytes/s.
    pub fnv1a64_bytes_s: f64,
}

/// Measure [`Calibration`] (about 0.1 s).
pub fn calibrate() -> Calibration {
    const COPY: usize = 32 << 20;
    let src: Vec<u8> = (0..COPY).map(|i| (i * 31 % 251) as u8).collect();
    let mut dst = vec![0u8; COPY];
    let mut best = f64::MAX;
    for _ in 0..8 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let memcpy_gb_s = COPY as f64 / best / 1e9;
    let hashed = &src[..8 << 20];
    let mut best = f64::MAX;
    for _ in 0..4 {
        let t = Instant::now();
        black_box(fnv1a64(black_box(hashed)));
        best = best.min(t.elapsed().as_secs_f64());
    }
    Calibration {
        memcpy_gb_s,
        fnv1a64_bytes_s: hashed.len() as f64 / best,
    }
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A numeric field of `/proc/self/status` (units stripped).
fn status_field(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(key))?;
    value.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Threads of this process right now (0 when unknown).
pub fn threads() -> u64 {
    status_field("Threads:").map_or(0, |n| n as u64)
}
