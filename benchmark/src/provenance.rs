//! The provenance header every output carries: which code, on which
//! machine, with which settings produced the numbers.

use dcst_serve::protocol::escape;
use std::fs;
use std::path::Path;

#[derive(Clone, Debug)]
pub struct Provenance {
    pub git_rev: String,
    pub cpu_model: String,
    pub nproc: usize,
    pub llc_bytes: u64,
    pub mem_total_bytes: u64,
    pub mem_available_bytes: u64,
    pub simd: String,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let (mem_total_bytes, mem_available_bytes) = meminfo();
        Provenance {
            git_rev: git_rev(Path::new(".")),
            cpu_model: cpu_model(),
            nproc: dcst_bench::max_threads(),
            llc_bytes: llc_bytes(),
            mem_total_bytes,
            mem_available_bytes,
            simd: format!("{:?}", dcst_matrix::simd_level()),
            rustc: env!("DCST_BENCH_RUSTC").to_string(),
        }
    }

    /// JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\":\"{}\",\"cpu_model\":\"{}\",\"nproc\":{},\"llc_bytes\":{},\
             \"mem_total_bytes\":{},\"mem_available_bytes\":{},\"simd\":\"{}\",\"rustc\":\"{}\"}}",
            escape(&self.git_rev),
            escape(&self.cpu_model),
            self.nproc,
            self.llc_bytes,
            self.mem_total_bytes,
            self.mem_available_bytes,
            escape(&self.simd),
            escape(&self.rustc)
        )
    }

    /// One-line human header.
    pub fn header(&self) -> String {
        format!(
            "rev={} cpu=\"{}\" nproc={} llc={:.0}MiB mem={:.1}GiB avail={:.1}GiB simd={} rustc=\"{}\"",
            self.git_rev,
            self.cpu_model,
            self.nproc,
            self.llc_bytes as f64 / (1u64 << 20) as f64,
            self.mem_total_bytes as f64 / (1u64 << 30) as f64,
            self.mem_available_bytes as f64 / (1u64 << 30) as f64,
            self.simd,
            self.rustc
        )
    }
}

/// `HEAD`'s commit read straight from `.git` (no subprocess); "unknown"
/// outside a repository, e.g. in an exported checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of the largest cache sysfs reports for cpu0 (the last level), in
/// bytes; 0 when sysfs has no cache directory.
pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let (digits, mult) = match s.as_bytes().last() {
            Some(b'K') => (&s[..s.len() - 1], 1u64 << 10),
            Some(b'M') => (&s[..s.len() - 1], 1u64 << 20),
            Some(b'G') => (&s[..s.len() - 1], 1u64 << 30),
            _ => (s, 1),
        };
        if let Ok(v) = digits.parse::<u64>() {
            best = best.max(v * mult);
        }
    }
    best
}

/// `(MemTotal, MemAvailable)` in bytes from `/proc/meminfo`; zeros when
/// unreadable.
pub fn meminfo() -> (u64, u64) {
    let Ok(s) = fs::read_to_string("/proc/meminfo") else {
        return (0, 0);
    };
    let field = |key: &str| {
        s.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    };
    (field("MemTotal:"), field("MemAvailable:"))
}
