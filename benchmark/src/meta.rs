//! Provenance: where and on what a number was measured. Goes into every
//! output file, so two results are compared only at matching `meta`.

use std::fmt::Write as _;
use std::path::Path;

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
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
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree that is not a repository reports `unknown`.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// VmHWM of this process in MB (10^6 bytes); 0 where /proc is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Minor page faults of this process so far. After warm-up a pass should
/// add none (see `alloc::keep_freed_memory`); printed so that it shows
/// when one does.
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; minflt is the 8th.
            let rest = s.rsplit(')').next()?;
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

pub struct Meta {
    pub workload: &'static str,
    pub sizes: String,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub traced: bool,
    pub warmup_passes: usize,
    pub timed_passes: usize,
    pub traced_passes: usize,
    pub setup_reps: usize,
}

impl Meta {
    pub fn json(&self, root: &Path) -> String {
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        format!(
            "{{\"workload\": {}, \"sizes\": {}, \"mode\": {}, \"traced\": {}, \"seed\": {}, \
             \"seconds\": {}, \"warmup_passes\": {}, \"timed_passes\": {}, \"traced_passes\": {}, \
             \"setup_reps\": {}, \"cpu_model\": {}, \"available_parallelism\": {}, \
             \"git_sha\": {}, \"estimator\": \"fastest pass\"}}",
            quote(self.workload),
            quote(&self.sizes),
            quote(if self.smoke { "smoke" } else { "full" }),
            self.traced,
            self.seed,
            self.seconds,
            self.warmup_passes,
            self.timed_passes,
            self.traced_passes,
            self.setup_reps,
            quote(&cpu_model()),
            threads,
            quote(&git_sha(root)),
        )
    }
}
