//! Configuration hygiene and the machine fingerprint every result carries.
//!
//! Scorers, the batcher, the shard pool and the client read about
//! twenty-five `KGAG_*` environment variables at construction. The
//! benchmark measures the deployed defaults, so it refuses to run when
//! any of them is set rather than silently measuring something else.

use std::path::Path;

/// The `KGAG_*` variables set in `vars`, sorted.
pub fn kgag_overrides(vars: impl Iterator<Item = (String, String)>) -> Vec<String> {
    let mut set: Vec<String> = vars.map(|(k, _)| k).filter(|k| k.starts_with("KGAG_")).collect();
    set.sort();
    set
}

/// What the result records about the machine and the checkout.
#[derive(Clone, Debug)]
pub struct Machine {
    pub git_sha: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl Machine {
    pub fn probe() -> Machine {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
            .map(|(_, v)| v.trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        Machine {
            git_sha: git_sha(Path::new(".git")).unwrap_or_else(|| "unknown".to_owned()),
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model,
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }
}

/// The commit checked out under `git_dir`, read from its files (the
/// benchmark may run from an export that is not a repository at all).
fn git_sha(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(sha) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(sha.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (sha, name) = l.split_once(' ')?;
        (name == reference).then(|| sha.to_owned())
    })
}

/// Size of CPU 0's unified or data cache at `level`, from sysfs.
fn cache_bytes(level: u32) -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let matches_level = read("level").is_some_and(|l| l.trim() == level.to_string());
        let data = read("type").is_some_and(|t| matches!(t.trim(), "Unified" | "Data"));
        if matches_level && data {
            return read("size").and_then(|s| parse_size(s.trim()));
        }
    }
    None
}

/// Parse a sysfs cache size such as `4096K` or `105M`.
fn parse_size(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Restart the `VmHWM` mark at the current resident size, so that a
/// later [`peak_rss_bytes`] covers only what follows. Best effort:
/// without the kernel interface the mark covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_kgag_variables_count_as_overrides() {
        let vars =
            [("KGAG_THREADS", "4"), ("PATH", "/bin"), ("KGAG_RF_CACHE", "0"), ("XKGAG_", "1")]
                .map(|(k, v)| (k.to_owned(), v.to_owned()));
        assert_eq!(kgag_overrides(vars.into_iter()), ["KGAG_RF_CACHE", "KGAG_THREADS"]);
    }

    #[test]
    fn cache_sizes_parse_with_suffixes() {
        assert_eq!(parse_size("4096K"), Some(4 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
