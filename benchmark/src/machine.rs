//! What the numbers ran on, and the process counters read from `/proc`.

use std::path::Path;
use std::process::Command;

use camp_gemm::HostKernel;

use crate::json::Json;

/// Kernel ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat`: `USER_HZ`, which Linux fixes at 100 on every
/// architecture it exposes to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process (all threads) has consumed.
/// `None` where `/proc` is absent.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so utime/stime (14, 15) are 11 and 12
    // counted from there
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// CPU seconds the hypervisor withheld from this machine so far (the
/// `steal` column of `/proc/stat`, all CPUs). `None` where unreported.
pub fn stolen_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let total = stat.lines().next().filter(|l| l.starts_with("cpu "))?;
    let steal: f64 = total.split_ascii_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) to the current RSS,
/// so a workload reports its own peak and not its predecessor's.
pub fn reset_peak_rss() {
    // best effort: without it the peak is merely process-wide
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn cache_size(index: u32) -> Option<(String, String)> {
    let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
    let read =
        |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok().map(|s| s.trim().to_string());
    let (level, kind, size) = (read("level")?, read("type")?, read("size")?);
    let name = match kind.as_str() {
        "Data" => format!("l{level}d"),
        "Instruction" => format!("l{level}i"),
        _ => format!("l{level}"),
    };
    Some((name, size))
}

fn command_line(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of the checkout this package sits in, if it is one. Git
/// is told not to look above the repository root, so a bare source
/// tree inside some other repository reports none.
fn git_commit() -> Option<String> {
    let package = Path::new(env!("CARGO_MANIFEST_DIR"));
    let above_root = package.parent()?.parent()?;
    command_line(
        Command::new("git")
            .arg("-C")
            .arg(package)
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", above_root),
    )
}

/// The `machine` block of a results file: kernel tier and features,
/// core count, cache sizes, compiler and commit.
pub fn describe() -> Json {
    let info = HostKernel::detect().info();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let caches = (0..8).filter_map(cache_size).map(|(k, v)| (k, Json::Str(v)));
    let unknown = || "unknown".to_string();
    Json::obj([
        ("tier", Json::str(info.tier.as_str())),
        ("features", Json::Str(info.features.summary())),
        ("kernel", Json::Str(info.to_string())),
        ("nproc", Json::Num(nproc as f64)),
        ("caches", Json::obj(caches)),
        (
            "rustc",
            Json::Str(command_line(Command::new("rustc").arg("--version")).unwrap_or_else(unknown)),
        ),
        ("git_commit", Json::Str(git_commit().unwrap_or_else(unknown))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let Some(before) = process_cpu_seconds() else { return };
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let after = process_cpu_seconds().expect("readable a moment ago");
        assert!(after > before, "60 ms of spinning must show in utime ({before} -> {after})");
    }

    #[test]
    fn machine_block_names_the_tier_and_cores() {
        let m = describe();
        assert!(matches!(m.get("tier"), Some(Json::Str(t)) if !t.is_empty()));
        assert!(m.get("nproc").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
        assert!(peak_rss_mb().is_none_or(|mb| mb > 0.0));
        assert!(stolen_cpu_seconds().is_none_or(|s| s >= 0.0));
    }
}
