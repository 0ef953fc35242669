//! What the benchmark reads from the host: process CPU time and peak
//! resident memory from `/proc`, the load average, the recorded environment,
//! and the per-run temp directory.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 on Linux for every architecture this repo builds on.
const CLOCK_TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds (all threads) from the text of
/// `/proc/<pid>/stat`. The command name may hold spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_ascii_whitespace();
    // After the command: state, ppid, pgrp, session, tty_nr, tpgid, flags,
    // minflt, cminflt, majflt, cmajflt, then utime and stime.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / CLOCK_TICKS_PER_SECOND)
}

/// Peak resident set size in MB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// CPU seconds this process (all threads) has used so far.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("/proc/self/status holds VmHWM on Linux")
}

/// The 1-minute load average.
pub fn load_average() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_ascii_whitespace().next()?.parse().ok()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The environment a run records beside its numbers.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub rustc: String,
    pub commit: String,
    pub load_at_start: Option<f64>,
}

impl Environment {
    /// Captures the environment at the start of a run and warns (never
    /// fails) when the machine is already busier than it has cores.
    pub fn capture() -> Self {
        let env = Environment {
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            load_at_start: load_average(),
        };
        if let Some(load) = env.load_at_start {
            if load > env.nproc as f64 {
                println!(
                    "warning: 1-min load {load:.2} exceeds nproc {}: timings will be noisy",
                    env.nproc
                );
            }
        }
        env
    }
}

/// A directory removed when the guard drops — on a normal return and on a
/// panic that unwinds through the owner.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<executable's directory>/bench-tmp/<tag>-<pid>`. The
    /// executable lives in the build directory, which is inside the checkout
    /// and git-ignored, so the benchmark writes nowhere else.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new(".")).join("bench-tmp");
        let path = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_is_read_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 1500 0 3 0 \
                    1234 66 0 0 20 0 9 0 100 2000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(13.0));
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no command here"), None);
    }

    #[test]
    fn vm_hwm_is_read_from_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_a_peak() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let kept = {
            let dir = TempDir::create("unit-drop").unwrap();
            std::fs::write(dir.path().join("f"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());
        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let dir = TempDir::create("unit-panic").unwrap();
            *seen.lock().unwrap() = Some(dir.path().to_path_buf());
            panic!("unwinds through the guard");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().clone().unwrap();
        assert!(!path.exists());
    }
}
