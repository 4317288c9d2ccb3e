//! What the host tells us: where the benchmark may write, memory high-water
//! mark, load, and the facts recorded beside every result.

use std::path::{Path, PathBuf};

/// `benchmark/` of the checkout this binary was built from. Everything the
/// benchmark writes goes under it (`work/` scratch, `results/` reports).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh, empty scratch directory `work/<name>-<pid>`.
pub fn fresh_work_dir(name: &str) -> PathBuf {
    let dir = bench_dir()
        .join("work")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix(key).map(|v| v.trim().to_string()))
}

/// Peak resident set of this process, MB (1e6 bytes), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// 1-minute load average.
pub fn load_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Seconds the hypervisor has kept `cpu` (all CPUs when `None`) from this
/// guest since boot: the steal column of `/proc/stat`, in 10 ms ticks.
pub fn steal_s(cpu: Option<usize>) -> f64 {
    let key = cpu.map_or("cpu ".to_string(), |c| format!("cpu{c} "));
    proc_field("/proc/stat", &key)
        .and_then(|v| v.split_whitespace().nth(7)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Is `path` on a memory-backed file system? (longest mount-point prefix in
/// `/proc/mounts`)
pub fn on_tmpfs(path: &Path) -> bool {
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return false;
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(at).then_some((at.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .is_some_and(|(_, fstype)| fstype == "tmpfs" || fstype == "ramfs")
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Confine the process — and every thread it will spawn, which inherit the
/// mask — to one CPU, and glibc's malloc to one arena; returns the CPU. Call
/// before any thread exists.
///
/// Why: on the 2-vCPU VMs this benchmark runs on, a wake-up that crosses
/// CPUs costs anything from 30 us to milliseconds depending on what the
/// *host* is doing, and the stack hands off between threads several times
/// per operation (`run_parallel` spawns a thread per provider batch; the sim
/// engine hands off at every event). Left to the scheduler, the same build
/// measured 60 and 7 MB/s of appends, and 11 and 184 s for one
/// `sim_datajoin`, minutes apart. On one CPU the client procs interleave at
/// their blocking points and the numbers repeat. Giving each client a CPU of
/// its own was tried too: in eight interleaved pairs of runs it doubled the
/// run-to-run spread of `live_mixed` and `live_read_warm` and did not help
/// `live_append`. What is given up: lock contention under true parallelism.
///
/// glibc's default of eight arenas per core let short-lived worker threads
/// populate a varying number of them, and peak RSS swung 2x between
/// identical runs (36 to 69 MB); with one arena it repeats within 2 %.
fn confine_to_one_cpu() -> Option<usize> {
    // Masks hold 1024 CPUs.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    // The highest allowed CPU: device interrupts tend to land on CPU 0.
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return None;
    }
    #[cfg(target_env = "gnu")]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt only sets an allocator tunable; no thread but this
        // one exists yet.
        unsafe { mallopt(M_ARENA_MAX, 1) };
    }
    Some(cpu)
}

/// Commit of the checkout, read from `.git` inside it; "unknown" in an
/// exported tree.
fn commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Facts recorded with every result, and the verdict on whether the run can
/// be trusted: a persist directory on a disk-backed file system, a busy
/// machine, or a hypervisor that took the CPU away for more than 1 % of the
/// run marks it noisy instead of letting it shift a median.
pub struct Env {
    pub commit: String,
    pub rustc: String,
    pub nproc: usize,
    /// The CPU the run is confined to (see [`confine_to_one_cpu`]).
    pub pinned_cpu: Option<usize>,
    pub persist_tmpfs: bool,
    pub load_1m_at_start: f64,
    steal_s_at_start: f64,
}

impl Env {
    /// Record the environment, then confine the process to one CPU. Call
    /// first thing in a run, before any thread exists.
    pub fn capture() -> Env {
        let work = bench_dir().join("work");
        let _ = std::fs::create_dir_all(&work);
        // Before the process confines itself to one of them.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned_cpu = confine_to_one_cpu();
        Env {
            commit: commit(),
            rustc: rustc_version(),
            nproc,
            pinned_cpu,
            persist_tmpfs: on_tmpfs(&work),
            load_1m_at_start: load_1m(),
            steal_s_at_start: steal_s(pinned_cpu),
        }
    }

    /// Seconds the hypervisor took the run's CPU away since `capture`.
    pub fn stolen_s(&self) -> f64 {
        steal_s(self.pinned_cpu) - self.steal_s_at_start
    }

    /// Call at the end of the run: more than 1 % of it stolen is noisy too.
    pub fn noisy(&self, run_s: f64) -> bool {
        !self.persist_tmpfs || self.load_1m_at_start > 1.0 || self.stolen_s() > 0.01 * run_s
    }
}
