//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! This build environment has no access to a cargo registry, so the subset
//! of the Criterion API this workspace's benches use is re-implemented here:
//! `Criterion` (with `sample_size` / `measurement_time` / `warm_up_time`
//! builders), `bench_function`, `Bencher::iter`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros (both the simple and the
//! `name/config/targets` forms). As in criterion, the first argument that
//! is not a flag filters benchmarks by substring of their id:
//! `cargo bench --bench micro -- crc32` runs `crc32/64k` only.
//!
//! Statistics are intentionally simple: per sample we time a fixed-iteration
//! batch, then report min / median / mean over samples in plain text. There
//! are no HTML reports, no outlier analysis, and no baseline comparisons —
//! figure-level numbers in this repo come from the dedicated `fig*` benches,
//! which run their own measurement loops.

use std::time::{Duration, Instant};

/// Opaque value barrier: prevents the optimizer from deleting the benchmark
/// body. Same contract as `criterion::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark harness entry point (subset of `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Run only benchmarks whose id contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            measurement_time: Duration::from_secs(5),
            warm_up_time: Duration::from_secs(3),
            // The shim's own tests run under the test harness's arguments.
            filter: if cfg!(test) {
                None
            } else {
                std::env::args().skip(1).find(|a| !a.starts_with('-'))
            },
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample size must be at least 2");
        self.sample_size = n;
        self
    }

    pub fn measurement_time(mut self, t: Duration) -> Self {
        self.measurement_time = t;
        self
    }

    pub fn warm_up_time(mut self, t: Duration) -> Self {
        self.warm_up_time = t;
        self
    }

    /// Run one benchmark and print a one-line summary.
    // A bench harness measures host time by definition.
    #[allow(clippy::disallowed_methods)]
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if self
            .filter
            .as_deref()
            .is_some_and(|want| !id.contains(want))
        {
            return self;
        }
        // Warm-up: run the body repeatedly, and calibrate how many
        // iterations fit in one sample slot.
        let warm_deadline = Instant::now() + self.warm_up_time;
        let mut iters_done: u64 = 0;
        let mut warm_elapsed = Duration::ZERO;
        while Instant::now() < warm_deadline {
            let mut b = Bencher::once();
            f(&mut b);
            iters_done += b.iters;
            warm_elapsed += b.elapsed;
        }
        let per_iter = if iters_done == 0 {
            Duration::from_nanos(1)
        } else {
            warm_elapsed / (iters_done.max(1) as u32)
        };
        let slot = self.measurement_time / self.sample_size as u32;
        let iters_per_sample =
            (slot.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1 << 24) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher::batch(iters_per_sample);
            f(&mut b);
            samples_ns.push(b.elapsed.as_nanos() as f64 / b.iters.max(1) as f64);
        }
        samples_ns.sort_by(|a, b| a.total_cmp(b));
        let min = samples_ns[0];
        let median = samples_ns[samples_ns.len() / 2];
        let mean = samples_ns.iter().sum::<f64>() / samples_ns.len() as f64;
        println!(
            "{id:<50} min {:>12}  median {:>12}  mean {:>12}  ({} samples x {} iters)",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean),
            self.sample_size,
            iters_per_sample,
        );
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Times the closure handed to [`Criterion::bench_function`].
pub struct Bencher {
    target_iters: u64,
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn once() -> Self {
        Bencher {
            target_iters: 1,
            iters: 0,
            elapsed: Duration::ZERO,
        }
    }

    fn batch(n: u64) -> Self {
        Bencher {
            target_iters: n,
            iters: 0,
            elapsed: Duration::ZERO,
        }
    }

    /// Time `routine`, running it `target_iters` times back to back.
    #[allow(clippy::disallowed_methods)] // the measurement itself
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.target_iters {
            black_box(routine());
        }
        self.elapsed = start.elapsed();
        self.iters = self.target_iters;
    }
}

/// Declares a group of benchmark functions (both criterion forms).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `fn main()` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_prints() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(15));
        let mut ran = 0u64;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        assert!(ran > 0, "benchmark body never ran");
        c.filter = Some("other".into());
        c.bench_function("shim/self_test", |_| panic!("filtered out"));
    }

    criterion_group!(simple_group, noop_bench);
    criterion_group!(
        name = cfg_group;
        config = Criterion::default()
            .sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2));
        targets = noop_bench
    );

    fn noop_bench(c: &mut Criterion) {
        c.bench_function("shim/noop", |b| b.iter(|| black_box(1 + 1)));
    }

    #[test]
    fn group_macros_compile_and_run() {
        // `simple_group` uses default (slow) config; just check it exists by
        // name without calling it, and run the fast configured one.
        let _: fn() = simple_group;
        cfg_group();
    }
}
