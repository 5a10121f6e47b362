//! A tiny in-repo bench runner — the workspace's zero-dependency
//! replacement for Criterion.
//!
//! Two measurement modes:
//!
//! * **wall-clock** ([`Group::wall`]) — times a closure with
//!   [`std::time::Instant`], auto-scaling the batch size so each sample
//!   lasts long enough to be meaningful;
//! * **virtual time** ([`Group::virtual_time`]) — the closure receives an
//!   iteration count and returns total *simulated* [`SimDuration`], so
//!   `cargo bench` reports the modelled times the paper's figures are
//!   built from (Criterion's `iter_custom` flavour).
//!
//! Benches are plain binaries (`harness = false`); each builds a
//! [`Runner`] from the environment and registers groups:
//!
//! ```no_run
//! use hcc_bench::harness::Runner;
//!
//! let mut r = Runner::from_env();
//! let mut g = r.group("example");
//! g.wall("noop", || {});
//! g.finish();
//! ```
//!
//! `HCC_BENCH_SAMPLES` overrides the per-bench sample count; a
//! non-flag CLI argument filters benches by substring (so
//! `cargo bench -- copy` runs only matching IDs).

use std::time::{Duration, Instant};

use hcc_types::SimDuration;

/// Target duration for one auto-scaled wall-clock sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(5);
/// Iterations handed to a virtual-time closure per sample.
const VIRTUAL_ITERS: u64 = 8;

/// Environment variable overriding the sample count of every bench and
/// of the `hotpaths` gate.
pub const SAMPLES_ENV: &str = "HCC_BENCH_SAMPLES";

/// Largest [`SAMPLES_ENV`] count: a sample buffer of this size is
/// always allocatable.
const MAX_SAMPLES: u64 = 10_000;

/// The sample count [`SAMPLES_ENV`] selects, or `default` when it is
/// unset, unparsable, or zero: every measurement takes at least one
/// sample, and at most [`MAX_SAMPLES`].
pub fn samples_from_env(default: usize) -> usize {
    samples(hcc_types::env_u64(SAMPLES_ENV), default)
}

fn samples(raw: Option<u64>, default: usize) -> usize {
    raw.filter(|&n| n > 0)
        .map_or(default, |n| n.min(MAX_SAMPLES) as usize)
}

/// Top-level bench runner: owns sample count, filter, and summary state.
pub struct Runner {
    samples: usize,
    filter: Option<String>,
    ran: usize,
    skipped: usize,
}

impl Runner {
    /// Builds a runner from `HCC_BENCH_SAMPLES` and CLI args. Flag-style
    /// arguments (`--bench`, passed by `cargo bench`) are ignored; the
    /// first bare argument becomes a substring filter on bench IDs.
    pub fn from_env() -> Self {
        let samples = samples_from_env(15);
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Runner {
            samples,
            filter,
            ran: 0,
            skipped: 0,
        }
    }

    /// Opens a named bench group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        println!("\n## {name}");
        Group {
            runner: self,
            name: name.to_string(),
            samples: None,
            throughput_bytes: None,
        }
    }

    /// Prints the run summary. Call once, after the last group.
    pub fn finish(&self) {
        println!(
            "\nbench summary: {} run, {} filtered out, {} samples each",
            self.ran, self.skipped, self.samples
        );
    }
}

/// A named group of benches sharing sample-count and throughput settings.
pub struct Group<'r> {
    runner: &'r mut Runner,
    name: String,
    samples: Option<usize>,
    throughput_bytes: Option<u64>,
}

impl Group<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some(n.max(1));
        self
    }

    /// Declares bytes processed per iteration; results gain a GB/s column.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.throughput_bytes = Some(bytes);
        self
    }

    fn effective_samples(&self) -> usize {
        self.samples.unwrap_or(self.runner.samples)
    }

    fn wants(&self, id: &str) -> bool {
        let full = format!("{}/{id}", self.name);
        match &self.runner.filter {
            Some(f) => full.contains(f.as_str()),
            None => true,
        }
    }

    /// Wall-clock bench: times `f` directly, auto-scaling the batch so a
    /// sample lasts at least a few milliseconds.
    pub fn wall(&mut self, id: &str, mut f: impl FnMut()) {
        if !self.wants(id) {
            self.runner.skipped += 1;
            return;
        }
        // Find a batch size whose runtime reaches the target.
        let mut batch: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = t0.elapsed();
            if elapsed >= TARGET_SAMPLE || batch >= 1 << 20 {
                break;
            }
            batch = (batch * 2).max(scale_batch(batch, elapsed));
        }
        let samples = self.effective_samples();
        let mut per_iter = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            per_iter.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
        self.report(id, &mut per_iter);
        self.runner.ran += 1;
    }

    /// Virtual-time bench: `f` receives an iteration count and returns the
    /// total *simulated* duration those iterations took.
    pub fn virtual_time(&mut self, id: &str, mut f: impl FnMut(u64) -> SimDuration) {
        if !self.wants(id) {
            self.runner.skipped += 1;
            return;
        }
        let samples = self.effective_samples();
        let mut per_iter = Vec::with_capacity(samples);
        for _ in 0..samples {
            let total = f(VIRTUAL_ITERS);
            per_iter.push(total.as_secs_f64() / VIRTUAL_ITERS as f64);
        }
        self.report(id, &mut per_iter);
        self.runner.ran += 1;
    }

    fn report(&self, id: &str, per_iter: &mut [f64]) {
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        let median = per_iter[per_iter.len() / 2];
        let tput = self
            .throughput_bytes
            .filter(|_| median > 0.0)
            .map(|bytes| format!("  {:8.2} GB/s", bytes as f64 / median / 1e9))
            .unwrap_or_default();
        println!(
            "  {:<28} median {:>12}  (min {:>12}, max {:>12}){tput}",
            id,
            fmt_time(median),
            fmt_time(min),
            fmt_time(max),
        );
    }

    /// Marks the group complete (closes the visual block; kept for parity
    /// with the Criterion API the benches were ported from).
    pub fn finish(&mut self) {}
}

/// Estimates how many iterations reach the target sample time.
fn scale_batch(batch: u64, elapsed: Duration) -> u64 {
    if elapsed.is_zero() {
        return batch * 16;
    }
    let scale = TARGET_SAMPLE.as_secs_f64() / elapsed.as_secs_f64();
    ((batch as f64 * scale).ceil() as u64).clamp(batch + 1, batch * 64)
}

/// Formats seconds with an adaptive unit (ns/µs/ms/s).
pub fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1}ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2}µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.3}ms", secs * 1e3)
    } else {
        format!("{secs:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_counts_keep_the_default_for_zero_and_cap_huge_values() {
        assert_eq!(samples(None, 20), 20);
        assert_eq!(samples(Some(0), 20), 20);
        assert_eq!(samples(Some(3), 20), 3);
        assert_eq!(samples(Some(u64::MAX), 20), 10_000);
    }

    #[test]
    fn fmt_time_picks_units() {
        assert_eq!(fmt_time(5e-9), "5.0ns");
        assert_eq!(fmt_time(2.5e-6), "2.50µs");
        assert_eq!(fmt_time(0.012), "12.000ms");
        assert_eq!(fmt_time(2.0), "2.000s");
    }

    #[test]
    fn virtual_bench_reports_simulated_time() {
        let mut r = Runner {
            samples: 3,
            filter: None,
            ran: 0,
            skipped: 0,
        };
        let mut g = r.group("t");
        let mut calls = 0u64;
        g.virtual_time("v", |iters| {
            calls += 1;
            SimDuration::micros(10) * iters
        });
        g.finish();
        assert_eq!(calls, 3);
        assert_eq!(r.ran, 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut r = Runner {
            samples: 2,
            filter: Some("nope".into()),
            ran: 0,
            skipped: 0,
        };
        let mut g = r.group("grp");
        let mut calls = 0u64;
        g.wall("bench", || calls += 1);
        g.finish();
        assert_eq!(calls, 0);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn batch_scaling_is_bounded() {
        assert!(scale_batch(4, Duration::from_micros(1)) <= 4 * 64);
        assert!(scale_batch(4, Duration::ZERO) == 64);
        assert!(scale_batch(8, Duration::from_millis(4)) > 8);
    }
}
