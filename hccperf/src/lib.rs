//! The hcc repository benchmark.
//!
//! One command runs one named workload in its own process, prints every
//! end-to-end metric by name with its unit, and checks the simulated
//! output. Every time is host time: how long the simulator takes to
//! run. End-to-end times are scaled by the machine's measured speed
//! ([`calibrate`]). The simulated (virtual-time) statistics are
//! deterministic per seed, so they serve as the correctness check and
//! never as a metric.
//!
//! Each workload drives the library from outside through its public entry
//! points (`serving::run`, `chaos::run`, `ExperimentEngine::run_all`),
//! with a fresh [`ExperimentEngine`] per pass so no pass inherits another
//! pass's memo cache. A traced run (`trace: true`) instead reports
//! per-layer numbers: it reads each fresh engine's [`EngineStats`] and
//! times the other layers' public entry points on the workload's inputs.
//! See README.md beside this crate for the metric table and the
//! layer → end-to-end map.

pub mod chaos;
pub mod manifest;
pub mod serve;
pub mod spans;
pub mod suite;

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hcc_bench::engine::{EngineStats, ExperimentEngine};
use hcc_types::json::Json;

use manifest::Manifest;
use spans::Spans;

/// The seed whose simulated output each workload compares against its
/// recorded reference digest.
pub const DEFAULT_SEED: u64 = 0;

/// End-to-end metrics (`trace: false`): name, unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("req_cells_per_s", "1/s"),
    ("sim_events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`trace: true`): name, unit.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("engine.requests", "count"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.hit_ratio", "ratio"),
    ("engine.failed", "count"),
    ("engine.elapsed_s", "s"),
    ("engine.sim_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.us_per_request", "us"),
    ("engine.idle_s", "s"),
    ("runner.n", "count"),
    ("runner.us_p50", "us"),
    ("runner.us_p99", "us"),
    ("runner.events", "count"),
    ("runner.ns_per_event", "ns"),
    ("trace.critpath_us", "us"),
    ("trace.phase_us", "us"),
    ("arrival.s", "s"),
    ("arrival.requests", "count"),
    ("cluster.s", "s"),
    ("cluster.ns_per_req", "ns"),
    ("cluster.settled", "count"),
    ("cluster.rejected", "count"),
    ("cluster.cold_starts", "count"),
    ("cluster.planes_s", "s"),
    ("report.s", "s"),
    ("watch.s", "s"),
    ("watch.windows", "count"),
    ("watch.alerts", "count"),
    ("flight.s", "s"),
    ("flight.exemplars", "count"),
    ("storm.s", "s"),
    ("audit.s", "s"),
    ("render.s", "s"),
    ("render.bytes", "bytes"),
    ("pass_s", "s"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
    ("failed_frac", "ratio"),
];

/// Layer times (in seconds, or µs for the `_us` trace metrics) that
/// partition a pass; `unattributed_s` is the traced pass time minus
/// their sum.
const PASS_LAYERS: [&str; 11] = [
    "engine.elapsed_s",
    "trace.critpath_us",
    "trace.phase_us",
    "arrival.s",
    "storm.s",
    "audit.s",
    "cluster.s",
    "report.s",
    "watch.s",
    "flight.s",
    "render.s",
];

/// Engine worker threads each pass uses. One, on every workload: on a
/// 2-vCPU machine a second worker shortened no workload's median pass,
/// and one thread keeps pass times and peak memory steadier.
pub const ENGINE_THREADS: usize = 1;

/// The line a set-up-only process prints once its inputs are built.
pub const READY: &str = "ready";

/// Bytes the machine-speed calibration faults in: far above glibc's
/// mmap threshold in a fresh process, so the allocation maps fresh pages.
const CALIBRATION_BYTES: usize = 16 << 20;

/// [`calibrate`] time in a fast stretch of the machine the first
/// baseline was measured on (2-vCPU Intel Xeon virtual machine).
/// Reported times are scaled to that machine's speed.
pub const CALIBRATION_REF_S: f64 = 0.008;

/// Fewest timed passes (and traced repetitions) a run makes, however
/// short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `serving::run`, default config, every observability plane off.
    ServeCalm,
    /// `chaos::run`, default storms × policies × replicas, watch and
    /// flight planes on.
    ChaosForensics,
    /// The `summary` prefetch population re-seeded over shape seeds,
    /// through `run_all`.
    PaperSuite,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeCalm,
        Workload::ChaosForensics,
        Workload::PaperSuite,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCalm => "serve-calm",
            Workload::ChaosForensics => "chaos-forensics",
            Workload::PaperSuite => "paper-suite",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The reference digest of the workload's simulated output at
    /// [`DEFAULT_SEED`] and [`Size::BENCH`].
    pub fn reference(self) -> u64 {
        match self {
            Workload::ServeCalm => serve::REFERENCE,
            Workload::ChaosForensics => chaos::REFERENCE,
            Workload::PaperSuite => suite::REFERENCE,
        }
    }
}

/// How much work one pass of each workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Requests in the serving trace (each runs 3 schedulers × 2 modes).
    pub serve_requests: u64,
    /// Requests per chaos cell; the soak length scales with it so the
    /// offered load stays at the default config's ~30%.
    pub chaos_requests: u64,
    /// Shape seeds the paper-suite population is re-run under.
    pub suite_seeds: u64,
}

impl Size {
    /// The measured size: the serving and chaos request counts are the
    /// library's `ServingConfig` and `ChaosConfig` defaults.
    pub const BENCH: Size = Size {
        serve_requests: 10_000,
        chaos_requests: 20_000,
        suite_seeds: 20,
    };

    /// A smoke-test size.
    pub const TINY: Size = Size {
        serve_requests: 300,
        chaos_requests: 600,
        suite_seeds: 1,
    };
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Params {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Wall time to spend measuring.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Work per pass.
    pub size: Size,
    /// Digest the simulated output must match, when one is recorded.
    pub reference: Option<u64>,
    /// Directory for the traced run's span side files.
    pub out_dir: Option<PathBuf>,
    /// This benchmark's executable. The untraced run starts it in
    /// set-up-only mode (`--setup-only 1`) to time set-up from process
    /// start.
    pub program: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted over the timed passes (simulations plus
    /// request-cells).
    pub attempted: u64,
    /// Operations that failed unexpectedly (engine failures the workload
    /// does not model).
    pub failed: u64,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Digest of the simulated output (equal for every pass).
    pub digest: u64,
    /// What produced the numbers.
    pub manifest: Manifest,
    /// Human-readable notes (side files, set-up and tracing overhead).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        let field = |k: &str, v: Json| (k.to_string(), v);
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                field(
                    m.name,
                    Json::Obj(vec![
                        field("value", Json::F64(m.value)),
                        field("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            field("correct", Json::Bool(self.correct)),
            field("attempted", Json::U64(self.attempted)),
            field("failed", Json::U64(self.failed)),
            field("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Deterministic per-pass counts, read once from the checked warm-up
/// pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Request-cells settled or rejected (paper-suite: scenario
    /// requests).
    pub cells: u64,
    /// Trace events of the scenarios the pass simulated.
    pub events: u64,
    /// Operations attempted: scenario simulations plus request-cells.
    pub ops: u64,
    /// `failed_frac` numerator: failed simulations plus rejected
    /// request-cells, modelled outcomes included.
    pub modelled_fails: u64,
    /// Engine failures the workload does not model.
    pub unexpected: u64,
}

impl Tally {
    /// Failed operations, modelled outcomes included, over operations.
    pub fn failed_frac(&self) -> f64 {
        self.modelled_fails as f64 / self.ops.max(1) as f64
    }
}

/// Per-layer values from one traced repetition.
pub type Layers = Vec<(&'static str, f64)>;

/// A workload's inputs and the operations the measurement loop needs.
pub trait Bench: Sized {
    /// The simulated output of one pass.
    type Pass;

    /// Builds the workload's inputs from its seed: configs, tenant and
    /// spec tables, scenario populations.
    fn setup(seed: u64, size: Size) -> Self;

    /// Fingerprint of the configuration the inputs came from.
    fn fingerprint(&self) -> u64;

    /// One pass through the library. With a recorder, each stage runs in
    /// a span.
    fn pass(&self, engine: &ExperimentEngine, spans: Option<&mut Spans>) -> Self::Pass;

    /// Digest of the pass's simulated output.
    fn digest(&self, pass: &Self::Pass) -> u64;

    /// Seed-independent invariants; one line per violation.
    fn check(&self, pass: &Self::Pass, stats: &EngineStats) -> Vec<String>;

    /// The pass's deterministic counts. May run more (cached) requests
    /// on `engine`; `stats` was read before.
    fn tally(&self, pass: &Self::Pass, stats: &EngineStats, engine: &ExperimentEngine) -> Tally;

    /// Times this workload's layers on its own inputs, in spans under
    /// the innermost open span of `spans`; `pass_span` is the traced
    /// pass that produced `pass`.
    fn layers(&self, pass: &Self::Pass, spans: &mut Spans, pass_span: usize) -> Layers;
}

/// Runs one benchmark invocation.
pub fn run(p: &Params) -> Outcome {
    match p.workload {
        Workload::ServeCalm => measure::<serve::Serve>(p),
        Workload::ChaosForensics => measure::<chaos::Chaos>(p),
        Workload::PaperSuite => measure::<suite::Suite>(p),
    }
}

/// The set-up a process does before its first pass: builds the
/// workload's inputs from the seed (configs, tenant and spec tables,
/// scenario populations) and the first pass's engine. A set-up-only
/// process runs this and exits.
pub fn set_up(p: &Params) {
    fn go<B: Bench>(p: &Params) {
        std::hint::black_box(prepare::<B>(p));
    }
    match p.workload {
        Workload::ServeCalm => go::<serve::Serve>(p),
        Workload::ChaosForensics => go::<chaos::Chaos>(p),
        Workload::PaperSuite => go::<suite::Suite>(p),
    }
}

fn prepare<B: Bench>(p: &Params) -> (B, ExperimentEngine) {
    let bench = B::setup(p.seed, p.size);
    (bench, ExperimentEngine::new(ENGINE_THREADS))
}

/// What produced a run's numbers. Not part of the timed set-up: the
/// configuration fingerprint is the benchmark's own bookkeeping.
fn manifest_of<B: Bench>(p: &Params, bench: &B) -> Manifest {
    Manifest {
        workload: p.workload.name(),
        seed: p.seed,
        engine_threads: ENGINE_THREADS,
        nproc: manifest::nproc(),
        profile: manifest::profile(),
        commit: manifest::commit(),
        config_fingerprint: bench.fingerprint(),
        traced: p.trace,
    }
}

/// The machine-speed calibration: faults in a fresh zeroed
/// 16 MiB mapping one page at a time and returns the
/// seconds it took. It runs no simulator code. On a shared host the
/// speed of memory-bound code drifts by tens of percent over minutes;
/// this page-fault loop drifts with it, while a pure arithmetic loop
/// does not.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut pages = vec![0u8; CALIBRATION_BYTES];
    for i in (0..pages.len()).step_by(4096) {
        pages[i] = 1;
    }
    std::hint::black_box(&pages);
    drop(pages);
    t.elapsed().as_secs_f64()
}

/// One set-up process's report.
struct Probe {
    /// Process start to [`READY`].
    setup_s: f64,
    /// Its [`calibrate`] time, run after set-up.
    calibration_s: f64,
}

/// Starts `program` in set-up-only mode: times it from process start to
/// its [`READY`] line, then reads the calibration time it prints next.
fn probe(program: &Path, p: &Params) -> Result<Probe, String> {
    let t = Instant::now();
    let seed = p.seed.to_string();
    let mut child = Command::new(program)
        .args(["--workload", p.workload.name(), "--seed", &seed])
        .args(["--seconds", "0", "--trace", "0", "--setup-only", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start set-up process {}: {e}", program.display()))?;
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut ready = String::new();
    let read = stdout.read_line(&mut ready);
    let setup_s = t.elapsed().as_secs_f64();
    let mut calibration = String::new();
    let read = read.and_then(|_| stdout.read_line(&mut calibration));
    let status = child.wait();
    let calibration_s = calibration.trim().parse::<f64>().ok();
    match (read, status, calibration_s) {
        (Ok(_), Ok(status), Some(calibration_s))
            if status.success() && ready.trim_end() == READY && calibration_s > 0.0 =>
        {
            Ok(Probe {
                setup_s,
                calibration_s,
            })
        }
        _ => Err(format!("set-up process {} failed", program.display())),
    }
}

fn measure<B: Bench>(p: &Params) -> Outcome {
    let (bench, engine) = prepare::<B>(p);
    let manifest = manifest_of(p, &bench);

    // Warm-up pass: fills lazy state, fixes the reference digest and the
    // per-pass counts, and runs every check once.
    let mut problems = Vec::new();
    let pass = bench.pass(&engine, None);
    let stats = engine.stats();
    let digest = bench.digest(&pass);
    problems.extend(bench.check(&pass, &stats));
    if let Some(reference) = p.reference {
        if digest != reference {
            problems.push(format!(
                "digest {digest:#018x} differs from the reference {reference:#018x}"
            ));
        }
    }
    let tally = bench.tally(&pass, &stats, &engine);
    drop((pass, engine));

    // Each timed pass must reproduce the warm-up pass exactly. With a
    // recorder the pass runs in a span named `pass`.
    let timed = |spans: Option<&mut Spans>, problems: &mut Vec<String>| {
        let engine = ExperimentEngine::new(ENGINE_THREADS);
        let t = Instant::now();
        let (pass, span) = match spans {
            Some(s) => {
                let (pass, id) = s.time("pass", |s| bench.pass(&engine, Some(s)));
                (pass, Some(id))
            }
            None => (bench.pass(&engine, None), None),
        };
        let secs = t.elapsed().as_secs_f64();
        let stats = engine.stats();
        if bench.digest(&pass) != digest {
            problems.push("a pass's output differs from the first pass's".to_string());
        }
        problems.extend(bench.check(&pass, &stats));
        (pass, stats, secs, span)
    };

    let budget = Duration::from_secs_f64(p.seconds.max(0.0));
    let mut notes = vec![format!("output digest {digest:#018x}")];
    let mut pass_times = Vec::new();
    let (metrics, passes) = if !p.trace {
        // One set-up process follows every timed pass, so set-up, passes
        // and the machine-speed calibration are measured over the same
        // stretch of machine time.
        let mut setup_times = Vec::new();
        let mut calibrations = Vec::new();
        let t0 = Instant::now();
        while pass_times.len() < MIN_PASSES || t0.elapsed() < budget {
            pass_times.push(timed(None, &mut problems).2);
            match probe(&p.program, p) {
                Ok(probe) => {
                    setup_times.push(probe.setup_s);
                    calibrations.push(probe.calibration_s);
                }
                Err(problem) => problems.push(problem),
            }
        }
        // Host times in reference seconds: divided by how much slower
        // the machine ran the calibration than the reference machine.
        let slowdown = median(&calibrations) / CALIBRATION_REF_S;
        let pass_s = median(&pass_times) / slowdown;
        let setup_s = median(&setup_times) / slowdown;
        notes.push(pass_summary(&pass_times));
        notes.push(format!(
            "set-up from process start: median {:.6} s over {} processes",
            median(&setup_times),
            setup_times.len()
        ));
        notes.push(format!(
            "machine speed: calibration median {:.6} s against {CALIBRATION_REF_S} s, \
             so times are divided by {slowdown:.4}; unscaled: {:.6} cells/s, {:.6} events/s",
            median(&calibrations),
            tally.cells as f64 / median(&pass_times),
            tally.events as f64 / median(&pass_times),
        ));
        notes.push(format!(
            "failed_frac {} ratio (modelled rejections included; a per-layer metric)",
            tally.failed_frac()
        ));
        let values = [
            tally.cells as f64 / pass_s,
            tally.events as f64 / pass_s,
            peak_rss_mb(),
            setup_s,
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect();
        (metrics, pass_times.len())
    } else {
        // Untraced passes alternate with traced repetitions, so both
        // medians come from the same stretch of machine time.
        let mut spans = Spans::new();
        let mut reps: Vec<Layers> = Vec::new();
        let mut traced_times = Vec::new();
        let t0 = Instant::now();
        while reps.len() < MIN_PASSES || t0.elapsed() < budget {
            pass_times.push(timed(None, &mut problems).2);
            let mut rep = Layers::new();
            let mut traced = 0.0;
            spans.time("rep", |s| {
                let (pass, stats, secs, span) = timed(Some(s), &mut problems);
                traced = secs;
                rep = engine_layers(&stats, &tally);
                let pass_span = span.expect("a traced pass records its span");
                let (layers, _) = s.time("layers", |s| bench.layers(&pass, s, pass_span));
                rep.extend(layers);
            });
            // What the layer timings leave of this repetition's pass.
            let attributed: f64 = rep
                .iter()
                .filter(|(name, _)| PASS_LAYERS.contains(name))
                .map(|&(name, v)| if name.ends_with("_us") { v * 1e-6 } else { v })
                .sum();
            rep.push(("unattributed_s", traced - attributed));
            traced_times.push(traced);
            reps.push(rep);
        }
        let pass_s = median(&pass_times);
        let overhead = median(&traced_times) - pass_s;
        notes.push(format!(
            "tracing overhead: {overhead:+.6} s (traced pass median {:.6} s, untraced {pass_s:.6} s)",
            median(&traced_times)
        ));
        if let Some(dir) = &p.out_dir {
            notes.extend(write_side_files(dir, p, &spans));
        }
        let value_of = |name: &str| -> f64 {
            let values: Vec<f64> = reps
                .iter()
                .map(|rep| {
                    rep.iter()
                        .filter(|(n, _)| *n == name)
                        .fold(0.0, |acc, (_, v)| acc + v)
                })
                .collect();
            median(&values)
        };
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "pass_s" => pass_s,
                    "tracing_overhead_s" => overhead,
                    "failed_frac" => tally.failed_frac(),
                    _ => value_of(name),
                };
                Metric { name, unit, value }
            })
            .collect();
        (metrics, pass_times.len() + reps.len())
    };

    // A check that fails on every pass reports once.
    problems.sort();
    problems.dedup();
    Outcome {
        correct: problems.is_empty(),
        attempted: tally.ops * passes as u64,
        failed: tally.unexpected * passes as u64,
        metrics,
        problems,
        digest,
        manifest,
        notes,
    }
}

/// The `engine.*` and `runner.*` layers, from one pass's engine stats.
fn engine_layers(stats: &EngineStats, tally: &Tally) -> Layers {
    let requests = stats.scenarios_run + stats.cache_hits;
    let elapsed = stats.elapsed.as_secs_f64();
    let sim = stats.sim_wall.as_secs_f64();
    let mut walls: Vec<f64> = stats
        .per_scenario
        .iter()
        .map(|(_, w)| w.as_secs_f64() * 1e6)
        .collect();
    walls.sort_by(f64::total_cmp);
    vec![
        ("engine.requests", requests as f64),
        ("engine.hits", stats.cache_hits as f64),
        ("engine.misses", stats.scenarios_run as f64),
        (
            "engine.hit_ratio",
            stats.cache_hits as f64 / requests.max(1) as f64,
        ),
        ("engine.failed", stats.failed_scenarios as f64),
        ("engine.elapsed_s", elapsed),
        ("engine.sim_s", sim),
        (
            "engine.overhead_s",
            elapsed - sim / stats.threads.max(1) as f64 - stats.cache_service.as_secs_f64(),
        ),
        (
            "engine.us_per_request",
            elapsed * 1e6 / requests.max(1) as f64,
        ),
        ("engine.idle_s", stats.worker_idle.as_secs_f64()),
        ("runner.n", walls.len() as f64),
        ("runner.us_p50", nearest_rank(&walls, 0.50)),
        ("runner.us_p99", nearest_rank(&walls, 0.99)),
        ("runner.events", tally.events as f64),
        (
            "runner.ns_per_event",
            sim * 1e9 / tally.events.max(1) as f64,
        ),
    ]
}

fn write_side_files(dir: &std::path::Path, p: &Params, spans: &Spans) -> Vec<String> {
    let stem = dir.join(format!("{}-seed{}", p.workload.name(), p.seed));
    let json = stem.with_extension("spans.json");
    let folded = stem.with_extension("folded");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&json, spans.to_json().to_string()))
        .and_then(|()| std::fs::write(&folded, spans.folded()));
    match written {
        Ok(()) => vec![
            format!("spans: {}", json.display()),
            format!("folded stacks: {}", folded.display()),
        ],
        Err(e) => vec![format!(
            "cannot write span files under {}: {e}",
            dir.display()
        )],
    }
}

/// One line describing the spread of the timed passes.
fn pass_summary(times: &[f64]) -> String {
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    format!(
        "passes: {} timed, min {:.6} s, median {:.6} s, max {:.6} s",
        sorted.len(),
        sorted.first().copied().unwrap_or(0.0),
        median(&sorted),
        sorted.last().copied().unwrap_or(0.0)
    )
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of sorted `values`; 0 when empty.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 when
/// `/proc/self/status` cannot be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a digest of a rendered report.
pub fn text_digest(text: &str) -> u64 {
    let mut h = hcc_types::hash::Fnv64::new();
    h.write_str(text);
    h.finish()
}

/// First-seen order of the standard apps a tenant population draws on —
/// the order `serving::run` and `chaos::run` index their shape tables in.
pub fn apps_of(tenants: &[hcc_workloads::TenantSpec]) -> Vec<&'static str> {
    let mut apps: Vec<&'static str> = Vec::new();
    for class in tenants.iter().flat_map(|t| &t.mix) {
        if !apps.contains(&class.app) {
            apps.push(class.app);
        }
    }
    apps
}

/// Runs `f` in a span named `name`, adds the span's seconds to `acc`
/// and returns `f`'s value — shorthand for the layer timers.
pub fn lap<T>(spans: &mut Spans, acc: &mut f64, name: &str, f: impl FnOnce() -> T) -> T {
    let (out, id) = spans.time(name, |_| f());
    *acc += spans.spans()[id].secs();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_ranks() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 2.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 4.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
