//! The parallel, memoizing experiment engine.
//!
//! Every figure generator used to re-simulate its own (workload, mode,
//! seed) combinations serially; the scorecard paid for the same
//! deterministic simulations many times over. [`ExperimentEngine`] accepts
//! [`Scenario`] requests, fans cache misses out across a `std::thread`
//! worker pool, and memoizes each distinct scenario (keyed by
//! [`Scenario::content_hash`]) so it is simulated **exactly once per
//! process**.
//!
//! Determinism is the contract: each scenario runs in its own fresh,
//! seed-deterministic `CudaContext`, so neither the worker count nor the
//! completion order can change a result — a parallel run produces
//! bit-identical figure rows to the old serial loops (asserted by
//! `tests/engine_parity.rs` and the tier-2 CI smoke step).
//!
//! ```
//! use hcc_bench::engine::ExperimentEngine;
//! use hcc_bench::figures;
//! use hcc_types::CcMode;
//!
//! let engine = ExperimentEngine::new(2);
//! let scn = figures::scenario("2mm", CcMode::On);
//! let first = engine.run(&scn);
//! let again = engine.run(&scn);
//! assert!(std::sync::Arc::ptr_eq(&first, &again)); // memoized
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use hcc_trace::{Histogram, MetricsSet};
use hcc_types::json::ToJson;
use hcc_types::SimDuration;
use hcc_workloads::{runner, RunError, RunResult, Scenario};

/// Locks a mutex, recovering the guard if a previous holder panicked —
/// the engine's state (a memo cache and counters) is always internally
/// consistent at lock release, so a poisoned guard is still valid.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Environment variable selecting the worker-pool width of the process
/// global engine (`HCC_ENGINE_THREADS=1` forces serial execution).
pub const THREADS_ENV: &str = "HCC_ENGINE_THREADS";

/// Environment variable naming a file that [`emit_stats`] fills with the
/// end-of-run [`EngineStats`] as machine-readable JSON.
pub const STATS_JSON_ENV: &str = "HCC_ENGINE_STATS_JSON";

/// The memoized outcome of one scenario simulation.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Human-readable scenario label.
    pub label: String,
    /// The scenario's content hash — the key this entry is cached under.
    pub hash: u64,
    /// Wall-clock time the simulation took on its worker.
    pub wall: Duration,
    /// The simulation outcome. Errors are memoized too: a deterministic
    /// failure would fail identically on every re-run.
    pub result: Result<RunResult, RunError>,
}

impl ScenarioResult {
    /// The successful run, panicking with the scenario label otherwise.
    pub fn expect_run(&self) -> &RunResult {
        match &self.result {
            Ok(r) => r,
            Err(e) => panic!("scenario {} failed: {e}", self.label),
        }
    }

    /// The successful run, or a structured failure naming the scenario —
    /// what figure generators render as a per-row failure line instead of
    /// aborting the whole report.
    pub fn run(&self) -> Result<&RunResult, ScenarioFailure> {
        match &self.result {
            Ok(r) => Ok(r),
            Err(e) => Err(ScenarioFailure {
                label: self.label.clone(),
                error: e.to_string(),
            }),
        }
    }
}

/// A failed scenario as reports surface it: which row failed, and the
/// rendering of its typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// The failing scenario's label.
    pub label: String,
    /// Rendering of the underlying [`RunError`].
    pub error: String,
}

impl std::fmt::Display for ScenarioFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.error)
    }
}

/// Aggregate engine counters, exposed in the `summary` stats block.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker-pool width.
    pub threads: usize,
    /// Distinct scenarios actually simulated.
    pub scenarios_run: u64,
    /// Requests served from the cache (including duplicates within a
    /// single batch).
    pub cache_hits: u64,
    /// Serial-equivalent simulation time: the sum of every per-scenario
    /// wall time, i.e. what a serial loop would have paid.
    pub sim_wall: Duration,
    /// Wall-clock time spent inside engine batches.
    pub elapsed: Duration,
    /// Per-scenario (label, wall time), in completion-insertion order.
    pub per_scenario: Vec<(String, Duration)>,
    /// Faults injected across all successful runs (from their traces).
    pub faults_injected: u64,
    /// Retry attempts those faults cost.
    pub fault_retries: u64,
    /// Faults the data path recovered from (every injection on a run that
    /// still completed).
    pub recoveries: u64,
    /// Scenarios that ended in an error or a caught panic.
    pub failed_scenarios: u64,
    /// Time spent in the memo-cache lookup section — the latency a
    /// cache hit actually pays before its memoized result comes back.
    pub cache_service: Duration,
    /// Pool idle time: `batch_elapsed x workers - busy` summed over the
    /// parallel batches, i.e. capacity the queue tail left unused.
    pub worker_idle: Duration,
}

impl EngineStats {
    /// Mean worker utilization across batches: busy time over
    /// `elapsed x threads`, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let denom = self.elapsed.as_secs_f64() * self.threads as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (self.sim_wall.as_secs_f64() / denom).min(1.0)
    }

    /// Parallel speedup over the serial-equivalent baseline.
    pub fn speedup(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            return 1.0;
        }
        self.sim_wall.as_secs_f64() / elapsed
    }

    /// Engine wall clock not spent simulating: `elapsed` less the
    /// serial-equivalent sim time spread over the pool. This is what the
    /// engine itself costs — memo keys, cache service, bookkeeping.
    pub fn outside_sim(&self) -> Duration {
        let threads = u32::try_from(self.threads.max(1)).unwrap_or(u32::MAX);
        self.elapsed.saturating_sub(self.sim_wall / threads)
    }

    /// Multi-line stats block for reports. Wall-clock figures, so this is
    /// printed to stderr by the harnesses — stdout stays byte-identical
    /// across thread counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== experiment engine ==\n");
        out.push_str(&format!("worker threads:        {}\n", self.threads));
        out.push_str(&format!("scenarios run:         {}\n", self.scenarios_run));
        out.push_str(&format!("cache hits: {}\n", self.cache_hits));
        out.push_str(&format!(
            "serial-equivalent sim: {:.3} s\n",
            self.sim_wall.as_secs_f64()
        ));
        out.push_str(&format!(
            "engine wall clock:     {:.3} s (x{:.2} vs serial baseline)\n",
            self.elapsed.as_secs_f64(),
            self.speedup()
        ));
        out.push_str(&format!(
            "outside simulation:    {:.3} s (cache service {:.3} s)\n",
            self.outside_sim().as_secs_f64(),
            self.cache_service.as_secs_f64()
        ));
        out.push_str(&format!(
            "worker utilization:    {:.0}%\n",
            self.utilization() * 100.0
        ));
        if !self.worker_idle.is_zero() {
            out.push_str(&format!(
                "worker idle:           {:.3} s\n",
                self.worker_idle.as_secs_f64()
            ));
        }
        if self.faults_injected > 0 {
            out.push_str(&format!(
                "faults injected:       {} ({} retries, {} recovered)\n",
                self.faults_injected, self.fault_retries, self.recoveries
            ));
        }
        if self.failed_scenarios > 0 {
            out.push_str(&format!(
                "failed scenarios:      {}\n",
                self.failed_scenarios
            ));
        }
        let mut slowest: Vec<&(String, Duration)> = self.per_scenario.iter().collect();
        slowest.sort_by_key(|(_, w)| std::cmp::Reverse(*w));
        for (label, wall) in slowest.iter().take(5) {
            out.push_str(&format!(
                "  {:<28} {:>8.1} ms\n",
                label,
                wall.as_secs_f64() * 1e3
            ));
        }
        out
    }

    /// The engine's self-profile through the same registry the simulator
    /// uses: counters for run/hit/fault totals, nanosecond counters for
    /// the wall-clock accounts (serial-equivalent sim time, batch
    /// elapsed, worker idle, cache service), and a log2 histogram of
    /// per-scenario wall times. Wall-clock values live only here — never
    /// on the simulation path — so figure stdout stays deterministic.
    pub fn to_metrics(&self) -> MetricsSet {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut set = MetricsSet::new();
        set.push_counter("engine.threads", self.threads as u64);
        set.push_counter("engine.scenarios_run", self.scenarios_run);
        set.push_counter("engine.cache_hits", self.cache_hits);
        set.push_counter("engine.failed_scenarios", self.failed_scenarios);
        set.push_counter("engine.faults_injected", self.faults_injected);
        set.push_counter("engine.fault_retries", self.fault_retries);
        set.push_counter("engine.recoveries", self.recoveries);
        set.push_counter("engine.sim_wall_ns", ns(self.sim_wall));
        set.push_counter("engine.elapsed_ns", ns(self.elapsed));
        set.push_counter("engine.worker_idle_ns", ns(self.worker_idle));
        set.push_counter("engine.cache_service_ns", ns(self.cache_service));
        let mut wall = Histogram::new();
        for (_, w) in &self.per_scenario {
            wall.record(SimDuration::from_nanos(ns(*w)));
        }
        set.push_hist("engine.scenario_wall", wall);
        set
    }
}

impl ToJson for EngineStats {
    fn to_json(&self) -> hcc_types::json::Json {
        use hcc_types::json::Json;
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let field = |k: &str, v: Json| (k.to_string(), v);
        Json::Obj(vec![
            field("threads", Json::U64(self.threads as u64)),
            field("scenarios_run", Json::U64(self.scenarios_run)),
            field("cache_hits", Json::U64(self.cache_hits)),
            field("failed_scenarios", Json::U64(self.failed_scenarios)),
            field("faults_injected", Json::U64(self.faults_injected)),
            field("fault_retries", Json::U64(self.fault_retries)),
            field("recoveries", Json::U64(self.recoveries)),
            field("sim_wall_ns", Json::U64(ns(self.sim_wall))),
            field("elapsed_ns", Json::U64(ns(self.elapsed))),
            field("worker_idle_ns", Json::U64(ns(self.worker_idle))),
            field("cache_service_ns", Json::U64(ns(self.cache_service))),
            field(
                "per_scenario",
                Json::Arr(
                    self.per_scenario
                        .iter()
                        .map(|(label, w)| {
                            Json::Obj(vec![
                                field("label", Json::Str(label.clone())),
                                field("wall_ns", Json::U64(ns(*w))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fans [`Scenario`] requests out across a worker pool and memoizes every
/// distinct result. Shared by reference (`&self`) — the cache and stats
/// are internally synchronized.
#[derive(Debug)]
pub struct ExperimentEngine {
    threads: usize,
    cache: Mutex<HashMap<u64, Arc<ScenarioResult>>>,
    stats: Mutex<EngineStats>,
}

impl ExperimentEngine {
    /// An engine with the given worker-pool width (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        ExperimentEngine {
            threads,
            cache: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats {
                threads,
                ..EngineStats::default()
            }),
        }
    }

    /// An engine sized from [`THREADS_ENV`], defaulting to the machine's
    /// available parallelism capped at 8 workers.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            });
        ExperimentEngine::new(threads)
    }

    /// Worker-pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs (or recalls) a single scenario.
    pub fn run(&self, scenario: &Scenario) -> Arc<ScenarioResult> {
        self.run_all(std::slice::from_ref(scenario))
            .pop()
            .expect("one request yields one result")
    }

    /// Runs a batch: results come back in request order, each distinct
    /// scenario simulated at most once ever (per engine), misses fanned
    /// out across the worker pool.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<Arc<ScenarioResult>> {
        let batch_start = Instant::now();
        let hashes: Vec<u64> = scenarios.iter().map(Scenario::content_hash).collect();

        // Collect the distinct cache misses, preserving first-seen order so
        // the work queue (and thus the stats listing) is deterministic.
        let lookup_start = Instant::now();
        let mut pending: Vec<(u64, &Scenario)> = Vec::new();
        {
            let cache = relock(&self.cache);
            let mut seen = HashSet::new();
            for (hash, scenario) in hashes.iter().zip(scenarios) {
                if !cache.contains_key(hash) && seen.insert(*hash) {
                    pending.push((*hash, scenario));
                }
            }
        }
        let lookup = lookup_start.elapsed();

        let exec_start = Instant::now();
        let fresh = self.execute(&pending);
        let exec_elapsed = exec_start.elapsed();

        {
            let mut cache = relock(&self.cache);
            for entry in &fresh {
                cache.insert(entry.hash, Arc::clone(entry));
            }
        }
        {
            let mut stats = relock(&self.stats);
            stats.scenarios_run += fresh.len() as u64;
            stats.cache_hits += (scenarios.len() - fresh.len()) as u64;
            stats.elapsed += batch_start.elapsed();
            stats.cache_service += lookup;
            // Idle capacity: the pool's tail latency. Only meaningful
            // when work actually fanned out.
            let workers = self.threads.min(fresh.len());
            if workers > 1 {
                let busy: Duration = fresh.iter().map(|e| e.wall).sum();
                stats.worker_idle += (exec_elapsed * workers as u32).saturating_sub(busy);
            }
            for entry in &fresh {
                stats.sim_wall += entry.wall;
                stats.per_scenario.push((entry.label.clone(), entry.wall));
                match &entry.result {
                    Ok(run) => {
                        let mm = run.timeline.mem_metrics();
                        stats.faults_injected += mm.faults_injected;
                        stats.fault_retries += mm.fault_retries;
                        // The run completed, so every injection on it was
                        // recovered (by retry or degrade).
                        stats.recoveries += mm.faults_injected;
                    }
                    Err(_) => stats.failed_scenarios += 1,
                }
            }
        }

        let cache = relock(&self.cache);
        hashes
            .iter()
            .map(|h| Arc::clone(cache.get(h).expect("all requests resolved")))
            .collect()
    }

    /// Simulates the pending scenarios, on this thread when the batch (or
    /// the pool) is width 1, otherwise across a scoped worker pool pulling
    /// from a shared index queue.
    fn execute(&self, pending: &[(u64, &Scenario)]) -> Vec<Arc<ScenarioResult>> {
        if pending.is_empty() {
            return Vec::new();
        }
        let simulate = |hash: u64, scenario: &Scenario| {
            let started = Instant::now();
            // A panicking scenario must not take down the batch (or
            // poison the pool): catch the unwind and memoize it as a
            // structured failure like any other deterministic error.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runner::run_scenario(scenario)
            }))
            .unwrap_or_else(|payload| {
                let message = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Err(RunError::Panicked { message })
            });
            Arc::new(ScenarioResult {
                label: scenario.label(),
                hash,
                wall: started.elapsed(),
                result,
            })
        };

        let workers = self.threads.min(pending.len());
        if workers <= 1 {
            return pending
                .iter()
                .map(|(hash, scenario)| simulate(*hash, scenario))
                .collect();
        }

        let slots: Vec<Mutex<Option<Arc<ScenarioResult>>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some((hash, scenario)) = pending.get(i) else {
                        break;
                    };
                    let entry = simulate(*hash, scenario);
                    *relock(&slots[i]) = Some(entry);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> EngineStats {
        relock(&self.stats).clone()
    }
}

/// The process-global engine the figure generators share, so e.g. the
/// `summary` bin's Fig. 5 and Fig. 7 passes reuse each other's runs. Sized
/// from [`THREADS_ENV`] on first use.
pub fn global() -> &'static ExperimentEngine {
    static GLOBAL: OnceLock<ExperimentEngine> = OnceLock::new();
    GLOBAL.get_or_init(ExperimentEngine::from_env)
}

/// The single end-of-run stats emission point for harness binaries.
///
/// Renders the global engine's stats block with **one** locked write to
/// stderr — under `HCC_ENGINE_THREADS>1` the old per-bin `eprint!` calls
/// could interleave with worker diagnostics mid-block — and, when
/// [`STATS_JSON_ENV`] names a file, writes the same stats there as JSON.
/// Call it once, after the last engine batch.
pub fn emit_stats() {
    let stats = global().stats();
    let block = format!("\n{}", stats.render());
    let stderr = std::io::stderr();
    let mut lock = stderr.lock();
    let _ = lock.write_all(block.as_bytes());
    let _ = lock.flush();
    drop(lock);
    if let Ok(path) = std::env::var(STATS_JSON_ENV) {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, stats.to_json_string()) {
                eprintln!("cannot write {STATS_JSON_ENV}={path}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_runtime::SimConfig;
    use hcc_types::{ByteSize, CcMode, HostMemKind, SimDuration};
    use hcc_workloads::{Op, Suite, WorkloadSpec};

    fn toy(seed: u64) -> Scenario {
        let spec = WorkloadSpec {
            name: "engine-toy",
            suite: Suite::Micro,
            uvm: false,
            ops: vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(1),
                    kind: HostMemKind::Pageable,
                },
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(1),
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(1),
                },
                Op::Launch {
                    kernel: 0,
                    ket: SimDuration::micros(50),
                    managed: vec![],
                    repeat: 4,
                },
            ],
        };
        Scenario::adhoc(spec, SimConfig::new(CcMode::On).with_seed(seed))
    }

    #[test]
    fn memoizes_identical_scenarios() {
        let engine = ExperimentEngine::new(2);
        let first = engine.run(&toy(1));
        let again = engine.run(&toy(1));
        assert!(Arc::ptr_eq(&first, &again));
        let stats = engine.stats();
        assert_eq!(stats.scenarios_run, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.per_scenario.len(), 1);
    }

    #[test]
    fn batch_dedups_but_preserves_request_order() {
        let engine = ExperimentEngine::new(4);
        let batch = [toy(1), toy(2), toy(1), toy(3), toy(2)];
        let results = engine.run_all(&batch);
        assert_eq!(results.len(), 5);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(Arc::ptr_eq(&results[1], &results[4]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        for (scenario, result) in batch.iter().zip(&results) {
            assert_eq!(scenario.content_hash(), result.hash);
        }
        let stats = engine.stats();
        assert_eq!(stats.scenarios_run, 3);
        assert_eq!(stats.cache_hits, 2);
    }

    #[test]
    fn parallel_results_match_serial_results() {
        let serial = ExperimentEngine::new(1);
        let parallel = ExperimentEngine::new(4);
        let batch: Vec<Scenario> = (0..6).map(toy).collect();
        for (s, p) in serial.run_all(&batch).iter().zip(parallel.run_all(&batch)) {
            let s = s.expect_run();
            let p = p.expect_run();
            assert_eq!(s.timeline, p.timeline);
            assert_eq!(s.end, p.end);
        }
    }

    #[test]
    fn errors_are_memoized_not_retried() {
        let engine = ExperimentEngine::new(2);
        let bad = Scenario::standard("no-such-app", SimConfig::default());
        let first = engine.run(&bad);
        assert!(first.result.is_err());
        let again = engine.run(&bad);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(engine.stats().scenarios_run, 1);
    }

    #[test]
    #[should_panic(expected = "no-such-app")]
    fn expect_run_names_the_failing_scenario() {
        let engine = ExperimentEngine::new(1);
        let _ = engine
            .run(&Scenario::standard("no-such-app", SimConfig::default()))
            .expect_run();
    }

    fn crashing() -> Scenario {
        let spec = WorkloadSpec {
            name: "engine-crash",
            suite: Suite::Micro,
            uvm: false,
            ops: vec![Op::Crash {
                message: "deliberate chaos-op panic",
            }],
        };
        Scenario::adhoc(spec, SimConfig::new(CcMode::Off))
    }

    #[test]
    fn panicking_scenario_is_contained_and_batch_completes() {
        let engine = ExperimentEngine::new(2);
        let batch = [toy(1), crashing(), toy(2)];
        let results = engine.run_all(&batch);
        assert!(results[0].result.is_ok());
        assert!(results[2].result.is_ok());
        match &results[1].result {
            Err(RunError::Panicked { message }) => {
                assert!(message.contains("deliberate chaos-op panic"), "{message}");
            }
            other => panic!("expected contained panic, got {other:?}"),
        }
        let failure = results[1].run().unwrap_err();
        assert!(failure.label.contains("engine-crash"), "{failure}");
        let stats = engine.stats();
        assert_eq!(stats.failed_scenarios, 1);
        assert!(stats.render().contains("failed scenarios:      1"));
        // The engine (and its locks) survive for the next batch.
        assert!(engine.run(&toy(3)).result.is_ok());
    }

    #[test]
    fn fault_counters_aggregate_from_run_traces() {
        use hcc_types::FaultPlan;
        let engine = ExperimentEngine::new(2);
        let spec = WorkloadSpec {
            name: "engine-faulty",
            suite: Suite::Micro,
            uvm: false,
            ops: vec![
                Op::MallocHost {
                    slot: 0,
                    size: ByteSize::mib(2),
                    kind: HostMemKind::Pageable,
                },
                Op::MallocDevice {
                    slot: 0,
                    size: ByteSize::mib(2),
                },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: ByteSize::mib(2),
                },
            ],
        };
        let cfg = SimConfig::new(CcMode::On)
            .with_fault_plan(FaultPlan::uniform(5, 1.0).with_max_per_site(1));
        let result = engine.run(&Scenario::adhoc(spec, cfg));
        assert!(result.result.is_ok());
        let stats = engine.stats();
        assert!(stats.faults_injected > 0);
        assert!(stats.fault_retries > 0);
        assert_eq!(stats.recoveries, stats.faults_injected);
        assert!(stats.render().contains("faults injected:"));
    }

    #[test]
    fn stats_render_mentions_cache_hits() {
        let engine = ExperimentEngine::new(2);
        let _ = engine.run(&toy(1));
        let _ = engine.run(&toy(1));
        let block = engine.stats().render();
        assert!(block.contains("cache hits: 1"));
        assert!(block.contains("worker threads:        2"));
    }

    #[test]
    fn stats_render_names_the_engine_overhead() {
        let stats = EngineStats {
            threads: 2,
            sim_wall: Duration::from_millis(300),
            elapsed: Duration::from_millis(400),
            cache_service: Duration::from_millis(20),
            ..EngineStats::default()
        };
        assert_eq!(stats.outside_sim(), Duration::from_millis(250));
        assert!(stats
            .render()
            .contains("outside simulation:    0.250 s (cache service 0.020 s)\n"));
        // A pool that overlapped more than it waited never goes negative.
        let busy = EngineStats {
            threads: 1,
            sim_wall: Duration::from_millis(500),
            elapsed: Duration::from_millis(400),
            ..EngineStats::default()
        };
        assert_eq!(busy.outside_sim(), Duration::ZERO);
    }

    #[test]
    fn stats_json_round_trips_through_the_parser() {
        use hcc_types::json::Json;
        let engine = ExperimentEngine::new(2);
        let _ = engine.run(&toy(1));
        let _ = engine.run(&toy(1));
        let stats = engine.stats();
        let doc = Json::parse(&stats.to_json_string()).expect("stats JSON parses");
        assert_eq!(doc.get("scenarios_run").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(doc.get("threads").and_then(Json::as_u64), Some(2));
        assert!(doc.get("sim_wall_ns").and_then(Json::as_u64).is_some());
        let Some(Json::Arr(rows)) = doc.get("per_scenario") else {
            panic!("per_scenario missing");
        };
        assert_eq!(rows.len(), 1);
        assert!(rows[0].get("label").is_some() && rows[0].get("wall_ns").is_some());
    }

    #[test]
    fn self_profile_flows_through_the_metrics_registry() {
        let engine = ExperimentEngine::new(2);
        let batch: Vec<Scenario> = (0..4).map(toy).collect();
        let _ = engine.run_all(&batch);
        let set = engine.stats().to_metrics();
        assert_eq!(set.counter_total("engine.scenarios_run"), Some(4));
        assert_eq!(set.counter_total("engine.threads"), Some(2));
        assert!(set.counter_total("engine.sim_wall_ns").unwrap() > 0);
        // Every scenario wall time landed in the histogram.
        let hist = set
            .hists
            .iter()
            .find(|(name, _)| name == "engine.scenario_wall")
            .map(|(_, h)| h)
            .expect("scenario_wall histogram");
        assert_eq!(hist.count(), 4);
    }
}
