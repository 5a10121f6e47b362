//! Data generators for every figure in the paper's evaluation. Each
//! submodule computes the rows/series a figure plots; the `src/bin/*`
//! harnesses print them and the integration tests assert their shape.
//!
//! Every simulation-backed module expresses its runs as [`Scenario`]
//! requests built through the one construction path below ([`scenario`],
//! [`uvm_scenario`], [`adhoc_scenario`]) and executes them through the
//! shared [`crate::engine`], so overlapping figure populations (e.g.
//! Fig. 5 and Fig. 7) pay for each distinct simulation once per process.
//! Modules that need several runs also export a `scenarios()` helper so
//! harnesses can prefetch the whole population in one parallel batch.

use hcc_runtime::SimConfig;
use hcc_types::{CcMode, FaultPlan};
use hcc_workloads::{Scenario, WorkloadSpec};

use crate::engine::ScenarioFailure;

/// Environment variable carrying a [`FaultPlan`] spec (e.g.
/// `seed=7,gcm=0.35,bounce=0.3`) that every figure config picks up —
/// the fault-sweep knob of EXPERIMENTS.md.
pub const FAULT_PLAN_ENV: &str = "HCC_FAULT_PLAN";

/// Environment variable switching the virtual-time metrics plane on for
/// every figure config (`HCC_METRICS=1`). Metrics only observe — figure
/// stdout is byte-identical either way (tier-2 asserts this) — but
/// obs-enabled runs additionally carry queue/occupancy snapshots that
/// `obs_report` and the Perfetto export surface.
pub const METRICS_ENV: &str = "HCC_METRICS";

/// Environment variable switching causal-edge collection on for every
/// figure config (`HCC_CAUSAL=1`). Like metrics, causal collection only
/// observes — figure stdout is byte-identical either way — but enabled
/// runs additionally carry the typed dependency DAG that `explain` and
/// the Perfetto flow arrows consume.
pub const CAUSAL_ENV: &str = "HCC_CAUSAL";

/// A figure computation plus the scenarios that failed to contribute.
/// Figure tables render `data` and surface `failures` as per-row lines
/// instead of aborting the whole report.
#[derive(Debug, Clone)]
pub struct Computed<T> {
    /// The successfully computed payload (failed rows omitted).
    pub data: T,
    /// One entry per scenario that could not produce its row.
    pub failures: Vec<ScenarioFailure>,
}

impl<T> Computed<T> {
    /// `true` when every scenario produced its row.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The fault plan selected by [`FAULT_PLAN_ENV`], parsed once per
/// process. `None` when unset; a malformed spec is reported on stderr
/// and ignored.
fn fault_plan_from_env() -> Option<FaultPlan> {
    static PLAN: std::sync::OnceLock<Option<FaultPlan>> = std::sync::OnceLock::new();
    PLAN.get_or_init(|| {
        let spec = std::env::var(FAULT_PLAN_ENV).ok()?;
        match FaultPlan::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(e) => {
                eprintln!("ignoring {FAULT_PLAN_ENV}: {e}");
                None
            }
        }
    })
    .clone()
}

/// Whether [`METRICS_ENV`] enables the metrics plane, read once per
/// process. Any non-empty value other than `0` counts as on.
fn metrics_from_env() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var(METRICS_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether [`CAUSAL_ENV`] enables causal-edge collection, read once per
/// process. Any non-empty value other than `0` counts as on.
fn causal_from_env() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var(CAUSAL_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Fresh config for a mode with the standard experiment seed (and the
/// process-wide fault plan / metrics / causal switches, when
/// [`FAULT_PLAN_ENV`], [`METRICS_ENV`], or [`CAUSAL_ENV`] select them).
pub fn cfg(cc: CcMode) -> SimConfig {
    let cfg = SimConfig::new(cc)
        .with_seed(0xFA11_2025)
        .with_metrics(metrics_from_env())
        .with_causal(causal_from_env());
    match fault_plan_from_env() {
        Some(plan) => cfg.with_fault_plan(plan),
        None => cfg,
    }
}

/// A standard suite app under the standard experiment seed — the single
/// construction path for by-name figure runs.
pub fn scenario(app: &'static str, cc: CcMode) -> Scenario {
    Scenario::standard(app, cfg(cc))
}

/// The managed-memory variant of a standard app, same seed policy.
pub fn uvm_scenario(app: &'static str, cc: CcMode) -> Scenario {
    Scenario::uvm_variant(app, cfg(cc))
}

/// An inline microbenchmark program, same seed policy.
pub fn adhoc_scenario(spec: WorkloadSpec, cc: CcMode) -> Scenario {
    Scenario::adhoc(spec, cfg(cc))
}

/// Fig. 1 / overview: end-to-end phase breakdown of a representative app
/// under base, CC, and CC+UVM.
pub mod fig01 {
    use hcc_core::PhaseBreakdown;
    use hcc_types::CcMode;
    use hcc_workloads::Scenario;

    /// One row of the overview figure.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Scenario label.
        pub label: &'static str,
        /// The phase breakdown.
        pub breakdown: PhaseBreakdown,
    }

    const LABELS: [&str; 3] = ["CC-off", "CC-on", "CC-on + UVM"];

    /// The three overview scenarios on a gemm-class app.
    pub fn scenarios() -> Vec<Scenario> {
        vec![
            super::scenario("gemm", CcMode::Off),
            super::scenario("gemm", CcMode::On),
            super::uvm_scenario("gemm", CcMode::On),
        ]
    }

    /// Computes the three scenarios, collecting failures per row.
    pub fn try_rows() -> super::Computed<Vec<Row>> {
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for (label, res) in LABELS.iter().zip(results) {
            match res.run() {
                Ok(r) => data.push(Row {
                    label,
                    breakdown: PhaseBreakdown::from_timeline(&r.timeline),
                }),
                Err(f) => failures.push(f),
            }
        }
        super::Computed { data, failures }
    }
}

/// Fig. 3: performance-model validation — fitted α/β and prediction
/// error per app and mode.
pub mod fig03 {
    use hcc_core::PerfModel;
    use hcc_types::CcMode;
    use hcc_workloads::{suites, Scenario};

    /// One validation row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Mode.
        pub cc: CcMode,
        /// Fitted α.
        pub alpha: f64,
        /// Fitted β.
        pub beta: f64,
        /// Relative prediction error.
        pub error: f64,
    }

    /// Every standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for spec in suites::all() {
            for cc in CcMode::ALL {
                out.push(super::scenario(spec.name, cc));
            }
        }
        out
    }

    /// Fits the model per app/mode, collecting failures per row.
    pub fn try_rows() -> super::Computed<Vec<Row>> {
        let mut keys = Vec::new();
        for spec in suites::all() {
            for cc in CcMode::ALL {
                keys.push((spec.name, cc));
            }
        }
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for ((app, cc), res) in keys.into_iter().zip(results) {
            match res.run() {
                Ok(r) => {
                    let fitted = PerfModel::fit(&r.timeline);
                    data.push(Row {
                        app,
                        cc,
                        alpha: fitted.model.alpha,
                        beta: fitted.model.beta,
                        error: fitted.error(),
                    });
                }
                Err(f) => failures.push(f),
            }
        }
        super::Computed { data, failures }
    }
}

/// Fig. 4a: PCIe transfer bandwidth vs size, pageable/pinned × base/cc.
pub mod fig04a {
    use hcc_trace::EventKind;
    use hcc_types::{Bandwidth, ByteSize, CcMode, HostMemKind, SimDuration};
    use hcc_workloads::{Op, Scenario, Suite, WorkloadSpec};

    /// One bandwidth sample.
    #[derive(Debug, Clone, Copy)]
    pub struct Point {
        /// Transfer size.
        pub size: ByteSize,
        /// Host memory kind.
        pub mem: HostMemKind,
        /// Mode.
        pub cc: CcMode,
        /// Achieved bandwidth, GB/s.
        pub gbs: f64,
    }

    /// Transfer sizes: 64 B to 1 GiB in powers of 4.
    pub fn sizes() -> Vec<ByteSize> {
        (0..13).map(|i| ByteSize::bytes(64u64 << (2 * i))).collect()
    }

    fn sweep() -> Vec<(CcMode, HostMemKind, ByteSize)> {
        let mut out = Vec::new();
        for cc in CcMode::ALL {
            for mem in HostMemKind::ALL {
                for size in sizes() {
                    out.push((cc, mem, size));
                }
            }
        }
        out
    }

    fn point_spec(size: ByteSize, mem: HostMemKind) -> WorkloadSpec {
        WorkloadSpec {
            name: "fig04a-h2d",
            suite: Suite::Micro,
            uvm: false,
            ops: vec![
                Op::MallocHost {
                    slot: 0,
                    size,
                    kind: mem,
                },
                Op::MallocDevice { slot: 0, size },
                Op::H2D {
                    dst: 0,
                    src: 0,
                    bytes: size,
                },
            ],
        }
    }

    /// One single-copy scenario per sweep point.
    pub fn scenarios() -> Vec<Scenario> {
        sweep()
            .into_iter()
            .map(|(cc, mem, size)| super::adhoc_scenario(point_spec(size, mem), cc))
            .collect()
    }

    /// Measures H2D bandwidth across the sweep, collecting failures per
    /// point.
    pub fn try_series() -> super::Computed<Vec<Point>> {
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for ((cc, mem, size), res) in sweep().into_iter().zip(results) {
            match res.run() {
                Ok(r) => {
                    let copy: SimDuration = r
                        .timeline
                        .events()
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::Memcpy { .. }))
                        .map(|e| e.duration())
                        .sum();
                    let gbs = Bandwidth::observed(size, copy)
                        .map(|b| b.as_gb_per_s())
                        .unwrap_or(0.0);
                    data.push(Point { size, mem, cc, gbs });
                }
                Err(f) => failures.push(f),
            }
        }
        super::Computed { data, failures }
    }

    /// Peak bandwidth for a (mode, kind) pair from a measured series.
    pub fn peak(points: &[Point], cc: CcMode, mem: HostMemKind) -> f64 {
        points
            .iter()
            .filter(|p| p.cc == cc && p.mem == mem)
            .map(|p| p.gbs)
            .fold(0.0, f64::max)
    }
}

/// Fig. 4b: single-core crypto throughput (modeled + functional).
pub mod fig04b {
    use hcc_crypto::{measure_functional, CryptoAlgorithm, SoftCryptoModel};
    use hcc_types::CpuModel;

    /// One throughput entry.
    #[derive(Debug, Clone, Copy)]
    pub struct Entry {
        /// CPU measured.
        pub cpu: CpuModel,
        /// Algorithm.
        pub alg: CryptoAlgorithm,
        /// Calibrated single-core rate, GB/s (the figure's series).
        pub modeled_gbs: f64,
        /// Wall-clock rate of this repo's functional implementation,
        /// GB/s (`None` for the non-host CPU).
        pub functional_gbs: Option<f64>,
    }

    /// Computes the modeled table, with functional measurements for the
    /// host CPU when `functional` is set.
    pub fn entries(functional: bool) -> Vec<Entry> {
        let mut out = Vec::new();
        for cpu in CpuModel::ALL {
            let model = SoftCryptoModel::new(cpu);
            for alg in CryptoAlgorithm::ALL {
                let functional_gbs = if functional && cpu == CpuModel::EmeraldRapids {
                    measure_functional(alg, 256 * 1024, 4).map(|b| b.as_gb_per_s())
                } else {
                    None
                };
                out.push(Entry {
                    cpu,
                    alg,
                    modeled_gbs: model.throughput(alg).as_gb_per_s(),
                    functional_gbs,
                });
            }
        }
        out
    }
}

/// Fig. 5: per-app copy time, base vs CC, by direction.
pub mod fig05 {
    use hcc_trace::MemMetrics;
    use hcc_types::CcMode;
    use hcc_workloads::{suites, Scenario};

    /// One app's copy-time row.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Base-mode copy metrics.
        pub base: MemMetrics,
        /// CC-mode copy metrics.
        pub cc: MemMetrics,
    }

    impl Row {
        /// CC/base total copy-time slowdown.
        pub fn slowdown(&self) -> f64 {
            self.cc.copy_total() / self.base.copy_total()
        }
    }

    fn population() -> Vec<&'static str> {
        suites::all()
            .into_iter()
            .filter(|spec| !spec.copy_bytes().is_zero())
            .map(|spec| spec.name)
            .collect()
    }

    /// Every copy-carrying standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for app in population() {
            out.push(super::scenario(app, CcMode::Off));
            out.push(super::scenario(app, CcMode::On));
        }
        out
    }

    /// Runs every copy-carrying app in both modes, collecting failures
    /// per row (a row needs both of its modes to land).
    pub fn try_rows() -> super::Computed<Vec<Row>> {
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for (app, pair) in population().into_iter().zip(results.chunks_exact(2)) {
            match (pair[0].run(), pair[1].run()) {
                (Ok(base), Ok(cc)) => data.push(Row {
                    app,
                    base: base.timeline.mem_metrics(),
                    cc: cc.timeline.mem_metrics(),
                }),
                (base, cc) => failures.extend(base.err().into_iter().chain(cc.err())),
            }
        }
        super::Computed { data, failures }
    }

    /// Mean/max/min slowdown over rows (Observation 3's statistics).
    pub fn stats(rows: &[Row]) -> (f64, f64, f64) {
        let ratios: Vec<f64> = rows.iter().map(Row::slowdown).collect();
        let mean = hcc_trace::mean_ratio(&ratios);
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        let min = ratios.iter().copied().fold(f64::MAX, f64::min);
        (mean, max, min)
    }
}

/// Fig. 6: memory-management times, base vs CC.
pub mod fig06 {
    use hcc_trace::EventKind;
    use hcc_types::{ByteSize, CcMode, HostMemKind, MemSpace, SimDuration};
    use hcc_workloads::{Op, RunResult, Scenario, Suite, WorkloadSpec};

    /// Aggregated management times for one mode.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Times {
        /// `cudaMallocHost` total.
        pub hmalloc: SimDuration,
        /// `cudaMalloc` total.
        pub dmalloc: SimDuration,
        /// `cudaFree` total.
        pub free: SimDuration,
        /// `cudaMallocManaged` total.
        pub managed_alloc: SimDuration,
        /// managed `cudaFree` total.
        pub managed_free: SimDuration,
    }

    /// `iters` alloc/free cycles of `size` as one inline program, matching
    /// the original serial measurement loop op for op so the RNG draw
    /// order (and thus every jittered management cost) is unchanged.
    fn cycle_spec(size: ByteSize, iters: u32) -> WorkloadSpec {
        let mut ops = Vec::with_capacity(iters as usize * 6);
        for _ in 0..iters {
            ops.push(Op::MallocDevice { slot: 0, size });
            ops.push(Op::MallocHost {
                slot: 0,
                size,
                kind: HostMemKind::Pinned,
            });
            ops.push(Op::FreeDevice { slot: 0 });
            ops.push(Op::FreeHost { slot: 0 });
            ops.push(Op::MallocManaged { slot: 0, size });
            ops.push(Op::FreeManaged { slot: 0 });
        }
        WorkloadSpec {
            name: "fig06-mgmt",
            suite: Suite::Micro,
            uvm: false,
            ops,
        }
    }

    /// The management-cycle scenario for both modes.
    pub fn scenarios(size: ByteSize, iters: u32) -> Vec<Scenario> {
        CcMode::ALL
            .into_iter()
            .map(|cc| super::adhoc_scenario(cycle_spec(size, iters), cc))
            .collect()
    }

    /// Buckets the trace's Alloc/Free event spans (which equal the
    /// management calls' clock deltas) by memory space.
    fn times_from(run: &RunResult) -> Times {
        let mut t = Times::default();
        for e in run.timeline.events() {
            let d = e.duration();
            match e.kind {
                EventKind::Alloc {
                    space: MemSpace::Device,
                    ..
                } => t.dmalloc += d,
                EventKind::Alloc {
                    space: MemSpace::Host,
                    ..
                } => t.hmalloc += d,
                EventKind::Alloc {
                    space: MemSpace::Managed,
                    ..
                } => t.managed_alloc += d,
                EventKind::Free {
                    space: MemSpace::Managed,
                    ..
                } => t.managed_free += d,
                EventKind::Free { .. } => t.free += d,
                _ => {}
            }
        }
        t
    }

    /// Measures `iters` alloc/free cycles of `size` in one mode,
    /// reporting the failing scenario instead of panicking (a failed
    /// mode contributes zeroed times).
    pub fn try_measure(cc: CcMode, size: ByteSize, iters: u32) -> super::Computed<Times> {
        let res = crate::engine::global().run(&super::adhoc_scenario(cycle_spec(size, iters), cc));
        match res.run() {
            Ok(r) => super::Computed {
                data: times_from(r),
                failures: Vec::new(),
            },
            Err(f) => super::Computed {
                data: Times::default(),
                failures: vec![f],
            },
        }
    }

    /// The five CC/base ratios, collecting failures from either mode.
    pub fn try_ratios(size: ByteSize, iters: u32) -> super::Computed<[f64; 5]> {
        let base = try_measure(CcMode::Off, size, iters);
        let cc = try_measure(CcMode::On, size, iters);
        let mut failures = base.failures;
        failures.extend(cc.failures);
        let (base, cc) = (base.data, cc.data);
        super::Computed {
            data: [
                cc.hmalloc / base.hmalloc,
                cc.dmalloc / base.dmalloc,
                cc.free / base.free,
                cc.managed_alloc / base.managed_alloc,
                cc.managed_free / base.managed_free,
            ],
            failures,
        }
    }
}

/// Fig. 7: KLO / LQT / KQT per app, CC normalized to base.
pub mod fig07 {
    use hcc_types::CcMode;
    use hcc_workloads::{suites, Scenario};

    /// One app's launch-path ratios.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name.
        pub app: &'static str,
        /// Launches in the app.
        pub launches: u64,
        /// CC/base Σ KLO.
        pub klo: f64,
        /// CC/base Σ LQT.
        pub lqt: f64,
        /// CC/base Σ KQT.
        pub kqt: f64,
    }

    fn population() -> Vec<(&'static str, u64)> {
        suites::multi_launch()
            .into_iter()
            .filter(|spec| !spec.uvm) // Fig. 7 is the non-UVM launch study.
            .map(|spec| (spec.name, spec.launch_count()))
            .collect()
    }

    /// Every multi-launch non-UVM app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for (app, _) in population() {
            out.push(super::scenario(app, CcMode::Off));
            out.push(super::scenario(app, CcMode::On));
        }
        out
    }

    /// Runs every multi-launch app in both modes, collecting failures
    /// per row (a row needs both of its modes to land).
    pub fn try_rows() -> super::Computed<Vec<Row>> {
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for ((app, launches), pair) in population().into_iter().zip(results.chunks_exact(2)) {
            match (pair[0].run(), pair[1].run()) {
                (Ok(base), Ok(cc)) => {
                    let b = base.timeline.launch_metrics();
                    let c = cc.timeline.launch_metrics();
                    data.push(Row {
                        app,
                        launches,
                        klo: c.total_klo() / b.total_klo(),
                        lqt: c.total_lqt() / b.total_lqt(),
                        kqt: c.total_kqt() / b.total_kqt(),
                    });
                }
                (base, cc) => failures.extend(base.err().into_iter().chain(cc.err())),
            }
        }
        super::Computed { data, failures }
    }

    /// Mean (KLO, LQT, KQT) ratios across apps.
    pub fn means(rows: &[Row]) -> (f64, f64, f64) {
        let klo: Vec<f64> = rows.iter().map(|r| r.klo).collect();
        let lqt: Vec<f64> = rows.iter().map(|r| r.lqt).collect();
        let kqt: Vec<f64> = rows.iter().map(|r| r.kqt).collect();
        (
            hcc_trace::mean_ratio(&klo),
            hcc_trace::mean_ratio(&lqt),
            hcc_trace::mean_ratio(&kqt),
        )
    }
}

/// Fig. 8: the `cudaLaunchKernel` call stack inside a TD.
pub mod fig08 {
    use hcc_tee::TdContext;
    use hcc_trace::critpath::{Attribution, ResourceClass};
    use hcc_trace::CallFrame;
    use hcc_types::calib::Calibration;
    use hcc_types::{CcMode, SimDuration};

    /// The resource class each Fig. 8 frame occupies, keyed by frame
    /// name: the swiotlb/page-conversion branch draws on the bounce
    /// pool, the doorbell write rings the CP, everything else is host
    /// driver time.
    pub fn frame_resource(name: &str) -> ResourceClass {
        match name {
            "dma_direct_alloc" | "swiotlb_alloc" | "set_memory_decrypted" => {
                ResourceClass::BouncePool
            }
            "doorbell_mmio_write" => ResourceClass::RingCp,
            _ => ResourceClass::HostDriver,
        }
    }

    /// Marks every frame whose resource class carries nonzero critical
    /// time in `attr` — connecting the static Fig. 8 breakdown to a
    /// run's measured critical path. Marking only annotates; costs and
    /// structure are untouched.
    pub fn mark_critical_frames(frame: &mut CallFrame, attr: &Attribution) {
        if attr.get(frame_resource(frame.name())) > SimDuration::ZERO {
            frame.mark_critical();
        }
        for child in frame.children_mut() {
            mark_critical_frames(child, attr);
        }
    }

    /// Builds the simplified Fig. 8 call tree with mode-appropriate costs.
    pub fn callstack(cc: CcMode) -> CallFrame {
        let calib = Calibration::paper();
        let mut td = TdContext::new(cc, calib.tdx.clone());
        let hypercall = td.hypercall("doorbell");
        let convert = td.convert_pages(16);
        let seam = td.seamcall("ept");
        let klo = calib.launch.klo_base;

        let mut nv_ioctl = CallFrame::new("nvidia_ioctl", klo.scale(0.4));
        nv_ioctl.push_child(
            CallFrame::new("dma_direct_alloc", SimDuration::from_micros_f64(1.2)).with_child(
                CallFrame::new("swiotlb_alloc", SimDuration::from_micros_f64(0.6))
                    .with_child(CallFrame::new("set_memory_decrypted", convert)),
            ),
        );
        nv_ioctl.push_child(
            CallFrame::new("doorbell_mmio_write", SimDuration::from_nanos(150)).with_child(
                CallFrame::new("#VE_handler", SimDuration::from_nanos(300)).with_child(
                    CallFrame::new("tdx_hypercall", hypercall)
                        .with_child(CallFrame::new("tdx_module_seamret", seam)),
                ),
            ),
        );
        CallFrame::new("cudaLaunchKernel", klo.scale(0.3)).with_child(
            CallFrame::new("libcuda_launch", klo.scale(0.3)).with_child(
                CallFrame::new("ioctl", SimDuration::from_nanos(400)).with_child(nv_ioctl),
            ),
        )
    }
}

/// Fig. 9: KET normalized to the base non-UVM run.
pub mod fig09 {
    use hcc_types::{CcMode, SimDuration};
    use hcc_workloads::{suites, Scenario};

    /// One app's four KET totals.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// App name (the explicit-copy variant's name).
        pub app: &'static str,
        /// Σ KET, base non-UVM.
        pub base: SimDuration,
        /// Σ KET, CC non-UVM.
        pub cc: SimDuration,
        /// Σ KET, base UVM.
        pub base_uvm: SimDuration,
        /// Σ KET, CC UVM.
        pub cc_uvm: SimDuration,
    }

    impl Row {
        /// CC/base non-UVM KET ratio.
        pub fn nonuvm_ratio(&self) -> f64 {
            self.cc / self.base
        }

        /// Base-UVM / base-non-UVM slowdown.
        pub fn uvm_base_slowdown(&self) -> f64 {
            self.base_uvm / self.base
        }

        /// CC-UVM / base-non-UVM slowdown (the headline column).
        pub fn uvm_cc_slowdown(&self) -> f64 {
            self.cc_uvm / self.base
        }
    }

    /// The Fig. 9 population: each UVM-capable app in all four
    /// (variant × mode) configurations.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for name in suites::UVM_VARIANT_APPS {
            out.push(super::scenario(name, CcMode::Off));
            out.push(super::scenario(name, CcMode::On));
            out.push(super::uvm_scenario(name, CcMode::Off));
            out.push(super::uvm_scenario(name, CcMode::On));
        }
        out
    }

    /// Runs the Fig. 9 population, collecting failures per row (a row
    /// needs all four of its configurations to land).
    pub fn try_rows() -> super::Computed<Vec<Row>> {
        let results = crate::engine::global().run_all(&scenarios());
        let mut data = Vec::new();
        let mut failures = Vec::new();
        for (name, quad) in suites::UVM_VARIANT_APPS.iter().zip(results.chunks_exact(4)) {
            let mut kets = [SimDuration::ZERO; 4];
            let mut ok = true;
            for (slot, res) in kets.iter_mut().zip(quad) {
                match res.run() {
                    Ok(r) => *slot = r.timeline.launch_metrics().total_ket(),
                    Err(f) => {
                        failures.push(f);
                        ok = false;
                    }
                }
            }
            if ok {
                let explicit = suites::by_name(name).expect("explicit variant");
                data.push(Row {
                    app: explicit.name,
                    base: kets[0],
                    cc: kets[1],
                    base_uvm: kets[2],
                    cc_uvm: kets[3],
                });
            }
        }
        super::Computed { data, failures }
    }
}

/// Fig. 10: launch/kernel event scatter across the app lifetime.
pub mod fig10 {
    use hcc_trace::EventKind;
    use hcc_types::CcMode;
    use hcc_workloads::suites;

    /// One scatter point.
    #[derive(Debug, Clone, Copy)]
    pub struct Point {
        /// Event start, µs.
        pub start_us: f64,
        /// Event duration, µs.
        pub duration_us: f64,
        /// `true` for Kernel events, `false` for Launch events.
        pub is_kernel: bool,
        /// Mode.
        pub cc: CcMode,
    }

    /// The four apps of Fig. 10 (A: hotspot-class, B: srad-class,
    /// C: sc, D: 3dconv).
    pub const APPS: [&str; 4] = ["hotspot", "srad", "sc", "3dconv"];

    /// Event scatter for one app in both modes, longest event dropped
    /// per the figure's note. Failed modes are skipped and reported.
    pub fn try_scatter(app: &str) -> super::Computed<Vec<Point>> {
        let spec = suites::by_name(app).expect("known app");
        let requests: Vec<_> = CcMode::ALL
            .into_iter()
            .map(|cc| super::scenario(spec.name, cc))
            .collect();
        let results = crate::engine::global().run_all(&requests);
        let mut out = Vec::new();
        let mut failures = Vec::new();
        for (cc, res) in CcMode::ALL.into_iter().zip(results) {
            let run = match res.run() {
                Ok(r) => r,
                Err(f) => {
                    failures.push(f);
                    continue;
                }
            };
            let mut pts: Vec<Point> = run
                .timeline
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Launch { .. } => Some(Point {
                        start_us: e.start.as_micros_f64(),
                        duration_us: e.duration().as_micros_f64(),
                        is_kernel: false,
                        cc,
                    }),
                    EventKind::Kernel { .. } => Some(Point {
                        start_us: e.start.as_micros_f64(),
                        duration_us: e.duration().as_micros_f64(),
                        is_kernel: true,
                        cc,
                    }),
                    _ => None,
                })
                .collect();
            // "The events with the longest duration are excluded for
            // clarity."
            if let Some((idx, _)) = pts.iter().enumerate().max_by(|a, b| {
                a.1.duration_us
                    .partial_cmp(&b.1.duration_us)
                    .expect("finite")
            }) {
                pts.swap_remove(idx);
            }
            out.extend(pts);
        }
        super::Computed {
            data: out,
            failures,
        }
    }
}

/// Fig. 11: CDFs of KLO and KET, base vs CC.
pub mod fig11 {
    use hcc_trace::Cdf;
    use hcc_types::CcMode;
    use hcc_workloads::{suites, Scenario};

    /// CDF pair for one metric.
    #[derive(Debug, Clone)]
    pub struct CdfPair {
        /// Base-mode CDF.
        pub base: Cdf,
        /// CC-mode CDF.
        pub cc: Cdf,
    }

    /// Every non-UVM standard app in both modes.
    pub fn scenarios() -> Vec<Scenario> {
        let mut out = Vec::new();
        for spec in suites::all() {
            if spec.uvm {
                continue;
            }
            for cc in CcMode::ALL {
                out.push(super::scenario(spec.name, cc));
            }
        }
        out
    }

    /// Pools every non-UVM app's launches/kernels and builds the CDFs,
    /// skipping (and reporting) failed runs.
    pub fn try_klo_and_ket() -> super::Computed<(CdfPair, CdfPair)> {
        let requests = scenarios();
        let results = crate::engine::global().run_all(&requests);
        let mut klo = (Vec::new(), Vec::new());
        let mut ket = (Vec::new(), Vec::new());
        let mut failures = Vec::new();
        for (scn, res) in requests.iter().zip(results) {
            let run = match res.run() {
                Ok(r) => r,
                Err(f) => {
                    failures.push(f);
                    continue;
                }
            };
            let lm = run.timeline.launch_metrics();
            match scn.cc() {
                CcMode::Off => {
                    klo.0.extend(lm.klos());
                    ket.0.extend(lm.kets());
                }
                CcMode::On => {
                    klo.1.extend(lm.klos());
                    ket.1.extend(lm.kets());
                }
            }
        }
        super::Computed {
            data: (
                CdfPair {
                    base: Cdf::from_durations(klo.0),
                    cc: Cdf::from_durations(klo.1),
                },
                CdfPair {
                    base: Cdf::from_durations(ket.0),
                    cc: Cdf::from_durations(ket.1),
                },
            ),
            failures,
        }
    }
}

/// Fig. 13: CNN training throughput/time grid.
pub mod fig13 {
    use hcc_core::Precision;
    use hcc_ml::cnn::{CnnEstimator, TrainConfig, MODELS};
    use hcc_types::CcMode;

    /// One grid cell.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Model name.
        pub model: &'static str,
        /// Batch size.
        pub batch: u32,
        /// Precision.
        pub precision: Precision,
        /// Mode.
        pub cc: CcMode,
        /// Images/second.
        pub throughput: f64,
        /// Training time normalized to the base FP32 run of the same
        /// batch size.
        pub norm_time: f64,
    }

    /// Computes the full grid.
    pub fn rows() -> Vec<Row> {
        let est = CnnEstimator::default();
        let mut out = Vec::new();
        for m in &MODELS {
            for batch in [64u32, 1024] {
                let reference = est
                    .estimate(
                        m,
                        TrainConfig {
                            batch,
                            precision: Precision::Fp32,
                            cc: CcMode::Off,
                        },
                    )
                    .total_time;
                let precisions: &[Precision] = if batch == 1024 {
                    &[Precision::Fp32, Precision::Amp, Precision::Fp16]
                } else {
                    &[Precision::Fp32, Precision::Amp]
                };
                for &precision in precisions {
                    for cc in CcMode::ALL {
                        let e = est.estimate(
                            m,
                            TrainConfig {
                                batch,
                                precision,
                                cc,
                            },
                        );
                        out.push(Row {
                            model: m.name,
                            batch,
                            precision,
                            cc,
                            throughput: e.throughput,
                            norm_time: e.total_time.as_secs_f64() / reference.as_secs_f64(),
                        });
                    }
                }
            }
        }
        out
    }
}

/// Fig. 14: vLLM speedup grid over the HF BF16 CC-off baseline.
pub mod fig14 {
    use hcc_ml::llm::{LlmEstimator, LlmPrecision, FIG14_BATCHES};
    use hcc_types::CcMode;

    /// One grid cell.
    #[derive(Debug, Clone, Copy)]
    pub struct Cell {
        /// Batch size.
        pub batch: u32,
        /// Precision.
        pub precision: LlmPrecision,
        /// Mode.
        pub cc: CcMode,
        /// Throughput speedup over HF/BF16/CC-off at the same batch.
        pub speedup: f64,
    }

    /// Computes the grid.
    pub fn grid() -> Vec<Cell> {
        let est = LlmEstimator::default();
        let mut out = Vec::new();
        for batch in FIG14_BATCHES {
            for precision in [LlmPrecision::Bf16, LlmPrecision::Awq] {
                for cc in CcMode::ALL {
                    out.push(Cell {
                        batch,
                        precision,
                        cc,
                        speedup: est.vllm_speedup(precision, batch, cc),
                    });
                }
            }
        }
        out
    }
}

/// Fig. 12: microbenchmarks — launch trains (a), the fusion sweep (b)
/// and stream overlap (c). Thin wrappers over `hcc_workloads::micro`
/// that produce the plotted series. These drive their own multi-stream
/// contexts directly, so they stay outside the scenario engine.
pub mod fig12 {
    use hcc_trace::LaunchRecord;
    use hcc_types::{ByteSize, CcMode, SimDuration};
    use hcc_workloads::micro::{self, FusionPoint, OverlapResult};

    /// (a) KLO per launch index for K0 x n0 then K1 x n1.
    pub fn launch_train(cc: CcMode, n0: u32, n1: u32) -> Vec<LaunchRecord> {
        micro::run_back_to_back(super::cfg(cc), n0, n1, SimDuration::millis(100))
    }

    /// (b) the fusion sweep over power-of-two launch counts.
    pub fn fusion_sweep(cc: CcMode, total_ket: SimDuration, max: u32) -> Vec<FusionPoint> {
        let mut out = Vec::new();
        let mut n = 1u32;
        while n <= max {
            out.push(micro::run_fusion_sweep(super::cfg(cc), total_ket, n));
            n = n.saturating_mul(2);
        }
        out
    }

    /// (c) overlap speedups over stream counts for one (bytes, KET) pair.
    pub fn overlap_series(
        cc: CcMode,
        total: ByteSize,
        ket: SimDuration,
        stream_counts: &[u32],
    ) -> Vec<(u32, OverlapResult)> {
        stream_counts
            .iter()
            .map(|&n| {
                (
                    n,
                    micro::run_overlap(super::cfg(cc), n, total, ket).expect("overlap run"),
                )
            })
            .collect()
    }
}
