//! Calibration tables anchoring the simulator to the paper's measurements.
//!
//! Every constant here cites the paper section or figure it comes from.
//! Numbers the paper states directly (e.g. the 3.36 GB/s AES-GCM ceiling,
//! the +470 % `tdx_hypercall` latency) are used verbatim; remaining service
//! times are chosen so the *derived* quantities land on the paper's reported
//! ratios (e.g. mean KLO ×1.42, mean copy ×5.80). The [`paper`] submodule
//! records the published target values so tests can assert reproduction
//! quality against them.

use crate::{Bandwidth, ByteSize, CcMode, SimDuration};

/// The full calibration bundle consumed by the simulators.
///
/// `Calibration::default()` is the paper configuration (Table I hardware,
/// Sec. VI measurements). Ablation benches mutate individual fields.
#[derive(Debug, Clone, Default)]
pub struct Calibration {
    /// PCIe / host-memory transfer path rates.
    pub pcie: PcieCalib,
    /// TDX transition and memory-conversion costs.
    pub tdx: TdxCalib,
    /// CUDA memory-management service times (Fig. 6).
    pub alloc: AllocCalib,
    /// Kernel-launch path service times (Fig. 7/8/11/12).
    pub launch: LaunchCalib,
    /// GPU engine service parameters.
    pub gpu: GpuCalib,
    /// Unified-virtual-memory fault/migration parameters (Fig. 9).
    pub uvm: UvmCalib,
}

impl Calibration {
    /// The paper's configuration (identical to `Default`).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Stable content fingerprint over every calibration constant.
    ///
    /// Hashes the canonical JSON rendering of the bundle: floats print in
    /// shortest-roundtrip form, so any perturbation of any constant changes
    /// the fingerprint. Used by `SimConfig::content_hash` so scenario cache
    /// keys cannot alias two different calibrations.
    ///
    /// Rendering the bundle costs tens of microseconds, far more than the
    /// rest of a memo key, so `SimConfig` calls this once, when a
    /// calibration enters the config, and hashes the stored value.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        use crate::json::ToJson;
        let mut h = crate::hash::Fnv64::new();
        h.write_str(&self.to_json_string());
        h.finish()
    }
}

/// PCIe and host staging-path rates (paper Fig. 4a, Sec. VI-A).
#[derive(Debug, Clone)]
pub struct PcieCalib {
    /// Peak pinned-memory DMA rate, host→device, non-CC. PCIe 5.0 ×16
    /// practical ceiling on the H100 NVL testbed.
    pub pinned_h2d: Bandwidth,
    /// Peak pinned-memory DMA rate, device→host, non-CC (slightly lower in
    /// practice).
    pub pinned_d2h: Bandwidth,
    /// Host `memcpy` rate for the extra staging copy pageable transfers
    /// perform.
    pub host_staging: Bandwidth,
    /// Rate of the copy from TD-private memory into the (already
    /// converted) swiotlb bounce buffer under CC. Streamed kernel memcpy,
    /// faster than the pageable staging path.
    pub bounce_copy: Bandwidth,
    /// On-device D2D copy rate (HBM3).
    pub d2d: Bandwidth,
    /// Fixed per-transfer DMA setup latency; dominates tiny transfers and
    /// produces the bandwidth ramp of Fig. 4a.
    pub dma_setup: SimDuration,
    /// Extra per-transfer driver latency for pageable copies (staging
    /// buffer management).
    pub pageable_setup: SimDuration,
    /// GPU-side AES-GCM rate for CC transfers (copy-engine assisted
    /// decrypt/encrypt; faster than the CPU side, so the CPU is the
    /// bottleneck — Sec. VI-A).
    pub gpu_crypto: Bandwidth,
    /// Maximum bytes encrypted/staged per bounce-buffer round trip.
    pub bounce_chunk: ByteSize,
    /// Fixed cost per CC transfer beyond crypto/DMA (context switches into
    /// the TDX module and back, Sec. VI-A step list).
    pub cc_transfer_setup: SimDuration,
}

impl Default for PcieCalib {
    fn default() -> Self {
        PcieCalib {
            pinned_h2d: Bandwidth::gb_per_s(52.0),
            pinned_d2h: Bandwidth::gb_per_s(46.0),
            host_staging: Bandwidth::gb_per_s(22.0),
            bounce_copy: Bandwidth::gb_per_s(80.0),
            d2d: Bandwidth::gb_per_s(1300.0),
            dma_setup: SimDuration::from_micros_f64(8.0),
            pageable_setup: SimDuration::from_micros_f64(4.0),
            gpu_crypto: Bandwidth::gb_per_s(200.0),
            bounce_chunk: ByteSize::mib(4),
            cc_transfer_setup: SimDuration::from_micros_f64(6.0),
        }
    }
}

/// Intel TDX transition and page-conversion costs (Sec. II-A, Fig. 8).
#[derive(Debug, Clone)]
pub struct TdxCalib {
    /// Latency of a plain VM exit / vmcall in a regular VM.
    pub vmexit: SimDuration,
    /// `tdx_hypercall` latency multiplier over a plain vmcall. The paper
    /// cites hypercall evaluations reporting "over 470 %" added latency
    /// (Sec. VI-B), i.e. ×5.7.
    pub hypercall_mult: f64,
    /// Latency of a seamcall into the TDX module.
    pub seamcall: SimDuration,
    /// `set_memory_decrypted` cost per 4 KiB page converted private→shared
    /// (EPT manipulation + TLB shootdown, Fig. 8's `dma_direct_alloc` path).
    pub page_convert: SimDuration,
    /// Size of the pre-converted swiotlb bounce pool; staging within the
    /// pool avoids per-copy page conversion.
    pub bounce_pool: ByteSize,
    /// Small bookkeeping cost to reserve a bounce slot from the pool.
    pub bounce_reserve: SimDuration,
}

impl TdxCalib {
    /// Effective `tdx_hypercall` latency (vmexit × multiplier).
    pub fn hypercall(&self) -> SimDuration {
        self.vmexit.scale(self.hypercall_mult)
    }

    /// Extra latency a TD pays per hypercall compared to a regular VM.
    pub fn hypercall_extra(&self) -> SimDuration {
        self.hypercall().saturating_sub(self.vmexit)
    }
}

impl Default for TdxCalib {
    fn default() -> Self {
        TdxCalib {
            vmexit: SimDuration::from_micros_f64(0.9),
            hypercall_mult: 5.7,
            seamcall: SimDuration::from_micros_f64(3.5),
            page_convert: SimDuration::from_micros_f64(1.1),
            bounce_pool: ByteSize::mib(64),
            bounce_reserve: SimDuration::from_nanos(220),
        }
    }
}

/// Memory-management service times (paper Fig. 6 and Sec. VI-A).
///
/// Base costs are absolute; CC costs are expressed as multipliers the paper
/// reports (API-level means): `cudaMalloc` ×5.67, `cudaMallocHost` ×5.72,
/// `cudaFree` ×10.54, `cudaMallocManaged` ×5.43, managed free ×3.35.
#[derive(Debug, Clone)]
pub struct AllocCalib {
    /// `cudaMalloc` fixed cost, non-CC.
    pub dmalloc_base: SimDuration,
    /// `cudaMalloc` additional cost per GiB reserved.
    pub dmalloc_per_gib: SimDuration,
    /// `cudaMallocHost` fixed cost, non-CC (page-locking setup).
    pub hmalloc_base: SimDuration,
    /// `cudaMallocHost` cost per GiB pinned, non-CC.
    pub hmalloc_per_gib: SimDuration,
    /// `cudaFree`/`cudaFreeHost` fixed cost, non-CC.
    pub free_base: SimDuration,
    /// `cudaMallocManaged` cost relative to `cudaMalloc` (non-CC). The
    /// paper reports UVM allocation at 0.51× the non-UVM baseline (lazy
    /// backing).
    pub managed_alloc_factor: f64,
    /// Managed `cudaFree` cost relative to plain free (non-CC): ×3.13.
    pub managed_free_factor: f64,
    /// CC multiplier for `cudaMalloc`: ×5.67.
    pub cc_dmalloc_mult: f64,
    /// CC multiplier for `cudaMallocHost`: ×5.72.
    pub cc_hmalloc_mult: f64,
    /// CC multiplier for `cudaFree`: ×10.54.
    pub cc_free_mult: f64,
    /// CC multiplier for `cudaMallocManaged`: ×5.43.
    pub cc_managed_alloc_mult: f64,
    /// CC multiplier for managed free: ×3.35 (API level). App-level UVM
    /// deallocation reaches ×18.20 versus the non-CC non-UVM baseline
    /// because the managed factor compounds with page teardown.
    pub cc_managed_free_mult: f64,
    /// Relative jitter applied to every management call.
    pub jitter_frac: f64,
}

impl Default for AllocCalib {
    fn default() -> Self {
        AllocCalib {
            dmalloc_base: SimDuration::from_micros_f64(105.0),
            dmalloc_per_gib: SimDuration::from_micros_f64(38.0),
            hmalloc_base: SimDuration::from_micros_f64(72.0),
            hmalloc_per_gib: SimDuration::from_micros_f64(185_000.0),
            free_base: SimDuration::from_micros_f64(92.0),
            managed_alloc_factor: 0.51,
            managed_free_factor: 3.13,
            cc_dmalloc_mult: 5.67,
            cc_hmalloc_mult: 5.72,
            cc_free_mult: 10.54,
            cc_managed_alloc_mult: 5.43,
            cc_managed_free_mult: 3.35,
            jitter_frac: 0.06,
        }
    }
}

/// Kernel-launch path calibration (paper Sec. VI-B, Fig. 7/8/11/12a).
#[derive(Debug, Clone)]
pub struct LaunchCalib {
    /// Mean driver-side cost of `cudaLaunchKernel`, non-CC, steady state.
    pub klo_base: SimDuration,
    /// Log-normal shape of KLO jitter (Fig. 11a spread).
    pub klo_sigma: f64,
    /// Probability that a launch's doorbell MMIO write traps to the host
    /// (a `#VE` → `tdx_hypercall` under CC). Driver write-combining batches
    /// doorbells, so not every launch exits.
    pub doorbell_trap_prob: f64,
    /// Extra TDX hypercalls on a *first* launch of a kernel (lazy driver
    /// init touching device state — Fig. 8).
    pub first_launch_hypercalls: u32,
    /// Driver fixed extra work on the first launch of each kernel (lazy
    /// function setup; the cubin itself is uploaded at module-load time,
    /// outside the launch path), non-CC.
    pub first_launch_extra: SimDuration,
    /// CC multiplier on the first-launch extra work.
    pub cc_first_mult: f64,
    /// Probability that a CC first launch additionally hits a page-
    /// conversion storm (bounce allocations for launch metadata) — the
    /// source of Fig. 7a outliers like dwt2d's ×5.31.
    pub cc_first_spike_prob: f64,
    /// Magnitude range of that storm, microseconds.
    pub cc_first_spike_us: (f64, f64),
    /// Probability of a heavy-tail KLO spike (driver lock contention).
    pub spike_prob: f64,
    /// Spike magnitude range (multiplier on `klo_base`).
    pub spike_range: (f64, f64),
    /// Host-side work between consecutive launches (runtime bookkeeping,
    /// app loop body). Measured as LQT by the event analysis.
    pub inter_launch_gap: SimDuration,
    /// CC multiplier on the inter-launch gap (TD scheduling/syscall tax):
    /// tuned so mean LQT lands at the paper's ×1.43.
    pub cc_gap_mult: f64,
    /// Log-normal shape of the gap jitter — wide, so apps with only a
    /// handful of launches show the unstable LQT ratios of Fig. 7b.
    pub gap_sigma: f64,
}

impl Default for LaunchCalib {
    fn default() -> Self {
        LaunchCalib {
            klo_base: SimDuration::from_micros_f64(6.0),
            klo_sigma: 0.22,
            doorbell_trap_prob: 0.60,
            first_launch_hypercalls: 2,
            first_launch_extra: SimDuration::from_micros_f64(58.0),
            cc_first_mult: 1.5,
            cc_first_spike_prob: 0.08,
            cc_first_spike_us: (80.0, 260.0),
            spike_prob: 0.012,
            spike_range: (4.0, 18.0),
            inter_launch_gap: SimDuration::from_micros_f64(1.8),
            cc_gap_mult: 1.45,
            gap_sigma: 0.5,
        }
    }
}

/// GPU engine service parameters (Sec. II-A architecture).
#[derive(Debug, Clone)]
pub struct GpuCalib {
    /// Depth of a channel's command ring; a full ring blocks the next
    /// launch on the host — the source of LQT.
    pub ring_depth: usize,
    /// Command-processor service time per command, non-CC.
    pub cp_service: SimDuration,
    /// CC multiplier on command-processor service (encrypted/authenticated
    /// command submission path): tuned so mean LQT lands at the paper's
    /// ×1.43.
    pub cc_cp_service_mult: f64,
    /// Dispatch latency from command-processor to compute engine (KQT floor
    /// for uncontended kernels), non-CC.
    pub dispatch: SimDuration,
    /// CC multiplier on dispatch latency: tuned so the CP-service +
    /// dispatch path (the KQT floor) scales by the paper's ×2.32 for
    /// low-launch-count apps.
    pub cc_dispatch_mult: f64,
    /// Concurrent kernel slots on the compute engine (H100 runs many
    /// kernels concurrently; the overlap study only needs "enough").
    pub compute_slots: usize,
    /// Multiplier on kernel execution time under CC for non-UVM kernels.
    /// The paper measures +0.48 % on average (Observation 5).
    pub cc_ket_factor: f64,
    /// Relative jitter on kernel execution time.
    pub ket_jitter: f64,
}

impl Default for GpuCalib {
    fn default() -> Self {
        GpuCalib {
            ring_depth: 32,
            cp_service: SimDuration::from_micros_f64(2.0),
            cc_cp_service_mult: 1.45,
            dispatch: SimDuration::from_micros_f64(1.8),
            cc_dispatch_mult: 3.3,
            compute_slots: 16,
            cc_ket_factor: 1.0048,
            ket_jitter: 0.015,
        }
    }
}

/// Unified-virtual-memory calibration (Sec. II-B, Fig. 9).
#[derive(Debug, Clone)]
pub struct UvmCalib {
    /// UVM migration granule (NVIDIA "vablock" style batch unit).
    pub page: ByteSize,
    /// Pages migrated per far-fault service batch (non-CC).
    pub batch_pages: u64,
    /// Pages per demand batch under CC: encrypted paging stages through
    /// small bounce slots, shrinking the effective batch.
    pub cc_batch_pages: u64,
    /// GPU-fault round trip to the CPU UVM driver, non-CC. Literature
    /// (Sec. II-B) reports 20–50 µs; we centre at 25 µs.
    pub fault_latency: SimDuration,
    /// Extra hypercalls per fault batch under CC (driver↔host mediation).
    pub cc_fault_hypercalls: u32,
    /// Migration bandwidth, non-CC (pinned-class DMA).
    pub migrate_bw: Bandwidth,
    /// Migration bandwidth under CC — the *encrypted paging* path
    /// (software AES-GCM per page batch).
    pub cc_migrate_bw: Bandwidth,
    /// Fixed per-batch staging overhead under CC (bounce setup).
    pub cc_batch_overhead: SimDuration,
    /// Whether the tree prefetcher is enabled (ablation hook).
    pub prefetch: bool,
    /// Fraction of faults the prefetcher converts into bulk transfers when
    /// access is sequential.
    pub prefetch_hit: f64,
}

impl Default for UvmCalib {
    fn default() -> Self {
        UvmCalib {
            page: ByteSize::kib(64),
            batch_pages: 32,
            cc_batch_pages: 8,
            fault_latency: SimDuration::from_micros_f64(25.0),
            cc_fault_hypercalls: 2,
            migrate_bw: Bandwidth::gb_per_s(24.0),
            cc_migrate_bw: Bandwidth::gb_per_s(0.9),
            cc_batch_overhead: SimDuration::from_micros_f64(60.0),
            prefetch: true,
            prefetch_hit: 0.55,
        }
    }
}

/// Picks the command-processor service time for a mode.
pub fn cp_service(gpu: &GpuCalib, cc: CcMode) -> SimDuration {
    match cc {
        CcMode::Off => gpu.cp_service,
        CcMode::On => gpu.cp_service.scale(gpu.cc_cp_service_mult),
    }
}

/// Picks the engine dispatch latency for a mode.
pub fn dispatch_latency(gpu: &GpuCalib, cc: CcMode) -> SimDuration {
    match cc {
        CcMode::Off => gpu.dispatch,
        CcMode::On => gpu.dispatch.scale(gpu.cc_dispatch_mult),
    }
}

/// The evaluation platform of Table I, for the `table1_setup` harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// CPU description.
    pub cpu: &'static str,
    /// Main-memory description.
    pub memory: &'static str,
    /// TME-MK configuration.
    pub tme_mk: &'static str,
    /// Storage device.
    pub storage: &'static str,
    /// Chassis / platform.
    pub system: &'static str,
    /// Guest operating system.
    pub os: &'static str,
    /// Hypervisor.
    pub hypervisor: &'static str,
    /// TDX software stack version.
    pub tdx_tools: &'static str,
    /// GPU and CUDA stack.
    pub gpu: &'static str,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            cpu: "2x 5th Gen Intel Xeon 6530 Gold @2.1GHz, 32 cores",
            memory: "16x 64GB DDR5 4800MHz (1TB)",
            tme_mk: "Auto bypass enabled",
            storage: "Micron 5400 PRO 960GB, SATA",
            system: "Supermicro SYS-421GE-TNRT3 (PCIe 5.0)",
            os: "Ubuntu 22.04.5 LTS (Linux 6.2.0, tdx patched)",
            hypervisor: "QEMU 7.2.0 (tdx patched)",
            tdx_tools: "TDX 1.5 (tag 2023ww15)",
            gpu: "NVIDIA H100 NVL, 94GB HBM3, PCIe 5.0 x16; CUDA 12.4, Driver 550.127.05",
        }
    }
}

impl std::fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "TABLE I: Confidential Computing System Setup")?;
        writeln!(f, "  {:<11} {}", "CPU", self.cpu)?;
        writeln!(f, "  {:<11} {}", "Memory", self.memory)?;
        writeln!(f, "  {:<11} {}", "TME-MK", self.tme_mk)?;
        writeln!(f, "  {:<11} {}", "Storage", self.storage)?;
        writeln!(f, "  {:<11} {}", "System", self.system)?;
        writeln!(f, "  {:<11} {}", "OS", self.os)?;
        writeln!(f, "  {:<11} {}", "Hypervisor", self.hypervisor)?;
        writeln!(f, "  {:<11} {}", "TDX Tools", self.tdx_tools)?;
        write!(f, "  {:<11} {}", "GPU", self.gpu)
    }
}

/// Published target values from the paper, used by the test suite to score
/// reproduction quality (shape, not absolute nanoseconds).
pub mod paper {
    /// Peak CC pinned H2D bandwidth, GB/s (Sec. VI-A).
    pub const CC_PEAK_H2D_GBS: f64 = 3.03;
    /// Single-core AES-GCM ceiling on EMR, GB/s (Fig. 4b).
    pub const AES_GCM_EMR_GBS: f64 = 3.36;
    /// GHASH ceiling on EMR, GB/s (Fig. 4b).
    pub const GHASH_EMR_GBS: f64 = 8.9;
    /// Mean copy slowdown under CC (Observation 3).
    pub const COPY_SLOWDOWN_MEAN: f64 = 5.80;
    /// Max copy slowdown under CC — 2dconv (Observation 3).
    pub const COPY_SLOWDOWN_MAX: f64 = 19.69;
    /// Min copy slowdown under CC — cnn (Sec. VI-A).
    pub const COPY_SLOWDOWN_MIN: f64 = 1.17;
    /// `cudaMalloc` CC slowdown (Sec. VI-A).
    pub const DMALLOC_SLOWDOWN: f64 = 5.67;
    /// `cudaMallocHost` CC slowdown.
    pub const HMALLOC_SLOWDOWN: f64 = 5.72;
    /// `cudaFree` CC slowdown.
    pub const FREE_SLOWDOWN: f64 = 10.54;
    /// `cudaMallocManaged` CC slowdown.
    pub const MANAGED_ALLOC_SLOWDOWN: f64 = 5.43;
    /// Managed free CC slowdown.
    pub const MANAGED_FREE_SLOWDOWN: f64 = 3.35;
    /// Mean KLO slowdown under CC (Observation 4).
    pub const KLO_SLOWDOWN_MEAN: f64 = 1.42;
    /// Max KLO slowdown — dwt2d (Fig. 7a).
    pub const KLO_SLOWDOWN_MAX: f64 = 5.31;
    /// Mean LQT slowdown under CC (Observation 4).
    pub const LQT_SLOWDOWN_MEAN: f64 = 1.43;
    /// Mean KQT slowdown under CC (Observation 4).
    pub const KQT_SLOWDOWN_MEAN: f64 = 2.32;
    /// Mean non-UVM KET change under CC (Observation 5), percent.
    pub const KET_NONUVM_DELTA_PCT: f64 = 0.48;
    /// Mean UVM slowdown without CC (Sec. VI-B).
    pub const UVM_BASE_SLOWDOWN: f64 = 5.29;
    /// Mean UVM KET slowdown under CC (Observation 5).
    pub const UVM_CC_SLOWDOWN_MEAN: f64 = 188.87;
    /// `tdx_hypercall` latency increase (Sec. VI-B), percent.
    pub const HYPERCALL_INCREASE_PCT: f64 = 470.0;
    /// CNN: mean throughput drop at batch 64 under CC, percent (Sec. VII-B).
    pub const CNN_B64_TPUT_DROP_PCT: f64 = 24.0;
    /// CNN: mean throughput drop at batch 1024 under CC, percent.
    pub const CNN_B1024_TPUT_DROP_PCT: f64 = 7.3;
    /// CNN: mean FP16 training-time reduction at batch 1024, percent.
    pub const CNN_FP16_TIME_CUT_PCT: f64 = 27.7;
}

crate::impl_to_json!(Calibration {
    pcie,
    tdx,
    alloc,
    launch,
    gpu,
    uvm
});
crate::impl_to_json!(PcieCalib {
    pinned_h2d,
    pinned_d2h,
    host_staging,
    bounce_copy,
    d2d,
    dma_setup,
    pageable_setup,
    gpu_crypto,
    bounce_chunk,
    cc_transfer_setup,
});
crate::impl_to_json!(TdxCalib {
    vmexit,
    hypercall_mult,
    seamcall,
    page_convert,
    bounce_pool,
    bounce_reserve,
});
crate::impl_to_json!(AllocCalib {
    dmalloc_base,
    dmalloc_per_gib,
    hmalloc_base,
    hmalloc_per_gib,
    free_base,
    managed_alloc_factor,
    managed_free_factor,
    cc_dmalloc_mult,
    cc_hmalloc_mult,
    cc_free_mult,
    cc_managed_alloc_mult,
    cc_managed_free_mult,
    jitter_frac,
});
crate::impl_to_json!(LaunchCalib {
    klo_base,
    klo_sigma,
    doorbell_trap_prob,
    first_launch_hypercalls,
    first_launch_extra,
    cc_first_mult,
    cc_first_spike_prob,
    cc_first_spike_us,
    spike_prob,
    spike_range,
    inter_launch_gap,
    cc_gap_mult,
    gap_sigma,
});
crate::impl_to_json!(GpuCalib {
    ring_depth,
    cp_service,
    cc_cp_service_mult,
    dispatch,
    cc_dispatch_mult,
    compute_slots,
    cc_ket_factor,
    ket_jitter,
});
crate::impl_to_json!(UvmCalib {
    page,
    batch_pages,
    cc_batch_pages,
    fault_latency,
    cc_fault_hypercalls,
    migrate_bw,
    cc_migrate_bw,
    cc_batch_overhead,
    prefetch,
    prefetch_hit,
});
crate::impl_to_json!(SystemConfig {
    cpu,
    memory,
    tme_mk,
    storage,
    system,
    os,
    hypervisor,
    tdx_tools,
    gpu,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hypercall_matches_published_increase() {
        let tdx = TdxCalib::default();
        let increase = (tdx.hypercall() / tdx.vmexit - 1.0) * 100.0;
        assert!(
            (increase - paper::HYPERCALL_INCREASE_PCT).abs() < 1.0,
            "{increase}%"
        );
    }

    #[test]
    fn cc_transfer_pipeline_lands_near_published_peak() {
        let p = PcieCalib::default();
        let eff = Bandwidth::serial_pipeline(&[
            Bandwidth::gb_per_s(paper::AES_GCM_EMR_GBS),
            p.bounce_copy,
            p.pinned_h2d,
        ]);
        // The composed path must stay below the crypto ceiling but close to
        // the published 3.03 GB/s.
        assert!(eff.as_gb_per_s() < paper::AES_GCM_EMR_GBS);
        assert!(
            (eff.as_gb_per_s() - paper::CC_PEAK_H2D_GBS).abs() < 0.25,
            "{eff}"
        );
    }

    #[test]
    fn mode_selected_services_scale() {
        let g = GpuCalib::default();
        assert!(cp_service(&g, CcMode::On) > cp_service(&g, CcMode::Off));
        assert!(dispatch_latency(&g, CcMode::On) > dispatch_latency(&g, CcMode::Off));
        // KQT floor = CP service + dispatch; its CC/base ratio matches
        // the paper's mean KQT amplification.
        let kqt_cc = cp_service(&g, CcMode::On) + dispatch_latency(&g, CcMode::On);
        let kqt_base = cp_service(&g, CcMode::Off) + dispatch_latency(&g, CcMode::Off);
        assert!((kqt_cc / kqt_base - paper::KQT_SLOWDOWN_MEAN).abs() < 0.1);
    }

    #[test]
    fn table1_display_contains_key_hardware() {
        let cfg = SystemConfig::default();
        let text = cfg.to_string();
        assert!(text.contains("H100 NVL"));
        assert!(text.contains("Xeon 6530"));
        assert!(text.contains("QEMU 7.2.0"));
    }

    #[test]
    fn fingerprint_tracks_every_constant() {
        let base = Calibration::paper();
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        let mut tweaked = Calibration::paper();
        tweaked.tdx.hypercall_mult *= 1.25;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());

        let mut tweaked = Calibration::paper();
        tweaked.uvm.prefetch = !tweaked.uvm.prefetch;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());

        let mut tweaked = Calibration::paper();
        tweaked.launch.klo_base = tweaked.launch.klo_base + SimDuration::from_nanos(1);
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
    }

    #[test]
    fn default_calibration_is_debuggable_and_cloneable() {
        let calib = Calibration::default();
        let clone = calib.clone();
        let repr = format!("{clone:?}");
        assert!(repr.contains("PcieCalib"));
        assert!(repr.contains("UvmCalib"));
    }
}
