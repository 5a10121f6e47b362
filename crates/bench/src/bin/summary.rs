//! One-command reproduction summary: regenerates every headline statistic
//! and scores all nine observations. This is the number-for-number source
//! of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin summary
//! ```

use hcc_bench::cli::{self, Cli};
use hcc_bench::engine;
use hcc_bench::figures::{self, fig04a, fig05, fig06, fig07, fig09, fig12};
use hcc_bench::report;
use hcc_core::observations as obs;
use hcc_crypto::{CryptoAlgorithm, SoftCryptoModel};
use hcc_ml::cnn::CnnEstimator;
use hcc_ml::llm::{Backend, LlmConfig, LlmEstimator, LlmPrecision};
use hcc_trace::geomean;
use hcc_types::json::{Json, ToJson};
use hcc_types::{ByteSize, CcMode, CpuModel, HostMemKind, SimDuration};
use hcc_workloads::{suites, Scenario};

const CLI: Cli = Cli {
    bin: "summary",
    usage: "usage: summary [--json <path>]",
};

fn line(label: &str, paper: &str, measured: String) {
    println!("{label:<44} {paper:>14} {measured:>14}");
}

/// The machine-readable benchmark summary: per-app end-to-end `P` and
/// Fig. 3 phase totals in both modes, plus the engine's self-profile
/// (wall time, cache hits). Every run resolves from the engine cache when
/// the figures above already simulated it.
fn bench_summary(failures: &mut Vec<engine::ScenarioFailure>) -> Json {
    let mut batch = Vec::new();
    for spec in suites::all() {
        for cc in CcMode::ALL {
            batch.push(Scenario::standard(spec.name, figures::cfg(cc)));
        }
    }
    let results = engine::global().run_all(&batch);
    let mut apps = Vec::new();
    for (scenario, result) in batch.iter().zip(&results) {
        match result.run() {
            Ok(run) => apps.push(Json::Obj(vec![
                (
                    "app".to_string(),
                    Json::Str(scenario.app_name().to_string()),
                ),
                ("cc".to_string(), Json::Str(scenario.cc().to_string())),
                (
                    "p_ns".to_string(),
                    Json::U64(run.timeline.span().as_nanos()),
                ),
                ("phases".to_string(), run.timeline.phase_totals().to_json()),
            ])),
            Err(f) => failures.push(f),
        }
    }
    Json::Obj(vec![
        ("apps".to_string(), Json::Arr(apps)),
        ("engine".to_string(), engine::global().stats().to_json()),
    ])
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut args = CLI.args();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = Some(CLI.value(&arg, args.next())),
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }
    // Prefetch every simulation-backed figure population in one parallel
    // batch; the per-figure calls below then resolve from the engine's
    // cache (overlapping populations — e.g. Fig. 7 ⊂ Fig. 5's apps plus
    // the Fig. 9 explicit variants — are simulated once).
    let mut prefetch = Vec::new();
    prefetch.extend(fig04a::scenarios());
    prefetch.extend(fig05::scenarios());
    prefetch.extend(fig06::scenarios(ByteSize::mib(64), 40));
    prefetch.extend(fig07::scenarios());
    prefetch.extend(fig09::scenarios());
    let _ = engine::global().run_all(&prefetch);

    report::section("hcc reproduction summary (paper vs measured)");
    println!("{:<44} {:>14} {:>14}", "statistic", "paper", "measured");

    // Any scenario failure (injected fault escalated to abort, panic)
    // still renders the surviving statistics; the tail exit call turns
    // the partial report into a nonzero exit for CI.
    let mut failures = Vec::new();

    // Fig. 4a
    let c4a = fig04a::try_series();
    report::failure_lines(&c4a.failures);
    let pts = c4a.data;
    failures.extend(c4a.failures);
    let base_pin = fig04a::peak(&pts, CcMode::Off, HostMemKind::Pinned);
    let base_page = fig04a::peak(&pts, CcMode::Off, HostMemKind::Pageable);
    let cc_pin = fig04a::peak(&pts, CcMode::On, HostMemKind::Pinned);
    let cc_page = fig04a::peak(&pts, CcMode::On, HostMemKind::Pageable);
    line("CC pinned H2D peak (GB/s)", "3.03", format!("{cc_pin:.2}"));

    // Fig. 5
    let c5 = fig05::try_rows();
    report::failure_lines(&c5.failures);
    let rows5 = c5.data;
    failures.extend(c5.failures);
    let (mean, max, min) = fig05::stats(&rows5);
    line("copy slowdown mean", "x5.80", report::ratio(mean));
    line("copy slowdown max", "x19.69", report::ratio(max));
    line("copy slowdown min", "x1.17", report::ratio(min));

    // Fig. 6
    let c6 = fig06::try_ratios(ByteSize::mib(64), 40);
    report::failure_lines(&c6.failures);
    let r6 = c6.data;
    failures.extend(c6.failures);
    line("cudaMallocHost", "x5.72", report::ratio(r6[0]));
    line("cudaMalloc", "x5.67", report::ratio(r6[1]));
    line("cudaFree", "x10.54", report::ratio(r6[2]));
    line("cudaMallocManaged", "x5.43", report::ratio(r6[3]));
    line("managed cudaFree", "x3.35", report::ratio(r6[4]));

    // Fig. 7
    let c7 = fig07::try_rows();
    report::failure_lines(&c7.failures);
    let rows7 = c7.data;
    failures.extend(c7.failures);
    let (klo, lqt, kqt) = fig07::means(&rows7);
    line("mean KLO slowdown", "x1.42", report::ratio(klo));
    line("mean LQT slowdown", "x1.43", report::ratio(lqt));
    line("mean KQT slowdown", "x2.32", report::ratio(kqt));

    // Fig. 9
    let c9 = fig09::try_rows();
    report::failure_lines(&c9.failures);
    let rows9 = c9.data;
    failures.extend(c9.failures);
    let nonuvm: Vec<f64> = rows9.iter().map(fig09::Row::nonuvm_ratio).collect();
    let uvm_base: Vec<f64> = rows9.iter().map(fig09::Row::uvm_base_slowdown).collect();
    let uvm_cc: Vec<f64> = rows9.iter().map(fig09::Row::uvm_cc_slowdown).collect();
    line(
        "non-UVM KET delta",
        "+0.48%",
        format!("{:+.2}%", (hcc_trace::mean_ratio(&nonuvm) - 1.0) * 100.0),
    );
    line(
        "UVM base slowdown mean",
        "x5.29",
        report::ratio(hcc_trace::mean_ratio(&uvm_base)),
    );
    line(
        "UVM-CC slowdown geomean",
        "(mean 188.87)",
        report::ratio(geomean(&uvm_cc)),
    );

    // Fig. 13
    let cnn = CnnEstimator::default();
    line(
        "CNN batch-64 CC throughput drop",
        "24%",
        format!(
            "{:.1}%",
            cnn.mean_cc_drop(64, hcc_core::Precision::Fp32) * 100.0
        ),
    );
    line(
        "CNN batch-1024 CC throughput drop",
        "7.3%",
        format!(
            "{:.1}%",
            cnn.mean_cc_drop(1024, hcc_core::Precision::Fp32) * 100.0
        ),
    );

    // Fig. 14
    let llm = LlmEstimator::default();
    let mut min_speedup = f64::MAX;
    for b in hcc_ml::FIG14_BATCHES {
        for p in [LlmPrecision::Bf16, LlmPrecision::Awq] {
            for cc in CcMode::ALL {
                min_speedup = min_speedup.min(llm.vllm_speedup(p, b, cc));
            }
        }
    }
    line(
        "min vLLM speedup over HF (all cells)",
        ">1.0",
        format!("{min_speedup:.2}"),
    );

    // Observations.
    report::section("observations");
    let emr = SoftCryptoModel::new(CpuModel::EmeraldRapids);
    let checks = vec![
        obs::obs1_bandwidth(base_pin, base_page, cc_pin, cc_page),
        obs::obs2_crypto(
            emr.throughput(CryptoAlgorithm::AesGcm128).as_gb_per_s(),
            emr.throughput(CryptoAlgorithm::Ghash).as_gb_per_s(),
            base_pin,
        ),
        obs::obs3_copy(&rows5.iter().map(fig05::Row::slowdown).collect::<Vec<_>>()),
        obs::obs4_launch(klo, lqt, kqt),
        obs::obs5_ket(hcc_trace::mean_ratio(&nonuvm), geomean(&uvm_cc)),
        {
            // obs7 inputs from the launch train and a short-kernel fusion sweep.
            let recs = fig12::launch_train(CcMode::On, 100, 100);
            let steady: SimDuration = recs[10..90].iter().map(|r| r.klo).sum::<SimDuration>() / 80;
            let sweep = fig12::fusion_sweep(CcMode::On, SimDuration::millis(5), 1024);
            let min_span = sweep.iter().map(|p| p.span).min().expect("non-empty");
            let last = sweep.last().expect("non-empty");
            obs::obs7_fusion(
                recs[0].klo / steady,
                last.span.as_secs_f64() > min_span.as_secs_f64() * 1.2
                    && last.total_klo > sweep[0].total_klo,
            )
        },
        {
            let total = ByteSize::mib(512);
            let base = fig12::overlap_series(CcMode::Off, total, SimDuration::millis(1), &[64])[0]
                .1
                .speedup();
            let cc_s = fig12::overlap_series(CcMode::On, total, SimDuration::millis(1), &[64])[0]
                .1
                .speedup();
            let cc_l = fig12::overlap_series(CcMode::On, total, SimDuration::millis(100), &[64])[0]
                .1
                .speedup();
            obs::obs8_overlap(base, cc_s, cc_l)
        },
        {
            let bf16 = |batch, cc| {
                llm.throughput(LlmConfig {
                    backend: Backend::Vllm,
                    precision: LlmPrecision::Bf16,
                    batch,
                    cc,
                })
            };
            let awq = |batch, cc| {
                llm.throughput(LlmConfig {
                    backend: Backend::Vllm,
                    precision: LlmPrecision::Awq,
                    batch,
                    cc,
                })
            };
            obs::obs9_quant(
                25.0,
                min_speedup > 1.0,
                awq(4, CcMode::On) > bf16(4, CcMode::On),
                bf16(128, CcMode::On) > awq(128, CcMode::On),
            )
        },
    ];
    let mut pass = 0;
    for c in &checks {
        println!("{c}");
        if c.holds {
            pass += 1;
        }
    }
    println!("\n{pass}/{} observation checks pass", checks.len());

    // Machine-readable export (written last so the engine self-profile
    // covers every batch above). Only wall-clock fields differ between
    // thread counts; the per-app entries are deterministic.
    if let Some(path) = json_path {
        cli::write_or_die(&path, &bench_summary(&mut failures).to_string());
    }

    // Engine statistics carry wall-clock times, so they go to stderr:
    // stdout stays byte-identical across HCC_ENGINE_THREADS settings
    // (the tier-2 CI smoke diffs it).
    engine::emit_stats();

    report::exit_on_failures(&failures);
}
