//! Multi-tenant CC serving harness: drives a seeded open-loop request
//! stream through every configured scheduler on a cluster of simulated
//! confidential GPUs, CC-on vs CC-off.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin serve -- --requests 100000 --gpus 4
//! ```
//!
//! Stdout carries only virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//! Wall-clock throughput (requests/sec) and the engine's shape count
//! (`shapes_simulated`, which is `2 × distinct_shapes` whatever the
//! request count) go to the `--json` side file and the stderr
//! engine-stats block.
//!
//! Measured on a 2-core x86-64 container with the default 2-tenant,
//! 4-GPU, 3-scheduler config: `--requests 100000` runs in ~0.2 s and
//! `--requests 1000000` in ~2.2 s wall.

use hcc_bench::cli::{self, Cli};
use hcc_bench::engine;
use hcc_bench::serving::{self, SchedulerKind, ServingConfig};
use hcc_types::json::ToJson;

const CLI: Cli = Cli {
    bin: "serve",
    usage: "usage: serve [--requests N] [--gpus N] [--tenants N] [--seed S] \
            [--arrival poisson|bursty|diurnal] [--scheduler fifo|priority|batching|all] \
            [--util F] [--max-batch N] [--watch] [--flight] [--json <path>]",
};

fn main() {
    // Harness default, then flags.
    let mut cfg = ServingConfig {
        requests: 100_000,
        ..ServingConfig::default()
    };
    let mut json_path: Option<String> = None;
    let mut tenant_count = 2usize;

    let mut args = CLI.args();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => cfg.requests = CLI.u64_in(&arg, args.next(), cli::REQUESTS),
            "--gpus" => cfg.gpus = CLI.u64_in(&arg, args.next(), cli::GPUS) as usize,
            "--tenants" => tenant_count = CLI.u64_in(&arg, args.next(), cli::tenants()) as usize,
            "--seed" => cfg.seed = CLI.u64(&arg, args.next()),
            "--max-batch" => {
                cfg.max_batch = CLI.u64_in(&arg, args.next(), cli::MAX_BATCH) as usize;
            }
            "--util" => cfg.target_util = CLI.f64_in(&arg, args.next(), cli::UTIL),
            "--arrival" => cfg.arrival = CLI.arrival(&arg, args.next()),
            "--scheduler" => {
                let raw = CLI.value(&arg, args.next());
                cfg.schedulers = if raw == "all" {
                    SchedulerKind::ALL.to_vec()
                } else {
                    vec![CLI.scheduler(&arg, &raw)]
                };
            }
            "--watch" => {
                cfg.watch = Some(hcc_bench::watch::WatchConfig::default().from_env());
            }
            "--flight" => {
                cfg.flight = Some(hcc_trace::FlightConfig::default().from_env());
            }
            "--json" => json_path = Some(CLI.value(&arg, args.next())),
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }
    cfg.tenants = hcc_workloads::default_tenants(tenant_count);

    let wall = std::time::Instant::now();
    let report = serving::run(&cfg, engine::global());
    let elapsed = wall.elapsed();

    print!("{}", report.render());

    if let Some(path) = json_path {
        let bench = [
            ("requests_per_sec", cli::per_sec(cfg.requests, elapsed)),
            ("shapes_simulated", engine::global().stats().scenarios_run),
            ("wall_ms", elapsed.as_millis() as u64),
        ];
        cli::write_export(&path, &bench, "report", report.to_json());
    }

    engine::emit_stats();

    if !report.conserved() {
        eprintln!("request conservation violated");
        std::process::exit(1);
    }
}
