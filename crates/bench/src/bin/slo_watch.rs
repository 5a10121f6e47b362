//! SLO watchtower harness: windowed rollups, multi-window burn-rate
//! alerts, and storm-correlated incident timelines over a virtual-time
//! soak.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin slo_watch            # stormy chaos soak
//! cargo run --release -p hcc-bench --bin slo_watch -- --serve # calm serving soak
//! ```
//!
//! The default drives the canonical chaos-shaped soak (crypto-burst
//! calendar, Abort policy) whose peak windows burn every tenant's error
//! budget past the alert threshold, and renders the incident log plus
//! the per-window rollup table. `--serve` drives the calm low-util
//! serving soak instead (empty timeline). Stdout carries only
//! virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//!
//! Exports: `--json <path>` writes the full watch report plus wall-clock
//! bench figures; `--prom <path>` writes the Prometheus-style text
//! exposition with `tenant`/`window` labels.
//!
//! Exit codes: 0 = soak healthy, 1 = underlying soak violated a
//! structural invariant, 2 = usage error.

use hcc_bench::cli::{self, Cli};
use hcc_bench::engine;
use hcc_bench::watch::WatchSoak;
use hcc_types::json::ToJson;

const CLI: Cli = Cli {
    bin: "slo_watch",
    usage: "usage: slo_watch [--serve] [--flight] [--requests N] [--days N] [--gpus N] [--seed S] \
            [--profile NAME] [--util F] [--json <path>] [--prom <path>]",
};

fn main() {
    let mut soak = WatchSoak::new();
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;

    let mut args = CLI.args();
    while let Some(arg) = args.next() {
        if soak.flag(&CLI, &arg, &mut args) {
            continue;
        }
        match arg.as_str() {
            "--flight" => soak.set_flight(Some(hcc_trace::FlightConfig::default().from_env())),
            "--profile" => {
                soak.storm.profiles = vec![CLI.profile(&arg, &CLI.value(&arg, args.next()))];
            }
            "--util" => soak.serve.target_util = CLI.f64_in(&arg, args.next(), cli::UTIL),
            "--json" => json_path = Some(CLI.value(&arg, args.next())),
            "--prom" => prom_path = Some(CLI.value(&arg, args.next())),
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }

    let wall = std::time::Instant::now();
    let run = soak.run(engine::global());
    let elapsed = wall.elapsed();
    let report = run.watch.expect("watch plane enabled");

    if soak.serve_mode {
        let cfg = &soak.serve;
        print!(
            "=== slo watchtower: serve-shaped soak ===\n\
             soak serve | requests {} | gpus {} | util {:.2} | scheduler {} | seed {:#x}\n",
            cfg.requests, cfg.gpus, cfg.target_util, cfg.schedulers[0], cfg.seed,
        );
    } else {
        let cfg = &soak.storm;
        print!(
            "=== slo watchtower: chaos-shaped soak ===\n\
             soak chaos | requests {} | days {} | gpus {} | profile {} | policy {} | seed {:#x}\n",
            cfg.requests, cfg.days, cfg.gpus, cfg.profiles[0].name, cfg.policies[0], cfg.seed,
        );
    }
    print!("{}", report.render());

    if let Some(path) = prom_path {
        cli::write_or_die(&path, &report.to_prometheus());
    }

    if let Some(path) = json_path {
        let windows = report.windows.len() as u64;
        let bench = [
            ("windows_per_sec", cli::per_sec(windows, elapsed)),
            ("windows", windows),
            ("incidents", report.incidents.len() as u64),
            ("alerts", report.alerts()),
            ("storm_correlated", report.storm_correlated() as u64),
            ("wall_ms", elapsed.as_millis() as u64),
        ];
        cli::write_export(&path, &bench, "watch", report.to_json());
    }

    engine::emit_stats();

    if !run.healthy {
        eprintln!("slo_watch: underlying soak violated a structural invariant");
        std::process::exit(1);
    }
}
