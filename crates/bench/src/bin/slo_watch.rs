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
use hcc_bench::watch::{self, WatchReport};
use hcc_bench::{chaos, engine, serving};
use hcc_types::json::{Json, ToJson};
use hcc_types::StormProfile;

const CLI: Cli = Cli {
    bin: "slo_watch",
    usage: "usage: slo_watch [--serve] [--flight] [--requests N] [--days N] [--gpus N] [--seed S] \
            [--profile NAME] [--util F] [--json <path>] [--prom <path>]",
};

fn main() {
    // The two canonical soaks; flags override whichever one applies.
    let mut serve = watch::calm_soak();
    let mut storm = watch::stormy_soak();
    serve.watch = Some(watch::WatchConfig::default().from_env());
    storm.watch = serve.watch;
    let mut serve_mode = false;
    let mut json_path: Option<String> = None;
    let mut prom_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve" => serve_mode = true,
            "--flight" => {
                serve.flight = Some(hcc_trace::FlightConfig::default().from_env());
                storm.flight = serve.flight;
            }
            "--requests" => {
                serve.requests = CLI.u64_in(&arg, args.next(), cli::REQUESTS);
                storm.requests = serve.requests;
            }
            "--days" => storm.days = CLI.u64_in(&arg, args.next(), cli::DAYS),
            "--gpus" => {
                serve.gpus = CLI.u64_in(&arg, args.next(), cli::GPUS) as usize;
                storm.gpus = serve.gpus;
            }
            "--seed" => {
                serve.seed = CLI.u64(&arg, args.next());
                storm.seed = serve.seed;
            }
            "--profile" => {
                let raw = CLI.value(&arg, args.next());
                storm.profiles = vec![StormProfile::by_name(raw.trim()).unwrap_or_else(|| {
                    let known: Vec<&str> = StormProfile::builtin().iter().map(|p| p.name).collect();
                    CLI.bad(
                        &arg,
                        &format!(
                            "unknown storm profile {:?} (profiles: {})",
                            raw.trim(),
                            known.join(", ")
                        ),
                    )
                })];
            }
            "--util" => serve.target_util = CLI.f64_in(&arg, args.next(), cli::UTIL),
            "--json" => json_path = args.next(),
            "--prom" => prom_path = args.next(),
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }

    let wall = std::time::Instant::now();
    let (header, report, healthy): (String, WatchReport, bool) = if serve_mode {
        let cfg = serve;
        let rep = serving::run(&cfg, engine::global());
        let header = format!(
            "=== slo watchtower: serve-shaped soak ===\n\
             soak serve | requests {} | gpus {} | util {:.2} | scheduler {} | seed {:#x}\n",
            cfg.requests, cfg.gpus, cfg.target_util, cfg.schedulers[0], cfg.seed,
        );
        let healthy = rep.conserved();
        let watch = rep
            .runs
            .into_iter()
            .next()
            .and_then(|r| r.watch)
            .expect("watch plane enabled");
        (header, watch, healthy)
    } else {
        let cfg = storm;
        let rep = chaos::run(&cfg, engine::global());
        let header = format!(
            "=== slo watchtower: chaos-shaped soak ===\n\
             soak chaos | requests {} | days {} | gpus {} | profile {} | policy {} | seed {:#x}\n",
            cfg.requests, cfg.days, cfg.gpus, cfg.profiles[0].name, cfg.policies[0], cfg.seed,
        );
        let healthy = rep.healthy();
        let watch = rep
            .profiles
            .into_iter()
            .next()
            .and_then(|p| p.cells.into_iter().next())
            .and_then(|c| c.watch)
            .expect("watch plane enabled");
        (header, watch, healthy)
    };
    let elapsed = wall.elapsed();

    print!("{header}");
    print!("{}", report.render());

    if let Some(path) = prom_path {
        cli::write_or_die(&path, &report.to_prometheus());
    }

    if let Some(path) = json_path {
        let stats = engine::global().stats();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let doc = Json::Obj(vec![
            (
                "bench".to_string(),
                Json::Obj(vec![
                    (
                        "windows_per_sec".to_string(),
                        Json::U64((report.windows.len() as f64 / secs).round() as u64),
                    ),
                    (
                        "windows".to_string(),
                        Json::U64(report.windows.len() as u64),
                    ),
                    (
                        "incidents".to_string(),
                        Json::U64(report.incidents.len() as u64),
                    ),
                    ("alerts".to_string(), Json::U64(report.alerts())),
                    (
                        "storm_correlated".to_string(),
                        Json::U64(report.storm_correlated() as u64),
                    ),
                    ("wall_ms".to_string(), Json::U64(elapsed.as_millis() as u64)),
                ]),
            ),
            ("watch".to_string(), report.to_json()),
            ("engine".to_string(), stats.to_json()),
        ]);
        cli::write_or_die(&path, &doc.to_string());
    }

    engine::emit_stats();

    if !healthy {
        eprintln!("slo_watch: underlying soak violated a structural invariant");
        std::process::exit(1);
    }
}
