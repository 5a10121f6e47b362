//! Chaos lab harness: seeded fault storms over virtual-time soak runs,
//! comparing recovery policies head-to-head by SLO impact.
//!
//! ```sh
//! cargo run --release -p hcc-bench --bin chaos -- --requests 20000 --days 1
//! ```
//!
//! Stdout carries only virtual-time figures and is byte-identical across
//! `HCC_ENGINE_THREADS` settings (the tier-2 CI smoke diffs it).
//! Wall-clock throughput (requests/sec under storm) goes to the `--json`
//! side file and the stderr engine-stats block.
//!
//! Exit codes: 0 = run healthy (budget FAIL verdicts are expected data),
//! 1 = leak / conservation / identity violation, 2 = usage error.

use hcc_bench::chaos::{self, ChaosConfig};
use hcc_bench::cli::{self, Cli};
use hcc_bench::engine;
use hcc_types::json::ToJson;
use hcc_types::{RecoveryPolicy, StormProfile};

const CLI: Cli = Cli {
    bin: "chaos",
    usage: "usage: chaos [--requests N] [--days N] [--seed S] [--gpus N] [--tenants N] \
            [--profiles p1,p2|all] [--policies retry,degrade,abort|all] [--replicas N] \
            [--episodes-per-day N] [--arrival poisson|bursty|diurnal] \
            [--scheduler fifo|priority|batching] [--watch] [--flight] [--json <path>]",
};

fn parse_profiles(raw: &str) -> Vec<StormProfile> {
    if raw.trim() == "all" {
        return StormProfile::builtin();
    }
    raw.split(',')
        .map(|name| CLI.profile("--profiles", name))
        .collect()
}

fn parse_policies(raw: &str) -> Vec<RecoveryPolicy> {
    if raw.trim() == "all" {
        return ChaosConfig::default().policies;
    }
    raw.split(',')
        .map(|name| {
            RecoveryPolicy::parse(name.trim()).unwrap_or_else(|| {
                CLI.bad(
                    "--policies",
                    &format!(
                        "unknown recovery policy {:?} (policies: retry, degrade, abort, or all)",
                        name.trim()
                    ),
                )
            })
        })
        .collect()
}

fn main() {
    // Harness default, then flags.
    let mut cfg = ChaosConfig::default();
    let mut json_path: Option<String> = None;
    let mut tenant_count = 2usize;

    let mut args = CLI.args();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--requests" => cfg.requests = CLI.u64_in(&arg, args.next(), cli::REQUESTS),
            "--days" => cfg.days = CLI.u64_in(&arg, args.next(), cli::DAYS),
            "--seed" => cfg.seed = CLI.u64(&arg, args.next()),
            "--gpus" => cfg.gpus = CLI.u64_in(&arg, args.next(), cli::GPUS) as usize,
            "--tenants" => tenant_count = CLI.u64_in(&arg, args.next(), cli::tenants()) as usize,
            "--replicas" => cfg.replicas = CLI.u64_in(&arg, args.next(), 1..=16) as u32,
            "--episodes-per-day" => {
                cfg.episodes_per_day = CLI.u64_in(&arg, args.next(), 1..=1440) as u32;
            }
            "--profiles" => cfg.profiles = parse_profiles(&CLI.value(&arg, args.next())),
            "--policies" => cfg.policies = parse_policies(&CLI.value(&arg, args.next())),
            "--arrival" => cfg.arrival = CLI.arrival(&arg, args.next()),
            "--scheduler" => cfg.scheduler = CLI.scheduler(&arg, &CLI.value(&arg, args.next())),
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
    cfg.budgets = chaos::default_budgets(&cfg.tenants);

    let wall = std::time::Instant::now();
    let report = chaos::run(&cfg, engine::global());
    let elapsed = wall.elapsed();

    print!("{}", report.render());

    if let Some(path) = json_path {
        let (pass, fail) = report.verdict_counts();
        let bench = [
            (
                "requests_per_sec",
                cli::per_sec(report.total_requests(), elapsed),
            ),
            ("total_requests", report.total_requests()),
            ("cells", report.cells().count() as u64),
            ("verdict_pass", pass),
            ("verdict_fail", fail),
            ("wall_ms", elapsed.as_millis() as u64),
        ];
        cli::write_export(&path, &bench, "report", report.to_json());
    }

    engine::emit_stats();

    if !report.healthy() {
        eprintln!(
            "chaos: leak or conservation violation: {}",
            report.first_violation().unwrap_or("identity check failed")
        );
        std::process::exit(1);
    }
}
