//! Fig. 4b: single-core crypto throughput per CPU.

use hcc_bench::cli::Cli;
use hcc_bench::figures::fig04b;
use hcc_bench::report;

const CLI: Cli = Cli {
    bin: "fig04b_crypto",
    usage: "usage: fig04b_crypto [--functional]",
};

fn main() {
    let mut functional = false;
    for arg in CLI.args() {
        match arg.as_str() {
            "--functional" => functional = true,
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }
    report::section("Fig. 4b — single-core crypto throughput (GB/s)");
    println!(
        "{:<14} {:<20} {:>10} {:>12}",
        "cpu", "algorithm", "modeled", "functional"
    );
    for e in fig04b::entries(functional) {
        let func = e
            .functional_gbs
            .map(|v| format!("{v:.3}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<14} {:<20} {:>10.2} {:>12}",
            e.cpu.to_string(),
            e.alg.to_string(),
            e.modeled_gbs,
            func
        );
    }
}
