//! Fig. 4b: single-core crypto throughput per CPU. `--functional` also
//! times this repo's own crypto on the host and reports it on stderr.

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
    // The functional column is a wall-clock measurement of this machine,
    // so it goes to stderr: stdout stays the same on every run.
    for e in fig04b::entries(functional) {
        println!(
            "{:<14} {:<20} {:>10.2} {:>12}",
            e.cpu.to_string(),
            e.alg.to_string(),
            e.modeled_gbs,
            "-"
        );
        if let Some(gbs) = e.functional_gbs {
            eprintln!(
                "fig04b_crypto: functional {} {}: {gbs:.3} GB/s",
                e.cpu, e.alg
            );
        }
    }
}
