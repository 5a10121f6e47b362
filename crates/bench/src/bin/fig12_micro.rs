//! Fig. 12: microbenchmarks — (a) launch trains, (b) fusion sweep,
//! (c) stream overlap. Pass `a`, `b`, or `c` to run one panel; default
//! runs all.

use hcc_bench::cli::Cli;
use hcc_bench::figures::fig12;
use hcc_bench::report;
use hcc_types::{ByteSize, CcMode, SimDuration};

const CLI: Cli = Cli {
    bin: "fig12_micro",
    usage: "usage: fig12_micro [a|b|c]",
};

fn panel_a() {
    report::section("Fig. 12a — KLO vs launch index (K0 x100 then K1 x100)");
    for cc in CcMode::ALL {
        let recs = fig12::launch_train(cc, 100, 100);
        let pick = [0usize, 1, 2, 50, 99, 100, 101, 150, 199];
        println!("[{cc}]");
        println!("{:>6} {:>12} {:>6}", "idx", "KLO", "first");
        for i in pick {
            let r = &recs[i];
            println!("{:>6} {:>12} {:>6}", i, r.klo.to_string(), r.first);
        }
    }
}

fn panel_b() {
    report::section("Fig. 12b — fusion sweep (total KET 100ms split into N launches)");
    for cc in CcMode::ALL {
        println!("[{cc}]");
        println!(
            "{:>9} {:>12} {:>12} {:>12}",
            "launches", "sum KLO", "sum LQT", "span"
        );
        for p in fig12::fusion_sweep(cc, SimDuration::millis(100), 1024) {
            println!(
                "{:>9} {:>12} {:>12} {:>12}",
                p.launches,
                p.total_klo.to_string(),
                p.total_lqt.to_string(),
                p.span.to_string()
            );
        }
    }
}

fn panel_c() {
    report::section("Fig. 12c — overlap speedup vs stream count");
    let streams = [1u32, 2, 4, 8, 16, 32, 64];
    for total in [ByteSize::mib(512), ByteSize::gib(1)] {
        for ket in [SimDuration::millis(1), SimDuration::millis(100)] {
            println!("total {total}, KET {ket}:");
            println!("{:>8} {:>12} {:>12}", "streams", "base", "cc");
            let base = fig12::overlap_series(CcMode::Off, total, ket, &streams);
            let cc = fig12::overlap_series(CcMode::On, total, ket, &streams);
            for ((n, b), (_, c)) in base.iter().zip(cc.iter()) {
                println!(
                    "{:>8} {:>12} {:>12}",
                    n,
                    report::ratio(b.speedup()),
                    report::ratio(c.speedup())
                );
            }
        }
    }
}

fn main() {
    let mut args = CLI.args();
    let panel = args.next();
    if let Some(extra) = args.next() {
        CLI.bad(&extra, "unexpected argument (one panel at most)");
    }
    match panel.as_deref() {
        None => {
            panel_a();
            panel_b();
            panel_c();
        }
        Some("a") => panel_a(),
        Some("b") => panel_b(),
        Some("c") => panel_c(),
        Some(other) => CLI.bad(other, "unknown panel (expected a|b|c)"),
    }
}
