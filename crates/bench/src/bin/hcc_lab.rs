//! `hcc_lab` — the lab's command-line front door.
//!
//! ```sh
//! cargo run -p hcc-bench --bin hcc_lab -- list
//! cargo run -p hcc-bench --bin hcc_lab -- run 3dconv --cc
//! cargo run -p hcc-bench --bin hcc_lab -- report sc
//! cargo run -p hcc-bench --bin hcc_lab -- deck my_workload.hcc --report
//! cargo run -p hcc-bench --bin hcc_lab -- trace gemm --cc   # JSON events
//! ```

use hcc_bench::cli::Cli;
use hcc_core::{CcReport, PerfModel, PhaseBreakdown};
use hcc_runtime::SimConfig;
use hcc_types::json::ToJson;
use hcc_types::CcMode;
use hcc_workloads::{parse_workload, runner, suites, WorkloadSpec};

const CLI: Cli = Cli {
    bin: "hcc_lab",
    usage: "usage: hcc_lab <command>\n\
            \n\
            commands:\n\
            \x20 list                      list the built-in benchmark apps\n\
            \x20 run <app> [--cc]          run one app, print the phase breakdown\n\
            \x20 report <app>              base-vs-CC characterization + advice\n\
            \x20 deck <file> [--cc|--report]  run a workload deck (text format)\n\
            \x20 trace <app> [--cc]        dump the trace as JSON lines\n\
            \x20 chrome <app> [--cc]       dump a chrome://tracing JSON file to stdout",
};

/// A command's operand and the flags after it: `--cc` picks CC-on, and
/// `--report` is accepted only where `flags` lists it.
struct Operand {
    name: String,
    cc: CcMode,
    report: bool,
}

fn operand(cmd: &str, mut args: impl Iterator<Item = String>, flags: &[&str]) -> Operand {
    let name = args
        .next()
        .unwrap_or_else(|| CLI.bad(cmd, "missing operand"));
    let mut op = Operand {
        name,
        cc: CcMode::Off,
        report: false,
    };
    for arg in args {
        match arg.as_str() {
            "--cc" if flags.contains(&"--cc") => op.cc = CcMode::On,
            "--report" if flags.contains(&"--report") => op.report = true,
            _ => CLI.bad(&arg, "unknown flag"),
        }
    }
    op
}

fn load_spec(name: &str) -> WorkloadSpec {
    suites::by_name(name)
        .or_else(|| suites::uvm_variant(name))
        .unwrap_or_else(|| {
            eprintln!("unknown app '{name}' — try `hcc_lab list`");
            std::process::exit(1);
        })
}

fn cmd_list() {
    println!(
        "{:<16} {:<10} {:>9} {:>10} {:>6}",
        "app", "suite", "launches", "copies", "uvm"
    );
    for spec in suites::all() {
        println!(
            "{:<16} {:<10} {:>9} {:>10} {:>6}",
            spec.name,
            spec.suite.to_string(),
            spec.launch_count(),
            spec.copy_bytes().to_string(),
            spec.uvm,
        );
    }
    println!(
        "\nUVM variants (for `run`/`report`): {}",
        suites::UVM_VARIANT_APPS.join(", ")
    );
}

fn run_and_print(spec: &WorkloadSpec, cc: CcMode) {
    let r = runner::run(spec, SimConfig::new(cc)).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        std::process::exit(1);
    });
    let breakdown = PhaseBreakdown::from_timeline(&r.timeline);
    let fitted = PerfModel::fit(&r.timeline);
    println!("{} [{}]", spec.name, cc);
    println!("  {breakdown}");
    println!("  [{}]", breakdown.render_bar(60));
    println!(
        "  alpha={:.2} beta={:.2} | hypercalls={} | uvm faults={}",
        fitted.model.alpha, fitted.model.beta, r.td.hypercalls, r.uvm.faults
    );
}

fn cmd_report(name: &str) {
    let spec = load_spec(name);
    let base = runner::run(&spec, SimConfig::new(CcMode::Off)).expect("base run");
    let cc = runner::run(&spec, SimConfig::new(CcMode::On)).expect("cc run");
    let report = CcReport::generate(spec.name, &base.timeline, &cc.timeline);
    print!("{}", report.to_markdown());
}

fn cmd_deck(op: &Operand) {
    let path = &op.name;
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let spec = parse_workload(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    if op.report {
        let base = runner::run(&spec, SimConfig::new(CcMode::Off)).expect("base run");
        let cc = runner::run(&spec, SimConfig::new(CcMode::On)).expect("cc run");
        print!(
            "{}",
            CcReport::generate(spec.name, &base.timeline, &cc.timeline).to_markdown()
        );
    } else {
        run_and_print(&spec, op.cc);
    }
}

fn cmd_trace(op: &Operand) {
    let spec = load_spec(&op.name);
    let r = runner::run(&spec, SimConfig::new(op.cc)).expect("run");
    for event in r.timeline.events() {
        println!("{}", event.to_json_string());
    }
}

fn cmd_chrome(op: &Operand) {
    let spec = load_spec(&op.name);
    let cfg = SimConfig::new(op.cc).with_metrics(true).with_causal(true);
    let r = runner::run(&spec, cfg).expect("run");
    let mut export = hcc_trace::ChromeExport::new().with_causal(&r.causal);
    if let Some(set) = r.metrics.as_ref() {
        export = export.with_metrics(set);
    }
    print!("{}", export.render(&r.timeline));
}

fn main() {
    let mut args = CLI.args();
    let cmd = args.next().unwrap_or_else(|| CLI.usage());
    match cmd.as_str() {
        "list" => {
            if let Some(extra) = args.next() {
                CLI.bad(&extra, "unexpected argument");
            }
            cmd_list();
        }
        "run" => {
            let op = operand(&cmd, args, &["--cc"]);
            run_and_print(&load_spec(&op.name), op.cc);
        }
        "report" => cmd_report(&operand(&cmd, args, &[]).name),
        "deck" => cmd_deck(&operand(&cmd, args, &["--cc", "--report"])),
        "trace" => cmd_trace(&operand(&cmd, args, &["--cc"])),
        "chrome" => cmd_chrome(&operand(&cmd, args, &["--cc"])),
        _ => CLI.bad(&cmd, "unknown command"),
    }
}
