//! `hccperf --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, on stdout, the run manifest,
//! one line per metric with its unit, and as the last line the result
//! object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! a correctness check fails and 2 on a usage error.
//!
//! With `--setup-only 1` it only sets the workload up, prints `ready`,
//! then runs the machine-speed calibration, prints its seconds and
//! exits: the untraced run starts itself that way to time set-up from
//! process start and to track the machine's speed.

use std::path::PathBuf;
use std::process::ExitCode;

use hccperf::{Params, Size, Workload, DEFAULT_SEED};

/// Directory, under the working directory, that receives the traced
/// run's span files.
const OUT_DIR: &str = ".hccperf";

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "hccperf: {problem}\nusage: hccperf --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--setup-only <0|1>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&bad()),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(n) => seed = Some(n),
                Err(_) => return usage(&bad()),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s >= 0.0 => seconds = Some(s),
                _ => return usage(&bad()),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&bad()),
            },
            "--setup-only" => match value.as_str() {
                "0" => setup_only = false,
                "1" => setup_only = true,
                _ => return usage(&bad()),
            },
            _ => return usage(&format!("unknown flag {flag:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };

    let program = match std::env::current_exe() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("hccperf: cannot locate its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        size: Size::BENCH,
        reference: (seed == DEFAULT_SEED).then(|| workload.reference()),
        out_dir: Some(PathBuf::from(OUT_DIR)),
        program,
    };
    if setup_only {
        hccperf::set_up(&params);
        println!("{}", hccperf::READY);
        println!("{}", hccperf::calibrate());
        return ExitCode::SUCCESS;
    }

    let outcome = hccperf::run(&params);

    println!("manifest {}", outcome.manifest.to_json());
    for note in &outcome.notes {
        println!("note {note}");
    }
    for problem in &outcome.problems {
        println!("FAIL {problem}");
    }
    for m in &outcome.metrics {
        println!("metric {:<24} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
