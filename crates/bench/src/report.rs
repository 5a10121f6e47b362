//! Small output helpers shared by the figure harnesses: section headers,
//! ratios, and failure lines on stdout.

/// Prints a header followed by a rule line.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio as `x N.NN`.
pub fn ratio(v: f64) -> String {
    if v.is_finite() {
        format!("x{v:.2}")
    } else {
        "x inf".to_string()
    }
}

/// Prints each failure as a `!! label: error` line, keeping the figure
/// partially rendered instead of aborting it. Deterministic: failures
/// arrive in request order, so stdout stays thread-count invariant.
pub fn failure_lines(failures: &[crate::engine::ScenarioFailure]) {
    for f in failures {
        println!("!! {f}");
    }
}

/// The tail call of every figure binary: when any scenario failed, print
/// a count on stderr and exit nonzero so CI catches partial reports. The
/// per-row `!! label: error` lines are expected to have been rendered
/// already (via [`failure_lines`]).
pub fn exit_on_failures(failures: &[crate::engine::ScenarioFailure]) {
    if failures.is_empty() {
        return;
    }
    eprintln!("{} scenario(s) failed:", failures.len());
    for f in failures {
        eprintln!("  {f}");
    }
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(1.4242), "x1.42");
        assert_eq!(ratio(f64::INFINITY), "x inf");
        assert_eq!(ratio(f64::NAN), "x inf");
    }
}
