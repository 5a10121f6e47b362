//! Flag parsing shared by the soak harnesses (`serve`, `chaos`,
//! `slo_watch`, `why`).
//!
//! Every usage error has one shape: `bin: --flag: <detail>` and then the
//! bin's usage line on stderr, exit code 2. Integers are decimal or
//! `0x`-prefixed hex ([`hcc_types::parse_u64`]), and a value outside its
//! flag's range is refused with `<value> out of range [lo, hi]`, never
//! clamped.

use std::fmt::Display;
use std::ops::RangeInclusive;

use crate::serving::ArrivalKind;

/// `--requests`: request ids are `u32`.
pub const REQUESTS: RangeInclusive<u64> = 1..=u32::MAX as u64;

/// `--gpus`: cluster width.
pub const GPUS: RangeInclusive<u64> = 1..=1024;

/// `--days`: soak length in virtual days.
pub const DAYS: RangeInclusive<u64> = 1..=3650;

/// `--max-batch`: continuous-batching cap.
pub const MAX_BATCH: RangeInclusive<u64> = 1..=1024;

/// `--util`: offered load as a fraction of CC-off cluster capacity.
pub const UTIL: RangeInclusive<f64> = 0.05..=0.95;

/// `--tenants`: how many of the default tenant population take part.
pub fn tenants() -> RangeInclusive<u64> {
    1..=hcc_workloads::default_tenants(usize::MAX).len() as u64
}

/// One bin's usage contract: its name and its usage line.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Bin name, the prefix of every diagnostic.
    pub bin: &'static str,
    /// The full usage line.
    pub usage: &'static str,
}

impl Cli {
    /// Prints the usage line and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// One-line diagnostic naming the flag and the offending value, then
    /// the usage line and exit 2.
    pub fn bad(&self, flag: &str, detail: &str) -> ! {
        eprintln!("{}: {flag}: {detail}", self.bin);
        self.usage()
    }

    /// The flag's value, or a usage error when it is missing.
    pub fn value(&self, flag: &str, value: Option<String>) -> String {
        value.unwrap_or_else(|| self.bad(flag, "missing value"))
    }

    /// An integer flag value, any `u64`.
    pub fn u64(&self, flag: &str, value: Option<String>) -> u64 {
        self.u64_in(flag, value, 0..=u64::MAX)
    }

    /// An integer flag value inside `range`.
    pub fn u64_in(&self, flag: &str, value: Option<String>, range: RangeInclusive<u64>) -> u64 {
        parse_u64_in(&self.value(flag, value), range).unwrap_or_else(|e| self.bad(flag, &e))
    }

    /// An `--arrival` process name.
    pub fn arrival(&self, flag: &str, value: Option<String>) -> ArrivalKind {
        let raw = self.value(flag, value);
        ArrivalKind::parse(&raw).unwrap_or_else(|| {
            let detail =
                format!("unknown arrival process {raw:?} (expected poisson|bursty|diurnal)");
            self.bad(flag, &detail)
        })
    }

    /// A fractional flag value inside `range`.
    pub fn f64_in(&self, flag: &str, value: Option<String>, range: RangeInclusive<f64>) -> f64 {
        parse_f64_in(&self.value(flag, value), range).unwrap_or_else(|e| self.bad(flag, &e))
    }
}

/// Writes an export side file, or exits 1 naming the path.
pub fn write_or_die(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Parses a decimal or hex integer inside `range`; the error is the
/// diagnostic's detail.
pub fn parse_u64_in(raw: &str, range: RangeInclusive<u64>) -> Result<u64, String> {
    let v = hcc_types::parse_u64(raw)
        .ok_or_else(|| format!("cannot parse {:?} as an integer", raw.trim()))?;
    in_range(v, range)
}

/// Parses a fraction inside `range`; the error is the diagnostic's
/// detail. NaN is out of every range.
pub fn parse_f64_in(raw: &str, range: RangeInclusive<f64>) -> Result<f64, String> {
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("cannot parse {raw:?} as a fraction"))?;
    in_range(v, range)
}

fn in_range<T: PartialOrd + Display>(v: T, range: RangeInclusive<T>) -> Result<T, String> {
    if range.contains(&v) {
        Ok(v)
    } else {
        Err(format!(
            "{v} out of range [{}, {}]",
            range.start(),
            range.end()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_parse_in_both_radices_inside_their_range() {
        assert_eq!(parse_u64_in(" 0x10 ", GPUS), Ok(16));
        assert_eq!(parse_u64_in("1024", GPUS), Ok(1024));
        assert_eq!(
            parse_u64_in("0xffffffffffffffff", 0..=u64::MAX),
            Ok(u64::MAX)
        );
        assert_eq!(parse_f64_in("0.95", UTIL), Ok(0.95));
    }

    #[test]
    fn out_of_range_values_are_refused_not_clamped() {
        for (raw, range, detail) in [
            ("0", GPUS, "0 out of range [1, 1024]"),
            ("0x0", REQUESTS, "0 out of range [1, 4294967295]"),
            ("3651", DAYS, "3651 out of range [1, 3650]"),
            ("5", tenants(), "5 out of range [1, 4]"),
            (" 12ab", GPUS, "cannot parse \"12ab\" as an integer"),
            ("-1", GPUS, "cannot parse \"-1\" as an integer"),
        ] {
            assert_eq!(parse_u64_in(raw, range), Err(detail.to_string()));
        }
        for (raw, detail) in [
            ("2", "2 out of range [0.05, 0.95]"),
            ("NaN", "NaN out of range [0.05, 0.95]"),
            (" 0.5", "cannot parse \" 0.5\" as a fraction"),
        ] {
            assert_eq!(parse_f64_in(raw, UTIL), Err(detail.to_string()));
        }
    }
}
