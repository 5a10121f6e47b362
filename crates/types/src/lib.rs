//! # hcc-types
//!
//! Foundation types shared by every crate in the `hcc` workspace: a virtual
//! clock ([`SimTime`], [`SimDuration`]), byte quantities ([`ByteSize`]),
//! transfer rates ([`Bandwidth`]), a deterministic random-number generator
//! ([`rng::Xoshiro256`]), and the calibration tables ([`calib`]) that anchor
//! the simulator to the numbers reported in the ISPASS 2025 paper
//! *"Dissecting Performance Overheads of Confidential Computing on GPU-based
//! Systems"*.
//!
//! Everything in the workspace measures time in **integer nanoseconds of
//! virtual time** — the simulation never consults the wall clock, so a given
//! (workload, configuration, seed) triple always reproduces the same trace.
//!
//! ```
//! use hcc_types::{ByteSize, Bandwidth, SimDuration};
//!
//! let xfer = ByteSize::mib(256);
//! let pcie = Bandwidth::gb_per_s(26.0);
//! let t: SimDuration = pcie.time_for(xfer);
//! assert!(t.as_millis_f64() > 10.0 && t.as_millis_f64() < 11.0);
//! ```

pub mod calib;
pub mod fault;
pub mod hash;
pub mod json;
pub mod mode;
pub mod planes;
pub mod rng;
mod size;
pub mod slo;
pub mod storm;
mod time;

pub use fault::{FaultCounts, FaultInjector, FaultPlan, FaultSite, Recovery, RecoveryPolicy};
pub use mode::{CcMode, CopyKind, CpuModel, HostMemKind, MemSpace};
pub use planes::Planes;
pub use size::{Bandwidth, ByteSize};
pub use slo::{burn_rate_milli, BurnPair};
pub use storm::{LatencyBudget, StormIntensity, StormProfile, StormSchedule, StormWindow};
pub use time::{SimDuration, SimTime};

/// Result alias used by fallible APIs across the workspace foundation.
pub type Result<T, E = TypeError> = std::result::Result<T, E>;

/// Errors produced by foundation-type constructors and conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TypeError {
    /// A bandwidth of zero or a non-finite rate was supplied where a
    /// positive, finite rate is required.
    InvalidBandwidth(String),
    /// Arithmetic on the virtual clock overflowed `u64` nanoseconds.
    ClockOverflow,
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::InvalidBandwidth(msg) => write!(f, "invalid bandwidth: {msg}"),
            TypeError::ClockOverflow => write!(f, "virtual clock arithmetic overflowed"),
        }
    }
}

impl std::error::Error for TypeError {}

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`, ignoring
/// surrounding whitespace: the one integer syntax every harness flag and
/// `HCC_*` environment override accepts.
pub fn parse_u64(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Reads the environment variable `var` as a [`parse_u64`] integer;
/// unset or unparsable yields `None`.
pub fn env_u64(var: &str) -> Option<u64> {
    parse_u64(&std::env::var(var).ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_overrides_parse_both_radices() {
        assert_eq!(env_u64("HCC_NO_SUCH_VAR_EVER"), None);
        std::env::set_var("HCC_TYPES_TEST_DEC", " 123 ");
        std::env::set_var("HCC_TYPES_TEST_HEX", "0xff");
        std::env::set_var("HCC_TYPES_TEST_BAD", "12ab");
        assert_eq!(env_u64("HCC_TYPES_TEST_DEC"), Some(123));
        assert_eq!(env_u64("HCC_TYPES_TEST_HEX"), Some(255));
        assert_eq!(env_u64("HCC_TYPES_TEST_BAD"), None);
        std::env::remove_var("HCC_TYPES_TEST_DEC");
        std::env::remove_var("HCC_TYPES_TEST_HEX");
        std::env::remove_var("HCC_TYPES_TEST_BAD");
    }
}
