//! `paper-suite`: the `summary` bin's prefetch population (the Fig. 4a,
//! 5, 6, 7 and 9 scenarios: 220 requests, 142 distinct) re-seeded under
//! several shape seeds and run through one `run_all` batch, then each
//! distinct result decomposed the way the paper's Fig. 3 model does:
//! phase totals and the critical-path attribution of `P`.
//!
//! It exercises the scenario simulator stack (runtime, gpu, tee, uvm,
//! crypto model, trace) and the engine's miss path, with no soak layers.

use std::collections::HashMap;

use hcc_bench::engine::{EngineStats, ExperimentEngine};
use hcc_bench::figures::{fig04a, fig05, fig06, fig07, fig09};
use hcc_trace::{critpath, PhaseTotals};
use hcc_types::hash::Fnv64;
use hcc_types::ByteSize;
use hcc_workloads::Scenario;

use crate::spans::{stage, Spans};
use crate::{Bench, Layers, Size, Tally};

/// Digest of the per-scenario rows at [`crate::DEFAULT_SEED`] and
/// [`Size::BENCH`].
pub const REFERENCE: u64 = 0x9840_92d7_942c_7a9b;

/// The paper-suite workload's inputs.
#[derive(Debug)]
pub struct Suite {
    seed: u64,
    population: Vec<Scenario>,
}

/// One distinct simulation's decomposition.
#[derive(Debug, Clone)]
struct Decomp {
    label: String,
    /// End-to-end `P`, in virtual nanoseconds.
    p: u64,
    phases: PhaseTotals,
    /// Σ critical-path attribution, in virtual nanoseconds.
    critical: u64,
}

/// One pass's decompositions, one row per request.
#[derive(Debug)]
pub struct Pass {
    rows: Vec<Result<Decomp, String>>,
}

/// The `summary` bin's prefetch population.
fn summary_population() -> Vec<Scenario> {
    let mut v = fig04a::scenarios();
    v.extend(fig05::scenarios());
    v.extend(fig06::scenarios(ByteSize::mib(64), 40));
    v.extend(fig07::scenarios());
    v.extend(fig09::scenarios());
    v
}

/// The `k`-th shape seed of workload seed `seed` (a SplitMix64 step).
fn shape_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(k + 1))
        .wrapping_add(0x5EED_2025);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Bench for Suite {
    type Pass = Pass;

    fn setup(seed: u64, size: Size) -> Self {
        let base = summary_population();
        let population = (0..size.suite_seeds)
            .flat_map(|k| {
                let s = shape_seed(seed, k);
                base.iter().map(move |scn| Scenario {
                    app: scn.app.clone(),
                    cfg: scn.cfg.clone().with_seed(s),
                })
            })
            .collect();
        Suite { seed, population }
    }

    fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("paper-suite");
        h.write_u64(self.seed);
        h.write_u64(self.population.len() as u64);
        for scn in &self.population {
            h.write_u64(scn.content_hash());
        }
        h.finish()
    }

    fn pass(&self, engine: &ExperimentEngine, mut spans: Option<&mut Spans>) -> Pass {
        let results = stage(&mut spans, "run_all", || engine.run_all(&self.population));
        // Decompose each distinct simulation once; duplicate requests
        // share its row.
        let mut first: HashMap<u64, usize> = HashMap::new();
        let distinct: Vec<usize> = (0..results.len())
            .filter(|&i| first.insert(results[i].hash, i).is_none())
            .collect();
        let phases: Vec<Option<PhaseTotals>> = stage(&mut spans, "phase_totals", || {
            distinct
                .iter()
                .map(|&i| results[i].run().ok().map(|r| r.timeline.phase_totals()))
                .collect()
        });
        let critical: Vec<u64> = stage(&mut spans, "critpath::extract", || {
            distinct
                .iter()
                .map(|&i| {
                    results[i].run().map_or(0, |r| {
                        critpath::extract(&r.timeline, &r.causal)
                            .attribution()
                            .total()
                            .as_nanos()
                    })
                })
                .collect()
        });
        let mut decomps: HashMap<u64, Result<Decomp, String>> = HashMap::new();
        for (j, &i) in distinct.iter().enumerate() {
            let entry = &results[i];
            let row = match (entry.run(), phases[j]) {
                (Ok(r), Some(phases)) => Ok(Decomp {
                    label: entry.label.clone(),
                    p: r.end.as_nanos(),
                    phases,
                    critical: critical[j],
                }),
                (Err(f), _) => Err(f.to_string()),
                (Ok(_), None) => unreachable!("phases exist for every successful run"),
            };
            decomps.insert(entry.hash, row);
        }
        Pass {
            rows: results.iter().map(|r| decomps[&r.hash].clone()).collect(),
        }
    }

    fn digest(&self, pass: &Pass) -> u64 {
        let mut h = Fnv64::new();
        for row in &pass.rows {
            match row {
                Ok(d) => {
                    h.write_str(&d.label);
                    h.write_u64(d.p);
                    let t = &d.phases;
                    for v in [
                        t.t_mem, t.t_launch, t.t_kernel, t.t_other, t.t_fault, t.span,
                    ] {
                        h.write_u64(v.as_nanos());
                    }
                }
                Err(e) => h.write_str(e),
            }
        }
        h.finish()
    }

    fn check(&self, pass: &Pass, stats: &EngineStats) -> Vec<String> {
        let mut problems = Vec::new();
        if stats.failed_scenarios != 0 {
            problems.push(format!(
                "paper-suite: {} engine scenarios failed",
                stats.failed_scenarios
            ));
        }
        for row in &pass.rows {
            match row {
                Ok(d) if d.critical != d.phases.span.as_nanos() => problems.push(format!(
                    "paper-suite: {}: critical path {} ns != span {} ns",
                    d.label,
                    d.critical,
                    d.phases.span.as_nanos()
                )),
                Ok(_) => {}
                Err(e) => problems.push(format!("paper-suite: {e}")),
            }
        }
        problems.truncate(8);
        problems
    }

    fn tally(&self, _pass: &Pass, stats: &EngineStats, engine: &ExperimentEngine) -> Tally {
        // Every distinct scenario was simulated by the pass; on this
        // engine the population is all cache hits.
        let mut seen = std::collections::HashSet::new();
        let events = engine
            .run_all(&self.population)
            .iter()
            .filter(|r| seen.insert(r.hash))
            .filter_map(|r| r.run().ok())
            .map(|r| r.timeline.len() as u64)
            .sum();
        let cells = self.population.len() as u64;
        Tally {
            cells,
            events,
            ops: cells,
            modelled_fails: stats.failed_scenarios,
            unexpected: stats.failed_scenarios,
        }
    }

    fn layers(&self, _pass: &Pass, spans: &mut Spans, pass_span: usize) -> Layers {
        vec![
            (
                "trace.phase_us",
                spans.sum_within(pass_span, "phase_totals") * 1e6,
            ),
            (
                "trace.critpath_us",
                spans.sum_within(pass_span, "critpath::extract") * 1e6,
            ),
        ]
    }
}
