//! SLO watchtower: multi-window burn-rate alerting, queue anomaly
//! detection, and storm-correlated incident timelines over virtual-time
//! soaks.
//!
//! The serving and chaos planes end a 30-day soak with one CDF and one
//! PASS/FAIL verdict; this layer keeps the *when*: request completions
//! recorded by [`hcc_trace::rollup`] are rolled into tumbling fast
//! windows, each tenant's [`LatencyBudget`]-derived error budget is
//! tracked per window, and an alert fires only when budget consumption
//! exceeds the threshold in **both** the fast window and the trailing
//! slow window ([`hcc_types::slo::BurnPair`]). Consecutive alerting
//! windows coalesce into an [`Incident`], which is then correlated
//! against the active [`StormSchedule`] episode and blamed on the
//! dominant critical-path resource class of requests completing inside
//! it — "incident #1: tenant chat, burning 14×, storm crypto-burst@peak
//! ep3, blame crypto 61%".
//!
//! Everything runs on the virtual clock over data the deterministic
//! cluster loop produced, so a watch report is a pure function of the
//! soak's inputs: byte-identical across `HCC_ENGINE_THREADS`, and absent
//! entirely (zero samples, zero cost) when the plane is disabled.

pub mod report;

use hcc_trace::critpath::{Attribution, ResourceClass};
use hcc_trace::rollup;
use hcc_trace::Series;
use hcc_types::slo::burn_rate_milli;
use hcc_types::{
    env_u64, BurnPair, LatencyBudget, SimDuration, SimTime, StormIntensity, StormSchedule,
};

use crate::cli::Cli;
use crate::engine::ExperimentEngine;

pub use report::{Incident, IncidentBlame, IncidentStorm, TenantBurn, WatchReport, WindowRow};

/// Environment variable overriding the fast-window width, in virtual
/// milliseconds.
pub const FAST_MS_ENV: &str = "HCC_WATCH_FAST_MS";

/// Environment variable overriding the slow-window factor.
pub const SLOW_FACTOR_ENV: &str = "HCC_WATCH_SLOW_FACTOR";

/// Environment variable overriding the alert threshold, in milli-x burn
/// (4000 = alert at 4× the budgeted error rate).
pub const BURN_ENV: &str = "HCC_WATCH_BURN_MILLI";

/// Environment variable overriding the queue anomaly factor, in milli-x
/// of the soak-wide mean queue depth.
pub const ANOMALY_ENV: &str = "HCC_WATCH_ANOMALY_MILLI";

/// Watchtower knobs: the burn-rate window pair and the queue anomaly
/// factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchConfig {
    /// Fast (tumbling) window width in virtual time.
    pub fast: SimDuration,
    /// Slow window width as a multiple of `fast` (trailing).
    pub slow_factor: u32,
    /// Burn-rate alert threshold in milli-x (1000 = budgeted rate).
    pub threshold_milli: u64,
    /// Queue anomaly threshold: a window is anomalous when its mean
    /// queue depth reaches this many milli-x of the soak-wide mean.
    pub anomaly_milli: u64,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            // 5 virtual seconds against the chaos lab's compressed
            // 60-second day plays the role of the SRE workbook's
            // 5-minute fast window against a real day.
            fast: SimDuration::secs(5),
            slow_factor: 6,
            threshold_milli: 4_000,
            anomaly_milli: 3_000,
        }
    }
}

/// Largest [`SLOW_FACTOR_ENV`] value.
const MAX_SLOW_FACTOR: u64 = 1_000;

/// Largest [`FAST_MS_ENV`] value: the widest fast window whose slow
/// partner (at most [`MAX_SLOW_FACTOR`] times wider) still fits the
/// nanosecond virtual clock, about 213 days.
const MAX_FAST_MS: u64 = u64::MAX / 1_000_000 / MAX_SLOW_FACTOR;

impl WatchConfig {
    /// Applies the `HCC_WATCH_*` environment overrides.
    #[must_use]
    pub fn from_env(self) -> Self {
        self.with_overrides(env_u64)
    }

    /// Applies the overrides `var` yields, each clamped into its knob's
    /// range; the fast width is clamped before it is scaled to
    /// nanoseconds, so no value can overflow the virtual clock.
    fn with_overrides(mut self, var: impl Fn(&str) -> Option<u64>) -> Self {
        if let Some(ms) = var(FAST_MS_ENV) {
            self.fast = SimDuration::millis(ms.clamp(1, MAX_FAST_MS));
        }
        if let Some(f) = var(SLOW_FACTOR_ENV) {
            self.slow_factor = f.clamp(1, MAX_SLOW_FACTOR) as u32;
        }
        if let Some(m) = var(BURN_ENV) {
            self.threshold_milli = m.max(1);
        }
        if let Some(m) = var(ANOMALY_ENV) {
            self.anomaly_milli = m.max(1);
        }
        self
    }

    /// The fast/slow pair this config alerts on.
    #[must_use]
    pub fn pair(&self) -> BurnPair {
        BurnPair {
            fast: self.fast,
            slow_factor: self.slow_factor.max(1),
            threshold_milli: self.threshold_milli,
        }
    }
}

/// The canonical stormy watch soak: a crypto-burst calendar over a
/// 4-day, 2-GPU chaos run under the Abort policy, whose mass rejections
/// in peak windows burn every tenant's error budget well past the 4×
/// alert threshold — the `slo_watch` bin's default and the golden
/// fixture's incident polarity.
#[must_use]
pub fn stormy_soak() -> crate::chaos::ChaosConfig {
    crate::chaos::ChaosConfig {
        requests: 4_000,
        days: 4,
        gpus: 2,
        replicas: 1,
        profiles: vec![hcc_types::StormProfile::crypto_burst()],
        policies: vec![hcc_types::RecoveryPolicy::Abort],
        watch: Some(WatchConfig::default()),
        ..crate::chaos::ChaosConfig::default()
    }
}

/// The canonical calm watch soak: a low-utilization Poisson serving run
/// with no storm calendar, whose timeline stays empty — the golden
/// fixture's quiet polarity (`slo_watch --serve`).
#[must_use]
pub fn calm_soak() -> crate::serving::ServingConfig {
    crate::serving::ServingConfig {
        requests: 3_000,
        gpus: 4,
        target_util: 0.15,
        schedulers: vec![crate::serving::SchedulerKind::Fifo],
        watch: Some(WatchConfig::default()),
        ..crate::serving::ServingConfig::default()
    }
}

/// The two canonical watch soaks as one driver, shared by `slo_watch`
/// and `why`: `--serve` picks the calm one, and the sizing flags both
/// bins take are mirrored onto both configs.
#[derive(Debug, Clone)]
pub struct WatchSoak {
    /// The calm soak ([`calm_soak`]).
    pub serve: crate::serving::ServingConfig,
    /// The stormy soak ([`stormy_soak`]).
    pub storm: crate::chaos::ChaosConfig,
    /// `true` when `--serve` picked the calm soak.
    pub serve_mode: bool,
}

/// What a [`WatchSoak`] run leaves: the first cell's planes and the
/// soak's structural health.
#[derive(Debug)]
pub struct WatchRun {
    /// The first cell's watch report.
    pub watch: Option<WatchReport>,
    /// The first cell's flight log, when the flight plane was on.
    pub flight: Option<hcc_trace::FlightLog>,
    /// Conservation held (calm soak), or the chaos report is healthy.
    pub healthy: bool,
}

impl WatchSoak {
    /// Both soaks, the stormy one picked, the watch plane on with its
    /// `HCC_WATCH_*` overrides applied.
    #[must_use]
    pub fn new() -> Self {
        let mut soak = WatchSoak {
            serve: calm_soak(),
            storm: stormy_soak(),
            serve_mode: false,
        };
        soak.serve.watch = Some(WatchConfig::default().from_env());
        soak.storm.watch = soak.serve.watch;
        soak
    }

    /// Sets the flight plane of both soaks.
    pub fn set_flight(&mut self, flight: Option<hcc_trace::FlightConfig>) {
        (self.serve.flight, self.storm.flight) = (flight, flight);
    }

    /// Applies `arg` when it is one of the shared flags (`--serve`,
    /// `--requests`, `--days`, `--gpus`, `--seed`), taking its value from
    /// `args`; `false` when it is not one of them.
    pub fn flag(&mut self, cli: &Cli, arg: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match arg {
            "--serve" => self.serve_mode = true,
            "--requests" => {
                self.serve.requests = cli.u64_in(arg, args.next(), crate::cli::REQUESTS);
                self.storm.requests = self.serve.requests;
            }
            "--days" => self.storm.days = cli.u64_in(arg, args.next(), crate::cli::DAYS),
            "--gpus" => {
                self.serve.gpus = cli.u64_in(arg, args.next(), crate::cli::GPUS) as usize;
                self.storm.gpus = self.serve.gpus;
            }
            "--seed" => {
                self.serve.seed = cli.u64(arg, args.next());
                self.storm.seed = self.serve.seed;
            }
            _ => return false,
        }
        true
    }

    /// Runs the picked soak.
    pub fn run(&self, engine: &ExperimentEngine) -> WatchRun {
        let (planes, healthy) = if self.serve_mode {
            let rep = crate::serving::run(&self.serve, engine);
            let healthy = rep.conserved();
            let planes = rep.runs.into_iter().next().map(|r| (r.watch, r.flight));
            (planes, healthy)
        } else {
            let rep = crate::chaos::run(&self.storm, engine);
            let healthy = rep.healthy();
            let cell = rep
                .profiles
                .into_iter()
                .next()
                .and_then(|p| p.cells.into_iter().next());
            (cell.map(|c| (c.watch, c.flight)), healthy)
        };
        let (watch, flight) = planes.unwrap_or((None, None));
        WatchRun {
            watch,
            flight,
            healthy,
        }
    }
}

impl Default for WatchSoak {
    fn default() -> Self {
        Self::new()
    }
}

/// The storm calendar a soak ran under, for incident correlation.
#[derive(Debug, Clone, Copy)]
pub struct StormContext<'a> {
    /// Profile name (e.g. `crypto-burst`).
    pub profile: &'a str,
    /// The calendar requests were assigned intensities from.
    pub schedule: &'a StormSchedule,
}

/// Critical-path attributions for incident blame: `shape_of[req]`
/// indexes `attrs` (aborted shapes carry a zero attribution).
#[derive(Debug, Clone, Copy)]
pub struct BlameView<'a> {
    /// Per-request shape index, aligned with request arrival order.
    pub shape_of: &'a [u32],
    /// Per-shape critical-path attribution.
    pub attrs: &'a [Attribution],
}

/// Everything the watchtower observes about one finished soak.
#[derive(Debug, Clone, Copy)]
pub struct SoakView<'a> {
    /// Tenant labels, in population order.
    pub tenant_names: &'a [String],
    /// Per-tenant SLO budgets, aligned with `tenant_names`.
    pub budgets: &'a [LatencyBudget],
    /// Settled requests in canonical order
    /// ([`hcc_trace::RollupCollector::into_sorted`]).
    pub samples: &'a [rollup::CompletionSample],
    /// Window generation bound (the configured horizon; extended to the
    /// makespan automatically when completions run past it).
    pub horizon: SimTime,
    /// Cluster queue-depth series, for anomaly detection.
    pub queue: Option<&'a Series>,
    /// Storm calendar, when the soak ran under one.
    pub storm: Option<StormContext<'a>>,
    /// Attribution table, when the soak kept one.
    pub blame: Option<BlameView<'a>>,
}

/// Rolls a soak into the full watch report: per-window rollups,
/// per-tenant burn rates and alerts, queue anomalies, and the coalesced
/// incident timeline.
pub fn observe(cfg: &WatchConfig, view: &SoakView<'_>) -> WatchReport {
    let tenants = view.tenant_names.len();
    assert_eq!(tenants, view.budgets.len(), "one budget per tenant");

    let end = view
        .samples
        .last()
        .map(|s| SimTime::from_nanos(s.at.as_nanos() + 1))
        .unwrap_or(SimTime::ZERO)
        .max(view.horizon);
    let windows = rollup::tumbling(end, cfg.fast);
    let stats = rollup::window_stats(view.samples, &windows);
    let pair = cfg.pair();

    // Per-tenant, per-window bad-event and settled-request counts. A bad
    // event is a rejection or a p99-budget miss (hcc_types::slo).
    let mut bad = vec![vec![0u64; windows.len()]; tenants];
    let mut tot = vec![vec![0u64; windows.len()]; tenants];
    for (wi, w) in windows.iter().enumerate() {
        for s in rollup::window_range(view.samples, w) {
            let t = s.tenant as usize;
            tot[t][wi] += 1;
            if view.budgets[t].is_bad(s.latency, s.rejected) {
                bad[t][wi] += 1;
            }
        }
    }

    let total_span = end.as_nanos();
    let total_integral = view
        .queue
        .map(|q| q.integral_between(SimTime::ZERO, end).as_nanos())
        .unwrap_or(0);

    let slow_n = cfg.slow_factor.max(1) as usize;
    let mut rows: Vec<WindowRow> = Vec::with_capacity(windows.len());
    for (wi, w) in windows.iter().enumerate() {
        let mut burns = Vec::with_capacity(tenants);
        for t in 0..tenants {
            let budget_ppm = view.budgets[t].error_budget_ppm();
            let fast_milli = burn_rate_milli(bad[t][wi], tot[t][wi], budget_ppm);
            let lo = wi + 1 - slow_n.min(wi + 1);
            let slow_bad: u64 = bad[t][lo..=wi].iter().sum();
            let slow_tot: u64 = tot[t][lo..=wi].iter().sum();
            let slow_milli = burn_rate_milli(slow_bad, slow_tot, budget_ppm);
            burns.push(TenantBurn {
                bad: bad[t][wi],
                total: tot[t][wi],
                fast_milli,
                slow_milli,
                alert: pair.fires(fast_milli, slow_milli),
            });
        }
        // Queue anomaly, in pure integer cross-multiplication:
        // window_mean >= soak_mean * anomaly_milli / 1000.
        let (queue_mean_milli, anomaly) = match view.queue {
            Some(q) if total_span > 0 => {
                let w_int = q.integral_between(w.start, w.end).as_nanos();
                let width = w.width().as_nanos().max(1);
                let mean_milli = (u128::from(w_int) * 1_000 / u128::from(width)) as u64;
                let lhs = u128::from(w_int) * u128::from(total_span) * 1_000;
                let rhs =
                    u128::from(total_integral) * u128::from(width) * u128::from(cfg.anomaly_milli);
                (mean_milli, total_integral > 0 && w_int > 0 && lhs >= rhs)
            }
            _ => (0, false),
        };
        rows.push(WindowRow {
            stats: stats[wi].clone(),
            queue_mean_milli,
            anomaly,
            burns,
        });
    }

    // Incident timeline: per tenant, each maximal streak of alerting
    // windows is one incident; ids assigned in (first window, tenant)
    // order so the log reads chronologically.
    let mut incidents = Vec::new();
    for t in 0..tenants {
        let mut wi = 0;
        while wi < rows.len() {
            if rows[wi].burns[t].alert {
                let first = wi;
                while wi < rows.len() && rows[wi].burns[t].alert {
                    wi += 1;
                }
                incidents.push(build_incident(view, &windows, &rows, t, first, wi - 1));
            } else {
                wi += 1;
            }
        }
    }
    incidents.sort_by_key(|i| (i.first_window, i.tenant));
    for (k, inc) in incidents.iter_mut().enumerate() {
        inc.id = k + 1;
    }

    WatchReport {
        cfg: *cfg,
        tenant_names: view.tenant_names.to_vec(),
        budgets: view.budgets.to_vec(),
        windows: rows,
        incidents,
    }
}

/// Resolves one alert streak into an [`Incident`]: peak burn, the
/// hottest storm intensity its windows overlapped, and the dominant
/// critical-path resource among its completing requests.
fn build_incident(
    view: &SoakView<'_>,
    windows: &[rollup::Window],
    rows: &[WindowRow],
    tenant: usize,
    first: usize,
    last: usize,
) -> Incident {
    let mut peak_burn = 0u64;
    for row in &rows[first..=last] {
        peak_burn = peak_burn.max(row.burns[tenant].fast_milli);
    }

    let storm = view.storm.as_ref().and_then(|sc| {
        let mut best: Option<(StormIntensity, u32)> = None;
        for w in &windows[first..=last] {
            let mid = w.mid();
            let intensity = sc.schedule.intensity_at(mid);
            if intensity == StormIntensity::Calm {
                continue;
            }
            let episode = sc.schedule.episode_at(mid).unwrap_or(0);
            if best.map_or(true, |(b, _)| intensity.index() > b.index()) {
                best = Some((intensity, episode));
            }
        }
        best.map(|(intensity, episode)| IncidentStorm {
            profile: sc.profile.to_string(),
            intensity,
            episode,
        })
    });

    let blame = view.blame.as_ref().and_then(|bv| {
        let span = rollup::Window {
            index: first,
            start: windows[first].start,
            end: windows[last].end,
        };
        let mut totals = vec![SimDuration::ZERO; ResourceClass::COUNT];
        for s in rollup::window_range(view.samples, &span) {
            if s.rejected || s.tenant as usize != tenant {
                continue;
            }
            let attr = &bv.attrs[bv.shape_of[s.req as usize] as usize];
            for (k, (_, d)) in attr.iter().enumerate() {
                totals[k] += d;
            }
        }
        let total: SimDuration = totals.iter().copied().sum();
        if total.is_zero() {
            return None;
        }
        let mut top = 0usize;
        for (k, &d) in totals.iter().enumerate() {
            if d > totals[top] {
                top = k;
            }
        }
        Some(IncidentBlame {
            class: ResourceClass::ALL[top],
            critical: totals[top],
            pct: totals[top].as_nanos() * 100 / total.as_nanos(),
        })
    });

    Incident {
        id: 0,
        tenant,
        first_window: first,
        last_window: last,
        start: windows[first].start,
        end: windows[last].end,
        peak_burn_milli: peak_burn,
        storm,
        blame,
        exemplars: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_trace::rollup::CompletionSample;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(SimDuration::millis(ms).as_nanos())
    }

    fn budget() -> LatencyBudget {
        LatencyBudget {
            p99: SimDuration::millis(10),
            p999: SimDuration::millis(20),
            max_reject_ppm: 90_000,
        }
    }

    fn names() -> Vec<String> {
        vec!["solo".to_string()]
    }

    /// 10 requests per 100ms window; windows 3 and 4 are all-bad.
    fn storm_samples() -> Vec<CompletionSample> {
        let mut out = Vec::new();
        let mut req = 0u32;
        for w in 0..8u64 {
            for k in 0..10u64 {
                let bad = w == 3 || w == 4;
                out.push(CompletionSample {
                    req,
                    tenant: 0,
                    at: t(w * 100 + k * 10),
                    latency: SimDuration::millis(if bad { 50 } else { 1 }),
                    rejected: false,
                });
                req += 1;
            }
        }
        out
    }

    fn cfg() -> WatchConfig {
        WatchConfig {
            fast: SimDuration::millis(100),
            slow_factor: 4,
            threshold_milli: 2_000,
            anomaly_milli: 3_000,
        }
    }

    #[test]
    fn alerts_need_both_windows_and_coalesce_into_one_incident() {
        let names = names();
        let budgets = [budget()];
        let samples = storm_samples();
        let rep = observe(
            &cfg(),
            &SoakView {
                tenant_names: &names,
                budgets: &budgets,
                samples: &samples,
                horizon: t(800),
                queue: None,
                storm: None,
                blame: None,
            },
        );
        assert_eq!(rep.windows.len(), 8);
        // Fast burn in the bad windows: 10/10 bad against a 10% budget
        // = 10x. Slow (4-window trailing) at w3: 10/40 bad = 2.5x ≥ 2x.
        let alerts: Vec<bool> = rep.windows.iter().map(|w| w.burns[0].alert).collect();
        assert_eq!(
            alerts,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(rep.windows[3].burns[0].fast_milli, 10_000);
        assert_eq!(rep.windows[3].burns[0].slow_milli, 2_500);
        // One incident spanning both alerting windows.
        assert_eq!(rep.incidents.len(), 1);
        let inc = &rep.incidents[0];
        assert_eq!(inc.id, 1);
        assert_eq!((inc.first_window, inc.last_window), (3, 4));
        assert_eq!(inc.peak_burn_milli, 10_000);
        assert!(inc.storm.is_none());
        assert!(inc.blame.is_none());
    }

    #[test]
    fn slow_window_vetoes_a_lone_spike() {
        // One all-bad window in an otherwise calm soak: fast burns hard
        // but the trailing slow window stays under threshold.
        let names = names();
        let budgets = [budget()];
        let mut samples = Vec::new();
        for w in 0..8u64 {
            for k in 0..10u64 {
                samples.push(CompletionSample {
                    req: (w * 10 + k) as u32,
                    tenant: 0,
                    at: t(w * 100 + k * 10),
                    latency: SimDuration::millis(if w == 5 { 50 } else { 1 }),
                    rejected: false,
                });
            }
        }
        let wcfg = WatchConfig {
            threshold_milli: 3_000,
            ..cfg()
        };
        let rep = observe(
            &wcfg,
            &SoakView {
                tenant_names: &names,
                budgets: &budgets,
                samples: &samples,
                horizon: t(800),
                queue: None,
                storm: None,
                blame: None,
            },
        );
        // Fast hits 10x at w5 but slow = 10/40 = 2.5x < 3x: no alert.
        assert_eq!(rep.windows[5].burns[0].fast_milli, 10_000);
        assert!(!rep.windows[5].burns[0].alert);
        assert_eq!(rep.incidents.len(), 0);
        assert_eq!(rep.alerts(), 0);
    }

    #[test]
    fn empty_soak_produces_an_empty_timeline() {
        let names = names();
        let budgets = [budget()];
        let rep = observe(
            &WatchConfig::default(),
            &SoakView {
                tenant_names: &names,
                budgets: &budgets,
                samples: &[],
                horizon: SimTime::ZERO,
                queue: None,
                storm: None,
                blame: None,
            },
        );
        assert!(rep.windows.is_empty());
        assert!(rep.incidents.is_empty());
        assert_eq!(rep.alerts(), 0);
        assert_eq!(rep.max_burn_milli(), 0);
    }

    #[test]
    fn incidents_correlate_against_the_storm_calendar() {
        let names = names();
        let budgets = [budget()];
        let samples = storm_samples();
        // Hand-built calendar: one episode covering [300, 500) peaking
        // exactly where the bad windows are.
        let schedule = StormSchedule {
            windows: vec![
                hcc_types::StormWindow {
                    start: t(0),
                    end: t(300),
                    intensity: StormIntensity::Calm,
                },
                hcc_types::StormWindow {
                    start: t(300),
                    end: t(320),
                    intensity: StormIntensity::Rising,
                },
                hcc_types::StormWindow {
                    start: t(320),
                    end: t(500),
                    intensity: StormIntensity::Peak,
                },
                hcc_types::StormWindow {
                    start: t(500),
                    end: t(800),
                    intensity: StormIntensity::Calm,
                },
            ],
            horizon: t(800),
        };
        let rep = observe(
            &cfg(),
            &SoakView {
                tenant_names: &names,
                budgets: &budgets,
                samples: &samples,
                horizon: t(800),
                queue: None,
                storm: Some(StormContext {
                    profile: "crypto-burst",
                    schedule: &schedule,
                }),
                blame: None,
            },
        );
        let storm = rep.incidents[0].storm.as_ref().expect("storm-correlated");
        assert_eq!(storm.profile, "crypto-burst");
        assert_eq!(storm.intensity, StormIntensity::Peak);
        assert_eq!(storm.episode, 1);
        assert_eq!(rep.storm_correlated(), 1);
    }

    #[test]
    fn queue_anomalies_flag_windows_far_above_the_soak_mean() {
        let names = names();
        let budgets = [budget()];
        let samples = storm_samples();
        // Queue holds depth 1 mostly, depth 20 inside [300, 500).
        let mut g = hcc_trace::Gauge::enabled();
        g.occupy(t(0), t(800));
        g.occupy_n(t(300), t(500), 19);
        let series = g.series("serving.queue_depth");
        let rep = observe(
            &cfg(),
            &SoakView {
                tenant_names: &names,
                budgets: &budgets,
                samples: &samples,
                horizon: t(800),
                queue: Some(&series),
                storm: None,
                blame: None,
            },
        );
        let flags: Vec<bool> = rep.windows.iter().map(|w| w.anomaly).collect();
        assert_eq!(
            flags,
            vec![false, false, false, true, true, false, false, false]
        );
        assert_eq!(rep.windows[3].queue_mean_milli, 20_000);
        assert_eq!(rep.anomalies(), 2);
    }

    #[test]
    fn observe_is_a_pure_function_of_the_view() {
        let names = names();
        let budgets = [budget()];
        let samples = storm_samples();
        let view = SoakView {
            tenant_names: &names,
            budgets: &budgets,
            samples: &samples,
            horizon: t(800),
            queue: None,
            storm: None,
            blame: None,
        };
        let a = observe(&cfg(), &view);
        let b = observe(&cfg(), &view);
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    fn env_window_widths_clamp_before_scaling_to_nanoseconds() {
        // 2^58 ms overflows the nanosecond clock 2^18-fold.
        for ms in [288_230_376_151_711_744, u64::MAX] {
            let cfg = WatchConfig::default()
                .with_overrides(|var| [FAST_MS_ENV, SLOW_FACTOR_ENV].contains(&var).then_some(ms));
            assert_eq!(cfg.fast, SimDuration::millis(MAX_FAST_MS));
            assert_eq!(u64::from(cfg.slow_factor), MAX_SLOW_FACTOR);
            // The widest slow window still fits: this multiply is checked
            // in test builds.
            assert!(cfg.pair().slow() >= cfg.fast);
        }
        let floor = WatchConfig::default().with_overrides(|_| Some(0));
        assert_eq!(floor.fast, SimDuration::millis(1));
        assert_eq!(floor.slow_factor, 1);
        assert_eq!((floor.threshold_milli, floor.anomaly_milli), (1, 1));
        assert_eq!(
            WatchConfig::default().with_overrides(|_| None),
            WatchConfig::default()
        );
    }
}
