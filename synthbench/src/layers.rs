//! Per-layer metrics, read from outside the program: the benchmark's spans
//! around its calls plus the program's public counters (`SynthesisStats`,
//! `OracleStats`, `PortfolioResult::reports`).

use crate::measure::{Detail, Record, Verdict};
use manthan3::core::{OracleStats, UnknownReason};
use manthan3::portfolio::PortfolioEngine;
use std::time::Duration;

/// Sums of per-layer work over the traced instance runs.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    engine: Duration,
    check: Duration,
    checked_nodes: usize,
    sample: Duration,
    learn: Duration,
    verify: Duration,
    repair: Duration,
    verify_checks: usize,
    repair_iterations: usize,
    repairs_applied: usize,
    samples: usize,
    unique_definitions: usize,
    unknown: [usize; 5],
    oracle: OracleStats,
    arena_live_words_max: usize,
    race_run: Duration,
    winner: Duration,
    tail: Duration,
    decided_race_run: Duration,
    racer_busy: Duration,
    racers_cancelled: usize,
    wins: [usize; 3],
    expansion: Duration,
    arbiter: Duration,
    expansion_decided: usize,
    arbiter_decided: usize,
}

const UNKNOWN_REASONS: [(UnknownReason, &str); 5] = [
    (UnknownReason::RepairStuck, "repair_stuck"),
    (UnknownReason::IterationLimit, "iteration_limit"),
    (UnknownReason::TimeBudget, "time_budget"),
    (UnknownReason::OracleBudget, "oracle_budget"),
    (UnknownReason::Cancelled, "cancelled"),
];

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Layers {
    /// Adds one traced instance run.
    pub fn add(&mut self, record: &Record) {
        if let Verdict::Unknown(reason) = record.verdict {
            if let Some(i) = UNKNOWN_REASONS.iter().position(|(r, _)| *r == reason) {
                self.unknown[i] += 1;
            }
        }
        self.check += record.check;
        self.checked_nodes += record.nodes;
        match &record.detail {
            Detail::Manthan3(stats) => {
                self.engine += record.engine;
                self.sample += stats.sampling_time;
                self.learn += stats.learning_time;
                self.verify += stats.verification_time;
                self.repair += stats.repair_time;
                self.verify_checks += stats.verification_checks;
                self.repair_iterations += stats.repair_iterations;
                self.repairs_applied += stats.repairs_applied;
                self.samples += stats.samples;
                self.unique_definitions += stats.unique_definitions;
                self.add_oracle(&stats.oracle);
            }
            Detail::Race { racers, oracle } => {
                self.race_run += record.engine;
                self.add_oracle(oracle);
                for r in racers {
                    self.racer_busy += r.runtime;
                    self.racers_cancelled += usize::from(r.cancelled);
                    if r.winner {
                        self.winner += r.runtime;
                        self.tail += record.engine.saturating_sub(r.runtime);
                        self.decided_race_run += record.engine;
                        let slot = match r.engine {
                            PortfolioEngine::Hqs2Like => 1,
                            PortfolioEngine::PedantLike => 2,
                            _ => 0,
                        };
                        self.wins[slot] += 1;
                    }
                    match r.engine {
                        PortfolioEngine::Hqs2Like => {
                            self.expansion += r.runtime;
                            self.expansion_decided += usize::from(r.decided);
                        }
                        PortfolioEngine::PedantLike => {
                            self.arbiter += r.runtime;
                            self.arbiter_decided += usize::from(r.decided);
                        }
                        _ => {}
                    }
                }
            }
            Detail::Panicked => {}
        }
    }

    fn add_oracle(&mut self, oracle: &OracleStats) {
        self.arena_live_words_max = self.arena_live_words_max.max(oracle.arena_live_words);
        self.oracle.absorb(oracle);
    }

    /// Baseline-engine wins (expansion plus arbiter).
    pub fn baseline_wins(&self) -> usize {
        self.wins[1] + self.wins[2]
    }

    /// Seconds of `verify::check` run by the benchmark.
    pub fn check_s(&self) -> f64 {
        self.check.as_secs_f64()
    }

    /// Seconds inside `Manthan3::synthesize`.
    pub fn synthesize_s(&self) -> f64 {
        self.engine.as_secs_f64()
    }

    /// Seconds of the Manthan3 verify stage.
    pub fn verify_s(&self) -> f64 {
        self.verify.as_secs_f64()
    }

    /// Seconds inside the DRAT proof checker.
    pub fn drat_s(&self) -> f64 {
        self.oracle.certify_nanos as f64 * 1e-9
    }

    /// DRAT certificates checked.
    pub fn certificates_checked(&self) -> u64 {
        self.oracle.certificates_checked
    }

    /// The per-layer metrics, each divided by `passes` so that they read per
    /// pass over the workload's inputs.
    pub fn metrics(&self, passes: usize) -> Vec<Metric> {
        let per = |v: f64| v / passes.max(1) as f64;
        let s = |d: Duration| per(d.as_secs_f64());
        let n = |c: u64| per(c as f64);
        let o = &self.oracle;
        let stages = self.sample + self.learn + self.verify + self.repair;
        let engine_and_check = (self.engine + self.race_run + self.check).as_secs_f64();
        let mut out: Vec<Metric> = vec![
            ("core.synthesize_s".into(), s(self.engine), "s"),
            ("core.sample_s".into(), s(self.sample), "s"),
            ("core.learn_s".into(), s(self.learn), "s"),
            ("core.verify_s".into(), s(self.verify), "s"),
            ("core.repair_s".into(), s(self.repair), "s"),
            (
                "core.other_s".into(),
                s(self.engine.saturating_sub(stages)),
                "s",
            ),
            (
                "core.verify_checks".into(),
                n(self.verify_checks as u64),
                "count",
            ),
            (
                "core.verify_ms_per_check".into(),
                ratio(self.verify.as_secs_f64() * 1e3, self.verify_checks as f64),
                "ms",
            ),
            (
                "core.repair_iterations".into(),
                n(self.repair_iterations as u64),
                "count",
            ),
            (
                "core.repairs_applied".into(),
                n(self.repairs_applied as u64),
                "count",
            ),
            ("core.samples".into(), n(self.samples as u64), "count"),
            (
                "core.unique_definitions".into(),
                n(self.unique_definitions as u64),
                "count",
            ),
        ];
        for (i, (_, name)) in UNKNOWN_REASONS.iter().enumerate() {
            out.push((
                format!("core.unknown.{name}"),
                n(self.unknown[i] as u64),
                "count",
            ));
        }
        let engine_s = (self.engine + self.race_run).as_secs_f64();
        out.extend([
            ("sat.calls".into(), n(o.sat_calls as u64), "count"),
            (
                "sat.solvers_constructed".into(),
                n(o.sat_solvers_constructed as u64),
                "count",
            ),
            ("sat.conflicts".into(), n(o.conflicts), "count"),
            ("sat.propagations".into(), n(o.sat_propagations), "count"),
            (
                "sat.budget_exhaustions".into(),
                n(o.budget_exhaustions as u64),
                "count",
            ),
            (
                "sat.props_per_engine_s".into(),
                ratio(o.sat_propagations as f64, engine_s),
                "1/s",
            ),
            (
                "sat.arena_live_words".into(),
                self.arena_live_words_max as f64,
                "words",
            ),
            ("maxsat.calls".into(), n(o.maxsat_calls as u64), "count"),
            ("maxsat.probes".into(), n(o.maxsat_probes), "count"),
            ("maxsat.cores".into(), n(o.maxsat_cores), "count"),
            (
                "maxsat.hard_encodings".into(),
                n(o.maxsat_hard_encodings as u64),
                "count",
            ),
            (
                "maxsat.probes_per_call".into(),
                ratio(o.maxsat_probes as f64, o.maxsat_calls as f64),
                "count",
            ),
            ("sampler.calls".into(), n(o.sampler_calls as u64), "count"),
            (
                "sampler.shortfalls".into(),
                n(o.sample_shortfalls as u64),
                "count",
            ),
            (
                "sampler.samples_per_s".into(),
                ratio(self.samples as f64, self.sample.as_secs_f64()),
                "1/s",
            ),
            ("dqbf.check_s".into(), s(self.check), "s"),
            (
                "dqbf.check_share".into(),
                ratio(self.check.as_secs_f64(), engine_and_check),
                "share",
            ),
            (
                "dqbf.check_us_per_node".into(),
                ratio(self.check.as_secs_f64() * 1e6, self.checked_nodes as f64),
                "us",
            ),
            ("drat.check_s".into(), per(self.drat_s()), "s"),
            (
                "drat.check_share".into(),
                ratio(self.drat_s(), engine_and_check),
                "share",
            ),
            (
                "drat.proof_mb".into(),
                per(o.proof_bytes as f64 / 1e6),
                "MB",
            ),
            ("drat.proof_adds".into(), n(o.proof_adds), "count"),
            ("drat.proof_deletes".into(), n(o.proof_deletes), "count"),
            (
                "drat.certificates_checked".into(),
                n(o.certificates_checked),
                "count",
            ),
            (
                "drat.certificates_rejected".into(),
                n(o.certificates_rejected),
                "count",
            ),
            ("portfolio.run_s".into(), s(self.race_run), "s"),
            ("portfolio.winner_s".into(), s(self.winner), "s"),
            ("portfolio.tail_s".into(), s(self.tail), "s"),
            (
                "portfolio.tail_share".into(),
                ratio(self.tail.as_secs_f64(), self.decided_race_run.as_secs_f64()),
                "share",
            ),
            ("portfolio.racer_busy_s".into(), s(self.racer_busy), "s"),
            (
                "portfolio.racers_cancelled".into(),
                n(self.racers_cancelled as u64),
                "count",
            ),
            (
                "portfolio.wins.manthan3".into(),
                n(self.wins[0] as u64),
                "count",
            ),
            (
                "portfolio.wins.hqs2like".into(),
                n(self.wins[1] as u64),
                "count",
            ),
            (
                "portfolio.wins.pedantlike".into(),
                n(self.wins[2] as u64),
                "count",
            ),
            ("baselines.expansion_s".into(), s(self.expansion), "s"),
            ("baselines.arbiter_s".into(), s(self.arbiter), "s"),
            (
                "baselines.expansion_decided".into(),
                n(self.expansion_decided as u64),
                "count",
            ),
            (
                "baselines.arbiter_decided".into(),
                n(self.arbiter_decided as u64),
                "count",
            ),
        ]);
        out
    }
}
