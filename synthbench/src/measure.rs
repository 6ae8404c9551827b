//! One instance run — the program call plus the benchmark's own check of
//! the verdict — and the correctness gate applied to it.

use crate::trace::{SpanId, Tracer};
use crate::workload::EngineSetup;
use manthan3::core::{Manthan3, SynthesisOutcome, SynthesisStats, UnknownReason};
use manthan3::dqbf::{verify, Dqbf};
use manthan3::portfolio::{Portfolio, PortfolioEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A parsed benchmark input, ready to be run.
#[derive(Debug, Clone)]
pub struct Case {
    /// The generator's instance name.
    pub name: String,
    /// Ground truth known by construction.
    pub expected: Option<bool>,
    /// The parsed, validated formula.
    pub dqbf: Dqbf,
}

/// The checked verdict of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A vector came back and passed `verify::check`.
    Solved,
    /// The engine reported the formula false.
    Unrealizable,
    /// No decision, for the engine's stated reason.
    Unknown(UnknownReason),
    /// The run is wrong: a failing vector, or a panic.
    Invalid,
}

impl Verdict {
    /// `true` for [`Verdict::Solved`] and [`Verdict::Unrealizable`].
    pub fn decided(self) -> bool {
        matches!(self, Verdict::Solved | Verdict::Unrealizable)
    }
}

/// What one racer of a portfolio run did.
#[derive(Debug, Clone, Copy)]
pub struct Racer {
    /// The engine.
    pub engine: PortfolioEngine,
    /// Its runtime from the race start.
    pub runtime: Duration,
    /// Whether it decided the instance.
    pub decided: bool,
    /// Whether it was cancelled.
    pub cancelled: bool,
    /// Whether it won the race.
    pub winner: bool,
}

/// The program's own counters for one run, as read after the call.
#[derive(Debug, Clone)]
pub enum Detail {
    /// `Manthan3::synthesize` statistics.
    Manthan3(Box<SynthesisStats>),
    /// The racers of a `Portfolio::run`, plus their merged oracle counters.
    Race {
        /// Per-racer summaries, in completion order.
        racers: Vec<Racer>,
        /// `PortfolioResult::merged_oracle_stats`.
        oracle: Box<manthan3::core::OracleStats>,
    },
    /// The call panicked; nothing was read.
    Panicked,
}

/// The record of one instance run.
#[derive(Debug, Clone)]
pub struct Record {
    /// Program call plus check.
    pub latency: Duration,
    /// The program call alone.
    pub engine: Duration,
    /// The benchmark's `verify::check` of the returned vector (zero when no
    /// vector came back).
    pub check: Duration,
    /// The checked verdict.
    pub verdict: Verdict,
    /// `HenkinVector::total_size` of a vector that passed the check.
    pub nodes: usize,
    /// Why the run counts as failed, if it does.
    pub failure: Option<String>,
    /// The program's counters.
    pub detail: Detail,
}

impl Record {
    /// Repair iterations the Manthan3 run took (0 for a race).
    pub fn repair_iterations(&self) -> usize {
        match &self.detail {
            Detail::Manthan3(stats) => stats.repair_iterations,
            _ => 0,
        }
    }
}

/// Where one instance run records its spans, when tracing.
pub struct TraceCtx<'a> {
    /// The tracer.
    pub tracer: &'a mut Tracer,
    /// The workload span the instance span hangs under.
    pub parent: SpanId,
    /// The instance's index in the workload.
    pub instance: usize,
}

/// Runs one instance: the program call, then `verify::check` of any vector,
/// then the correctness gate.
pub fn run_case(setup: &EngineSetup, case: &Case, trace: Option<TraceCtx<'_>>) -> Record {
    let mut trace = trace;
    let instance_span = trace
        .as_mut()
        .map(|t| t.tracer.open("instance", Some(t.parent), Some(t.instance)));
    let engine_name = match setup {
        EngineSetup::Manthan3(_) => "core.synthesize",
        EngineSetup::Race(_) => "portfolio.run",
    };
    let engine_span = trace
        .as_mut()
        .map(|t| t.tracer.open(engine_name, instance_span, Some(t.instance)));

    let start = Instant::now();
    let called = catch_unwind(AssertUnwindSafe(|| match setup {
        EngineSetup::Manthan3(config) => {
            let result = Manthan3::new(config.clone()).synthesize(&case.dqbf);
            (result.outcome, Detail::Manthan3(Box::new(result.stats)))
        }
        EngineSetup::Race(config) => {
            let result = Portfolio::new((**config).clone()).run(&case.dqbf);
            let oracle = Box::new(result.merged_oracle_stats());
            let racers = result
                .reports
                .iter()
                .map(|r| Racer {
                    engine: r.engine,
                    runtime: r.runtime,
                    decided: r.decided(),
                    cancelled: r.cancelled(),
                    winner: r.winner,
                })
                .collect();
            (result.outcome, Detail::Race { racers, oracle })
        }
    }));
    let engine = start.elapsed();
    if let (Some(t), Some(span)) = (trace.as_mut(), engine_span) {
        t.tracer.close(span);
    }

    let (outcome, detail) = match called {
        Ok(pair) => pair,
        Err(_) => (
            SynthesisOutcome::Unknown(UnknownReason::Cancelled),
            Detail::Panicked,
        ),
    };

    let check_start = Instant::now();
    let mut check_outcome = None;
    if let SynthesisOutcome::Realizable(vector) = &outcome {
        let check_span = trace
            .as_mut()
            .map(|t| t.tracer.open("dqbf.check", instance_span, Some(t.instance)));
        check_outcome = Some((verify::check(&case.dqbf, vector), vector.total_size()));
        if let (Some(t), Some(span)) = (trace.as_mut(), check_span) {
            t.tracer.close(span);
        }
    }
    let check = if check_outcome.is_some() {
        check_start.elapsed()
    } else {
        Duration::ZERO
    };
    let latency = start.elapsed();

    if let (Some(t), Some(span)) = (trace.as_mut(), engine_span) {
        hang_program_timers(t.tracer, span, &detail);
    }
    if let (Some(t), Some(span)) = (trace.as_mut(), instance_span) {
        t.tracer.close(span);
    }

    let (verdict, nodes, failure) = gate(setup, case, &outcome, check_outcome, &detail);
    Record {
        latency,
        engine,
        check,
        verdict,
        nodes,
        failure,
        detail,
    }
}

/// Hangs the program's own timers under the engine span: Manthan3's stage
/// timers as duration-only children, a race's racers as children that start
/// with the race.
fn hang_program_timers(tracer: &mut Tracer, engine_span: SpanId, detail: &Detail) {
    match detail {
        Detail::Manthan3(stats) => {
            tracer.child_duration("core.sample", engine_span, stats.sampling_time);
            tracer.child_duration("core.learn", engine_span, stats.learning_time);
            tracer.child_duration("core.verify", engine_span, stats.verification_time);
            tracer.child_duration("core.repair", engine_span, stats.repair_time);
        }
        Detail::Race { racers, .. } => {
            for r in racers {
                let name = match r.engine {
                    PortfolioEngine::Manthan3 => "portfolio.racer.manthan3",
                    PortfolioEngine::Hqs2Like => "baselines.expansion",
                    PortfolioEngine::PedantLike => "baselines.arbiter",
                    PortfolioEngine::Compositional => "portfolio.racer.compositional",
                };
                tracer.child_from_start(name, engine_span, r.runtime);
            }
        }
        Detail::Panicked => {}
    }
}

/// The correctness gate: the verdict against the generator's ground truth,
/// the vector against `verify::check`, certificates, panics and (on the
/// Manthan3 workloads) the safety-net budget.
fn gate(
    setup: &EngineSetup,
    case: &Case,
    outcome: &SynthesisOutcome,
    checked: Option<(verify::CheckOutcome, usize)>,
    detail: &Detail,
) -> (Verdict, usize, Option<String>) {
    let rejected = match detail {
        Detail::Manthan3(stats) => stats.oracle.certificates_rejected,
        Detail::Race { oracle, .. } => oracle.certificates_rejected,
        Detail::Panicked => {
            return (
                Verdict::Invalid,
                0,
                Some("the program call panicked".into()),
            );
        }
    };
    let (verdict, nodes, mut failure) = match (outcome, checked) {
        (SynthesisOutcome::Realizable(_), Some((check, nodes))) => {
            if check.is_valid() {
                (Verdict::Solved, nodes, None)
            } else {
                let why = format!("the returned vector fails verify::check: {check:?}");
                (Verdict::Invalid, 0, Some(why))
            }
        }
        (SynthesisOutcome::Unrealizable, _) => (Verdict::Unrealizable, 0, None),
        (SynthesisOutcome::Unknown(reason), _) => (Verdict::Unknown(*reason), 0, None),
        (SynthesisOutcome::Realizable(_), None) => unreachable!("every vector is checked"),
    };
    let contradicts = match (verdict, case.expected) {
        (Verdict::Solved, Some(false)) => Some("Realizable on an instance known false"),
        (Verdict::Unrealizable, Some(true)) => Some("Unrealizable on an instance known true"),
        _ => None,
    };
    if let Some(why) = contradicts {
        failure = Some(why.to_string());
    }
    if rejected > 0 {
        failure = Some(format!("{rejected} DRAT certificate(s) rejected"));
    }
    if matches!(setup, EngineSetup::Manthan3(_))
        && verdict == Verdict::Unknown(UnknownReason::TimeBudget)
    {
        failure = Some("the safety-net time budget decided the verdict".into());
    }
    (verdict, nodes, failure)
}
