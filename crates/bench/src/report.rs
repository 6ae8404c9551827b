//! VBS bookkeeping, cactus/scatter series, the summary table and the
//! per-run `runs.csv` columns (the data behind Figures 6–10 and the in-text
//! counts of the paper).

use crate::{EngineKind, RunRecord};
use manthan3_core::{OracleCounter, OracleStats};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// Per-instance synthesis time of one engine (only instances it synthesized).
pub fn solved_times(records: &[RunRecord], engine: EngineKind) -> BTreeMap<String, f64> {
    records
        .iter()
        .filter(|r| r.engine == engine && r.synthesized)
        .map(|r| (r.instance.clone(), r.seconds()))
        .collect()
}

/// The Virtual Best Synthesizer over a set of engines: per instance, the
/// minimum synthesis time among the engines that synthesized it.
pub fn vbs(records: &[RunRecord], engines: &[EngineKind]) -> BTreeMap<String, f64> {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    for &engine in engines {
        for (instance, time) in solved_times(records, engine) {
            best.entry(instance)
                .and_modify(|t| *t = t.min(time))
                .or_insert(time);
        }
    }
    best
}

/// Turns per-instance times into a cactus series: the `i`-th entry is the
/// time below which `i + 1` instances were synthesized.
pub fn cactus(times: &BTreeMap<String, f64>) -> Vec<f64> {
    let mut sorted: Vec<f64> = times.values().copied().collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    sorted
}

/// Rows of the Figure 6 cactus plot: `(instances_synthesized, time_vbs,
/// time_vbs_plus_manthan3, time_portfolio)`; entries are padded with empty
/// strings when one series has synthesized fewer instances. The last column
/// holds the *true wall-clock* times of the parallel portfolio engine and is
/// entirely empty unless the records contain [`EngineKind::Portfolio`] runs
/// (harness flag `--engine portfolio`) — unlike the two VBS columns, which
/// are post-hoc minima over sequential runs.
pub fn fig6_rows(records: &[RunRecord]) -> Vec<Vec<String>> {
    let without = cactus(&vbs(
        records,
        &[EngineKind::Hqs2Like, EngineKind::PedantLike],
    ));
    let with = cactus(&vbs(records, &EngineKind::ALL));
    let live = cactus(&solved_times(records, EngineKind::Portfolio));
    let len = without.len().max(with.len()).max(live.len());
    let fmt =
        |series: &[f64], i: usize| series.get(i).map(|t| format!("{t:.4}")).unwrap_or_default();
    (0..len)
        .map(|i| {
            vec![
                (i + 1).to_string(),
                fmt(&without, i),
                fmt(&with, i),
                fmt(&live, i),
            ]
        })
        .collect()
}

/// Rows of a scatter plot comparing two portfolios: per instance, the
/// synthesis time of each side (or `timeout` seconds when not synthesized).
pub fn scatter_rows(
    records: &[RunRecord],
    x_engines: &[EngineKind],
    y_engines: &[EngineKind],
    timeout: Duration,
) -> Vec<Vec<String>> {
    let xs = vbs(records, x_engines);
    let ys = vbs(records, y_engines);
    let instances: BTreeSet<String> = records.iter().map(|r| r.instance.clone()).collect();
    let cap = timeout.as_secs_f64();
    instances
        .into_iter()
        .map(|name| {
            let x = xs.get(&name).copied().unwrap_or(cap);
            let y = ys.get(&name).copied().unwrap_or(cap);
            vec![name, format!("{x:.4}"), format!("{y:.4}")]
        })
        .collect()
}

/// One `runs.csv` column: its header name and how a run record renders it.
enum RunColumn {
    /// A column read off the run record itself.
    Record(&'static str, fn(&RunRecord) -> String),
    /// A column generated from the oracle counter table.
    Oracle(&'static OracleCounter),
}

impl RunColumn {
    fn name(&self) -> &'static str {
        match self {
            RunColumn::Record(name, _) => name,
            RunColumn::Oracle(counter) => counter.column,
        }
    }

    fn render(&self, record: &RunRecord) -> String {
        match self {
            RunColumn::Record(_, render) => render(record),
            RunColumn::Oracle(counter) => counter.render(&record.oracle),
        }
    }
}

/// The `runs.csv` columns, in order: the run's identity and outcome, every
/// counter of [`OracleStats::COUNTERS`] (with the record's sampling and
/// throughput columns next to the counters they qualify), and the
/// compositional cluster columns.
fn run_columns() -> Vec<RunColumn> {
    use RunColumn::Record;
    let mut columns = vec![
        Record("instance", |r| r.instance.clone()),
        Record("family", |r| r.family.clone()),
        Record("engine", |r| r.engine.to_string()),
        Record("synthesized", |r| r.synthesized.to_string()),
        Record("decided", |r| r.decided.to_string()),
        Record("outcome", |r| r.outcome.clone()),
        Record("seconds", |r| format!("{:.4}", r.seconds())),
        Record("repair_iterations", |r| r.repair_iterations.to_string()),
    ];
    for counter in OracleStats::COUNTERS {
        columns.push(RunColumn::Oracle(counter));
        // The record's own columns keep their established header
        // positions, which the CI smoke steps grep for.
        match counter.column {
            "maxsat_cores" => columns.extend([
                Record("sample_wall_s", |r| {
                    format!("{:.4}", r.sample_wall.as_secs_f64())
                }),
                Record("sample_shards", |r| r.sample_shards.to_string()),
                Record("learn_wall_s", |r| {
                    format!("{:.4}", r.learn_wall.as_secs_f64())
                }),
            ]),
            "sat_propagations" => columns.push(Record("props_per_sec", |r| {
                format!("{:.1}", propagations_per_sec(&r.oracle))
            })),
            _ => {}
        }
    }
    columns.extend([
        Record("clusters", |r| r.clusters.to_string()),
        Record("cluster_wall_max_s", |r| {
            format!("{:.4}", r.cluster_wall_max.as_secs_f64())
        }),
        Record("cluster_wall_sum_s", |r| {
            format!("{:.4}", r.cluster_wall_sum.as_secs_f64())
        }),
    ]);
    columns
}

/// Propagations per second of time spent inside the solvers (0 when no
/// solver time was billed).
fn propagations_per_sec(oracle: &OracleStats) -> f64 {
    if oracle.sat_solve_nanos == 0 {
        0.0
    } else {
        oracle.sat_propagations as f64 / (oracle.sat_solve_nanos as f64 / 1e9)
    }
}

/// The `runs.csv` header.
pub fn runs_header() -> Vec<&'static str> {
    run_columns().iter().map(RunColumn::name).collect()
}

/// The `runs.csv` rows: one per run record, in [`runs_header`] order.
pub fn runs_rows(records: &[RunRecord]) -> Vec<Vec<String>> {
    let columns = run_columns();
    records
        .iter()
        .map(|r| columns.iter().map(|c| c.render(r)).collect())
        .collect()
}

/// The aggregate counts reported in the text of the paper's evaluation
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Total number of instances.
    pub total_instances: usize,
    /// Instances synthesized per engine.
    pub synthesized: BTreeMap<EngineKind, usize>,
    /// Instances decided (synthesized or proved false) per engine.
    pub decided: BTreeMap<EngineKind, usize>,
    /// Instances synthesized by the VBS of the two baselines.
    pub vbs_without_manthan3: usize,
    /// Instances synthesized by the VBS of all three engines.
    pub vbs_with_manthan3: usize,
    /// Instances only Manthan3 synthesized.
    pub manthan3_unique: usize,
    /// Instances where Manthan3 was the (strictly) fastest synthesizer.
    pub manthan3_fastest: usize,
    /// Instances Manthan3 synthesized but the HQS2-like engine did not.
    pub manthan3_not_hqs2: usize,
    /// Instances Manthan3 synthesized but the Pedant-like engine did not.
    pub manthan3_not_pedant: usize,
    /// Instances some baseline synthesized but Manthan3 did not.
    pub missed_by_manthan3: usize,
    /// Instances within 10 seconds of the baseline VBS for Manthan3
    /// (the green region of Figure 7).
    pub manthan3_within_10s_of_vbs: usize,
    /// Instances synthesized by the live parallel portfolio engine, when its
    /// records are present (`--engine portfolio`): the wall-clock
    /// counterpart of `vbs_with_manthan3`.
    pub portfolio_synthesized: Option<usize>,
    /// Instances decided by the live parallel portfolio engine, when its
    /// records are present.
    pub portfolio_decided: Option<usize>,
    /// Instances synthesized by the compositional engine, when its records
    /// are present (`--engine compositional`).
    pub compositional_synthesized: Option<usize>,
    /// Instances decided by the compositional engine, when its records are
    /// present.
    pub compositional_decided: Option<usize>,
    /// Total output clusters across the compositional runs, when present
    /// (instances × their partition sizes; equals the instance count when
    /// every instance degenerated to the monolithic pipeline).
    pub compositional_clusters: Option<usize>,
    /// Sum over the compositional runs of their longest per-cluster wall
    /// clock — the critical path a perfectly parallel schedule pays.
    pub cluster_wall_max_s: Option<f64>,
    /// Sum over the compositional runs of their total per-cluster wall
    /// clock — what a sequential schedule would have paid.
    pub cluster_wall_sum_s: Option<f64>,
    /// Total repair iterations across the Manthan3 runs.
    pub repair_iterations: usize,
    /// MaxSAT calls per repair iteration over the Manthan3 runs (zero when
    /// the suite needed no repairs). Tracks the one-FindCandidates-per-
    /// counterexample shape of the incremental loop.
    pub maxsat_calls_per_repair_iteration: f64,
    /// Total wall-clock seconds the Manthan3 runs spent in their sampling
    /// stage (the `sample_wall_s` summary row).
    pub sample_wall_s: f64,
    /// The sample-shard count the suite ran with (maximum across records;
    /// 1 = the plain single-threaded sampler).
    pub sample_shards: usize,
    /// Total wall-clock seconds the Manthan3 runs spent in their learn stage
    /// (the `learn_wall_s` summary row).
    pub learn_wall_s: f64,
    /// Propagations per second of time spent inside the solvers across the
    /// suite (the solver-modernization throughput headline).
    pub sat_propagations_per_sec: f64,
    /// The oracle counters of every run, folded with
    /// [`OracleStats::absorb`]: cumulative counters are summed across runs,
    /// and the live-database gauges (`learnt_db_live`, `glue2_clauses`,
    /// `arena_live_words`) hold their peak over the runs.
    pub oracle: OracleStats,
}

/// Computes the summary table from the run records.
pub fn summary(records: &[RunRecord]) -> Summary {
    let instances: BTreeSet<String> = records.iter().map(|r| r.instance.clone()).collect();
    let per_engine: BTreeMap<EngineKind, BTreeMap<String, f64>> = EngineKind::ALL
        .iter()
        .map(|&e| (e, solved_times(records, e)))
        .collect();
    let baseline_vbs = vbs(records, &[EngineKind::Hqs2Like, EngineKind::PedantLike]);
    let full_vbs = vbs(records, &EngineKind::ALL);
    let manthan3 = &per_engine[&EngineKind::Manthan3];
    let hqs = &per_engine[&EngineKind::Hqs2Like];
    let pedant = &per_engine[&EngineKind::PedantLike];

    let synthesized = EngineKind::ALL
        .iter()
        .map(|&e| (e, per_engine[&e].len()))
        .collect();
    let decided = EngineKind::ALL
        .iter()
        .map(|&e| {
            (
                e,
                records
                    .iter()
                    .filter(|r| r.engine == e && r.decided)
                    .count(),
            )
        })
        .collect();

    let manthan3_unique = manthan3
        .keys()
        .filter(|i| !baseline_vbs.contains_key(*i))
        .count();
    let manthan3_fastest = manthan3
        .iter()
        .filter(|(i, t)| baseline_vbs.get(*i).is_none_or(|b| *t < b))
        .count();
    let manthan3_not_hqs2 = manthan3.keys().filter(|i| !hqs.contains_key(*i)).count();
    let manthan3_not_pedant = manthan3.keys().filter(|i| !pedant.contains_key(*i)).count();
    let missed_by_manthan3 = baseline_vbs
        .keys()
        .filter(|i| !manthan3.contains_key(*i))
        .count();
    let manthan3_within_10s_of_vbs = manthan3
        .iter()
        .filter(|(i, t)| baseline_vbs.get(*i).is_some_and(|b| **t <= *b + 10.0))
        .count();
    let portfolio_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Portfolio)
        .collect();
    let (portfolio_synthesized, portfolio_decided) = if portfolio_records.is_empty() {
        (None, None)
    } else {
        (
            Some(portfolio_records.iter().filter(|r| r.synthesized).count()),
            Some(portfolio_records.iter().filter(|r| r.decided).count()),
        )
    };
    let compositional_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Compositional)
        .collect();
    let (
        compositional_synthesized,
        compositional_decided,
        compositional_clusters,
        cluster_wall_max_s,
        cluster_wall_sum_s,
    ) = if compositional_records.is_empty() {
        (None, None, None, None, None)
    } else {
        (
            Some(
                compositional_records
                    .iter()
                    .filter(|r| r.synthesized)
                    .count(),
            ),
            Some(compositional_records.iter().filter(|r| r.decided).count()),
            Some(compositional_records.iter().map(|r| r.clusters).sum()),
            Some(
                compositional_records
                    .iter()
                    .map(|r| r.cluster_wall_max.as_secs_f64())
                    .sum(),
            ),
            Some(
                compositional_records
                    .iter()
                    .map(|r| r.cluster_wall_sum.as_secs_f64())
                    .sum(),
            ),
        )
    };

    let mut oracle = OracleStats::default();
    for r in records {
        oracle.absorb(&r.oracle);
    }
    // The per-iteration ratio is a Manthan3 shape invariant (one
    // FindCandidates call per counterexample), so it is computed over the
    // Manthan3 records only — the portfolio merges counters across engines
    // without per-engine iteration counts.
    let manthan3_records: Vec<&RunRecord> = records
        .iter()
        .filter(|r| r.engine == EngineKind::Manthan3)
        .collect();
    let repair_iterations: usize = manthan3_records.iter().map(|r| r.repair_iterations).sum();
    let sample_wall_s: f64 = manthan3_records
        .iter()
        .map(|r| r.sample_wall.as_secs_f64())
        .sum();
    let sample_shards = records.iter().map(|r| r.sample_shards).max().unwrap_or(0);
    let learn_wall_s: f64 = manthan3_records
        .iter()
        .map(|r| r.learn_wall.as_secs_f64())
        .sum();
    let manthan3_maxsat_calls: usize = manthan3_records.iter().map(|r| r.oracle.maxsat_calls).sum();
    let maxsat_calls_per_repair_iteration = if repair_iterations == 0 {
        0.0
    } else {
        manthan3_maxsat_calls as f64 / repair_iterations as f64
    };
    let sat_propagations_per_sec = propagations_per_sec(&oracle);

    Summary {
        total_instances: instances.len(),
        synthesized,
        decided,
        vbs_without_manthan3: baseline_vbs.len(),
        vbs_with_manthan3: full_vbs.len(),
        manthan3_unique,
        manthan3_fastest,
        manthan3_not_hqs2,
        manthan3_not_pedant,
        missed_by_manthan3,
        manthan3_within_10s_of_vbs,
        portfolio_synthesized,
        portfolio_decided,
        compositional_synthesized,
        compositional_decided,
        compositional_clusters,
        cluster_wall_max_s,
        cluster_wall_sum_s,
        repair_iterations,
        maxsat_calls_per_repair_iteration,
        sample_wall_s,
        sample_shards,
        learn_wall_s,
        sat_propagations_per_sec,
        oracle,
    }
}

impl Summary {
    /// Renders the summary as CSV rows `(metric, value)`.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows = vec![
            vec!["total_instances".into(), self.total_instances.to_string()],
            vec![
                "vbs_without_manthan3".into(),
                self.vbs_without_manthan3.to_string(),
            ],
            vec![
                "vbs_with_manthan3".into(),
                self.vbs_with_manthan3.to_string(),
            ],
            vec!["manthan3_unique".into(), self.manthan3_unique.to_string()],
            vec!["manthan3_fastest".into(), self.manthan3_fastest.to_string()],
            vec![
                "manthan3_not_hqs2".into(),
                self.manthan3_not_hqs2.to_string(),
            ],
            vec![
                "manthan3_not_pedant".into(),
                self.manthan3_not_pedant.to_string(),
            ],
            vec![
                "missed_by_manthan3".into(),
                self.missed_by_manthan3.to_string(),
            ],
            vec![
                "manthan3_within_10s_of_vbs".into(),
                self.manthan3_within_10s_of_vbs.to_string(),
            ],
        ];
        for engine in EngineKind::ALL {
            rows.push(vec![
                format!("synthesized_{engine}"),
                self.synthesized[&engine].to_string(),
            ]);
            rows.push(vec![
                format!("decided_{engine}"),
                self.decided[&engine].to_string(),
            ]);
        }
        if let (Some(synthesized), Some(decided)) =
            (self.portfolio_synthesized, self.portfolio_decided)
        {
            rows.push(vec![
                "synthesized_portfolio".into(),
                synthesized.to_string(),
            ]);
            rows.push(vec!["decided_portfolio".into(), decided.to_string()]);
        }
        if let (Some(synthesized), Some(decided)) =
            (self.compositional_synthesized, self.compositional_decided)
        {
            rows.push(vec![
                "synthesized_compositional".into(),
                synthesized.to_string(),
            ]);
            rows.push(vec!["decided_compositional".into(), decided.to_string()]);
        }
        // Compositional cluster columns: the partition sizes and the
        // parallel-vs-sequential cluster wall clocks (critical path vs.
        // total work).
        if let (Some(clusters), Some(wall_max), Some(wall_sum)) = (
            self.compositional_clusters,
            self.cluster_wall_max_s,
            self.cluster_wall_sum_s,
        ) {
            rows.push(vec!["compositional_clusters".into(), clusters.to_string()]);
            rows.push(vec!["cluster_wall_max_s".into(), format!("{wall_max:.4}")]);
            rows.push(vec!["cluster_wall_sum_s".into(), format!("{wall_sum:.4}")]);
        }
        // Rows derived from the records and the counters together.
        rows.extend([
            vec![
                "repair_iterations".into(),
                self.repair_iterations.to_string(),
            ],
            vec![
                "maxsat_calls_per_repair_iteration".into(),
                format!("{:.3}", self.maxsat_calls_per_repair_iteration),
            ],
            vec!["sample_wall_s".into(), format!("{:.4}", self.sample_wall_s)],
            vec!["sample_shards".into(), self.sample_shards.to_string()],
            vec!["learn_wall_s".into(), format!("{:.4}", self.learn_wall_s)],
            vec![
                "sat_propagations_per_sec".into(),
                format!("{:.1}", self.sat_propagations_per_sec),
            ],
            vec![
                "inprocess_reductions".into(),
                self.oracle.inprocess_reductions().to_string(),
            ],
        ]);
        // One row per oracle counter, from the counter table.
        rows.extend(
            OracleStats::COUNTERS
                .iter()
                .map(|c| vec![c.summary.into(), c.render(&self.oracle)]),
        );
        rows
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = &self.oracle;
        writeln!(f, "instances:                 {}", self.total_instances)?;
        for engine in EngineKind::ALL {
            writeln!(
                f,
                "synthesized by {engine:<11} {} (decided {})",
                self.synthesized[&engine], self.decided[&engine]
            )?;
        }
        writeln!(
            f,
            "VBS(HQS2+Pedant):          {}",
            self.vbs_without_manthan3
        )?;
        writeln!(f, "VBS(+Manthan3):            {}", self.vbs_with_manthan3)?;
        writeln!(f, "Manthan3 unique:           {}", self.manthan3_unique)?;
        writeln!(f, "Manthan3 fastest:          {}", self.manthan3_fastest)?;
        writeln!(f, "Manthan3 not HQS2-like:    {}", self.manthan3_not_hqs2)?;
        writeln!(f, "Manthan3 not Pedant-like:  {}", self.manthan3_not_pedant)?;
        writeln!(f, "missed by Manthan3:        {}", self.missed_by_manthan3)?;
        write!(
            f,
            "Manthan3 within +10s of VBS: {}",
            self.manthan3_within_10s_of_vbs
        )?;
        write!(
            f,
            "\nMaxSAT calls:              {} ({} incremental, {} fresh encodes, \
             {:.3} per repair iteration; {} probes, {} cores)",
            o.maxsat_calls,
            o.maxsat_incremental_calls,
            o.maxsat_hard_encodings,
            self.maxsat_calls_per_repair_iteration,
            o.maxsat_probes,
            o.maxsat_cores
        )?;
        write!(
            f,
            "\nsampling:                  {:.2}s wall across {} shard(s), {} solver calls, \
             {} shortfalls",
            self.sample_wall_s, self.sample_shards, o.sampler_calls, o.sample_shortfalls
        )?;
        write!(
            f,
            "\nSAT solver layer:          {} propagations ({:.0}/s), {} conflicts, \
             {} decisions, {} restarts ({} reused levels, {} rephases), \
             {} learnt live ({} glue), {} inprocess reductions \
             ({} subsumed + {} strengthened over {} passes; vivify {}/{}), \
             {} arena GCs ({} live words), {} budget refusals, \
             {}/{}/{} solvers (sat/maxsat/samplers)",
            o.sat_propagations,
            self.sat_propagations_per_sec,
            o.conflicts,
            o.decisions,
            o.sat_restarts,
            o.reused_levels,
            o.rephases,
            o.learnt_db_live,
            o.glue2_clauses,
            o.inprocess_reductions(),
            o.inprocess_subsumed,
            o.inprocess_strengthened,
            o.inprocess_passes,
            o.vivify_strengthened,
            o.vivify_candidates,
            o.arena_collections,
            o.arena_live_words,
            o.budget_exhaustions,
            o.sat_solvers_constructed,
            o.maxsat_solvers_constructed,
            o.samplers_constructed
        )?;
        if o.certificates_checked > 0 {
            write!(
                f,
                "\ncertification:             {} UNSAT certificates checked, {} rejected \
                 ({} proof bytes, {} adds + {} deletes, {:.2}s checking)",
                o.certificates_checked,
                o.certificates_rejected,
                o.proof_bytes,
                o.proof_adds,
                o.proof_deletes,
                o.certify_nanos as f64 / 1e9
            )?;
        }
        if let (Some(synthesized), Some(decided)) =
            (self.portfolio_synthesized, self.portfolio_decided)
        {
            write!(
                f,
                "\nparallel portfolio:        {synthesized} (decided {decided}, true wall-clock)"
            )?;
        }
        if let (Some(synthesized), Some(decided)) =
            (self.compositional_synthesized, self.compositional_decided)
        {
            write!(
                f,
                "\ncompositional:             {synthesized} (decided {decided}, {} clusters, \
                 cluster wall {:.2}s critical path / {:.2}s total)",
                self.compositional_clusters.unwrap_or(0),
                self.cluster_wall_max_s.unwrap_or(0.0),
                self.cluster_wall_sum_s.unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(instance: &str, engine: EngineKind, synthesized: bool, seconds: f64) -> RunRecord {
        RunRecord {
            instance: instance.to_string(),
            family: "planted".to_string(),
            engine,
            synthesized,
            decided: synthesized,
            outcome: if synthesized { "realizable" } else { "unknown" }.to_string(),
            time: Duration::from_secs_f64(seconds),
            oracle: manthan3_core::OracleStats::default(),
            repair_iterations: 0,
            sample_wall: Duration::ZERO,
            sample_shards: 1,
            learn_wall: Duration::ZERO,
            clusters: 0,
            cluster_wall_max: Duration::ZERO,
            cluster_wall_sum: Duration::ZERO,
            certification_failure: None,
        }
    }

    fn sample_records() -> Vec<RunRecord> {
        vec![
            // i1: all three solve, manthan3 fastest.
            record("i1", EngineKind::Manthan3, true, 0.1),
            record("i1", EngineKind::Hqs2Like, true, 0.5),
            record("i1", EngineKind::PedantLike, true, 0.9),
            // i2: only manthan3 solves.
            record("i2", EngineKind::Manthan3, true, 1.0),
            record("i2", EngineKind::Hqs2Like, false, 2.0),
            record("i2", EngineKind::PedantLike, false, 2.0),
            // i3: only hqs solves.
            record("i3", EngineKind::Manthan3, false, 2.0),
            record("i3", EngineKind::Hqs2Like, true, 0.2),
            record("i3", EngineKind::PedantLike, false, 2.0),
        ]
    }

    #[test]
    fn vbs_takes_the_minimum() {
        let records = sample_records();
        let all = vbs(&records, &EngineKind::ALL);
        assert_eq!(all.len(), 3);
        assert!((all["i1"] - 0.1).abs() < 1e-9);
        let baseline = vbs(&records, &[EngineKind::Hqs2Like, EngineKind::PedantLike]);
        assert_eq!(baseline.len(), 2);
    }

    #[test]
    fn cactus_is_sorted_and_cumulative() {
        let records = sample_records();
        let series = cactus(&vbs(&records, &EngineKind::ALL));
        assert_eq!(series.len(), 3);
        assert!(series.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn summary_counts_match_hand_computation() {
        let records = sample_records();
        let s = summary(&records);
        assert_eq!(s.total_instances, 3);
        assert_eq!(s.synthesized[&EngineKind::Manthan3], 2);
        assert_eq!(s.synthesized[&EngineKind::Hqs2Like], 2);
        assert_eq!(s.synthesized[&EngineKind::PedantLike], 1);
        assert_eq!(s.vbs_without_manthan3, 2);
        assert_eq!(s.vbs_with_manthan3, 3);
        assert_eq!(s.manthan3_unique, 1);
        assert_eq!(s.manthan3_fastest, 2);
        assert_eq!(s.manthan3_not_hqs2, 1);
        assert_eq!(s.manthan3_not_pedant, 1);
        assert_eq!(s.missed_by_manthan3, 1);
        assert_eq!(s.manthan3_within_10s_of_vbs, 1);
        let text = s.to_string();
        assert!(text.contains("Manthan3 unique:           1"));
        assert!(s.rows().len() >= 9);
    }

    #[test]
    fn fig6_rows_have_three_series() {
        let records = sample_records();
        let rows = fig6_rows(&records);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 4);
        // The third entry exists only for the +Manthan3 portfolio.
        assert!(rows[2][1].is_empty());
        assert!(!rows[2][2].is_empty());
        // No live portfolio records: the wall-clock column stays empty.
        assert!(rows.iter().all(|r| r[3].is_empty()));
    }

    #[test]
    fn portfolio_records_fill_the_wall_clock_series_and_summary() {
        let mut records = sample_records();
        records.push(record("i1", EngineKind::Portfolio, true, 0.05));
        records.push(record("i2", EngineKind::Portfolio, true, 0.8));
        records.push(record("i3", EngineKind::Portfolio, true, 0.3));
        let rows = fig6_rows(&records);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| !r[3].is_empty()));
        assert_eq!(rows[0][3], "0.0500");

        let s = summary(&records);
        assert_eq!(s.portfolio_synthesized, Some(3));
        assert_eq!(s.portfolio_decided, Some(3));
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "synthesized_portfolio" && r[1] == "3"));
        assert!(s.to_string().contains("parallel portfolio"));
    }

    #[test]
    fn compositional_records_fill_the_cluster_summary() {
        // No compositional records: the columns stay absent.
        let s = summary(&sample_records());
        assert_eq!(s.compositional_synthesized, None);
        assert!(!s.rows().iter().any(|r| r[0] == "compositional_clusters"));

        let mut records = sample_records();
        let mut c1 = record("i1", EngineKind::Compositional, true, 0.06);
        c1.clusters = 3;
        c1.cluster_wall_max = Duration::from_millis(40);
        c1.cluster_wall_sum = Duration::from_millis(100);
        let mut c2 = record("i2", EngineKind::Compositional, true, 0.5);
        c2.clusters = 1;
        c2.cluster_wall_max = Duration::from_millis(500);
        c2.cluster_wall_sum = Duration::from_millis(500);
        records.push(c1);
        records.push(c2);
        let s = summary(&records);
        assert_eq!(s.compositional_synthesized, Some(2));
        assert_eq!(s.compositional_decided, Some(2));
        assert_eq!(s.compositional_clusters, Some(4));
        assert!((s.cluster_wall_max_s.unwrap() - 0.54).abs() < 1e-9);
        assert!((s.cluster_wall_sum_s.unwrap() - 0.6).abs() < 1e-9);
        let rows = s.rows();
        assert!(rows
            .iter()
            .any(|r| r[0] == "synthesized_compositional" && r[1] == "2"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "compositional_clusters" && r[1] == "4"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "cluster_wall_max_s" && r[1] == "0.5400"));
        assert!(rows
            .iter()
            .any(|r| r[0] == "cluster_wall_sum_s" && r[1] == "0.6000"));
        assert!(s.to_string().contains("compositional:"));
    }

    /// The value of summary row `name`.
    fn row<'a>(rows: &'a [Vec<String>], name: &str) -> &'a str {
        match rows.iter().find(|r| r[0] == name) {
            Some(r) => &r[1],
            None => panic!("no summary row {name}"),
        }
    }

    #[test]
    fn maxsat_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        // The two Manthan3 runs did 5 + 3 repair iterations with one fresh
        // encode each and one incremental FindCandidates call per iteration;
        // a baseline record contributes nothing.
        records[0].oracle.maxsat_calls = 5;
        records[0].oracle.maxsat_incremental_calls = 5;
        records[0].oracle.maxsat_hard_encodings = 1;
        records[0].oracle.maxsat_probes = 12;
        records[0].oracle.maxsat_cores = 4;
        records[0].repair_iterations = 5;
        records[3].oracle.maxsat_calls = 3;
        records[3].oracle.maxsat_incremental_calls = 3;
        records[3].oracle.maxsat_hard_encodings = 1;
        records[3].oracle.maxsat_probes = 7;
        records[3].oracle.maxsat_cores = 2;
        records[3].repair_iterations = 3;
        let s = summary(&records);
        assert_eq!(s.oracle.maxsat_calls, 8);
        assert_eq!(s.oracle.maxsat_incremental_calls, 8);
        assert_eq!(s.oracle.maxsat_hard_encodings, 2);
        assert_eq!(s.oracle.maxsat_probes, 19);
        assert_eq!(s.oracle.maxsat_cores, 6);
        assert_eq!(s.repair_iterations, 8);
        assert!((s.maxsat_calls_per_repair_iteration - 1.0).abs() < 1e-9);
        let rows = s.rows();
        assert_eq!(row(&rows, "maxsat_incremental_hits"), "8");
        assert_eq!(row(&rows, "maxsat_fresh_encodes"), "2");
        assert_eq!(row(&rows, "maxsat_probes"), "19");
        assert_eq!(row(&rows, "maxsat_cores"), "6");
        assert_eq!(row(&rows, "maxsat_calls_per_repair_iteration"), "1.000");
        assert!(s.to_string().contains("MaxSAT calls"));
    }

    #[test]
    fn sampling_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].sample_wall = Duration::from_millis(250);
        records[0].sample_shards = 4;
        records[0].oracle.sampler_calls = 120;
        records[3].sample_wall = Duration::from_millis(150);
        records[3].sample_shards = 4;
        records[3].oracle.sampler_calls = 80;
        records[3].oracle.sample_shortfalls = 1;
        records[0].learn_wall = Duration::from_millis(30);
        records[3].learn_wall = Duration::from_millis(20);
        // Only Manthan3 runs count toward the stage totals.
        records[1].learn_wall = Duration::from_millis(500);
        let s = summary(&records);
        assert!((s.sample_wall_s - 0.4).abs() < 1e-9);
        assert!((s.learn_wall_s - 0.05).abs() < 1e-9);
        assert_eq!(s.sample_shards, 4);
        assert_eq!(s.oracle.sampler_calls, 200);
        assert_eq!(s.oracle.sample_shortfalls, 1);
        let rows = s.rows();
        assert_eq!(row(&rows, "sample_wall_s"), "0.4000");
        assert_eq!(row(&rows, "sample_shards"), "4");
        assert_eq!(row(&rows, "learn_wall_s"), "0.0500");
        assert_eq!(row(&rows, "sampler_calls"), "200");
        assert_eq!(row(&rows, "sample_shortfalls"), "1");
        assert!(s.to_string().contains("sampling:"));
    }

    #[test]
    fn solver_counters_aggregate_into_the_summary() {
        let mut records = sample_records();
        records[0].oracle.sat_propagations = 900;
        records[0].oracle.sat_solve_nanos = 250_000_000;
        records[0].oracle.conflicts = 30;
        records[0].oracle.decisions = 60;
        records[0].oracle.sat_restarts = 12;
        records[0].oracle.reused_levels = 9;
        records[0].oracle.rephases = 2;
        records[0].oracle.learnt_db_live = 40;
        records[0].oracle.glue2_clauses = 7;
        records[0].oracle.inprocess_subsumed = 3;
        records[0].oracle.inprocess_strengthened = 2;
        records[0].oracle.inprocess_passes = 4;
        records[0].oracle.vivify_candidates = 10;
        records[0].oracle.vivify_strengthened = 2;
        records[0].oracle.arena_collections = 2;
        records[0].oracle.arena_live_words = 512;
        records[0].oracle.budget_exhaustions = 1;
        records[0].oracle.sat_solvers_constructed = 2;
        records[0].oracle.maxsat_solvers_constructed = 1;
        records[0].oracle.samplers_constructed = 1;
        records[3].oracle.sat_propagations = 100;
        records[3].oracle.sat_solve_nanos = 150_000_000;
        records[3].oracle.conflicts = 5;
        records[3].oracle.decisions = 8;
        records[3].oracle.sat_restarts = 3;
        records[3].oracle.reused_levels = 1;
        records[3].oracle.rephases = 1;
        records[3].oracle.learnt_db_live = 10;
        records[3].oracle.glue2_clauses = 1;
        records[3].oracle.inprocess_subsumed = 1;
        records[3].oracle.inprocess_passes = 1;
        records[3].oracle.arena_collections = 1;
        records[3].oracle.arena_live_words = 128;
        records[3].oracle.sat_solvers_constructed = 2;
        let s = summary(&records);
        let o = &s.oracle;
        assert_eq!(o.sat_propagations, 1000);
        assert_eq!(o.conflicts, 35);
        assert_eq!(o.decisions, 68);
        assert_eq!(o.sat_restarts, 15);
        assert_eq!(o.reused_levels, 10);
        assert_eq!(o.rephases, 3);
        // The live-database gauges hold their peak over the runs.
        assert_eq!(o.learnt_db_live, 40);
        assert_eq!(o.glue2_clauses, 7);
        assert_eq!(o.inprocess_subsumed, 4);
        assert_eq!(o.inprocess_strengthened, 2);
        assert_eq!(o.inprocess_passes, 5);
        assert_eq!(o.vivify_candidates, 10);
        assert_eq!(o.vivify_strengthened, 2);
        assert_eq!(o.arena_collections, 3);
        assert_eq!(o.arena_live_words, 512);
        assert_eq!(o.budget_exhaustions, 1);
        assert_eq!(o.sat_solvers_constructed, 4);
        assert_eq!(o.maxsat_solvers_constructed, 1);
        assert_eq!(o.samplers_constructed, 1);
        // The rate is over in-solver time (0.25 s + 0.15 s), not the runs'
        // 10.7 s of wall clock.
        assert_eq!(o.sat_solve_nanos, 400_000_000);
        assert!((s.sat_propagations_per_sec - 1000.0 / 0.4).abs() < 1e-6);
        let rows = s.rows();
        assert_eq!(row(&rows, "sat_solve_wall_s"), "0.4000");
        assert_eq!(row(&rows, "sat_propagations"), "1000");
        assert_eq!(row(&rows, "sat_propagations_per_sec"), "2500.0");
        // Per run too: 900 propagations in 0.25 s of solver time.
        let rate = runs_header()
            .iter()
            .position(|&c| c == "props_per_sec")
            .unwrap();
        assert_eq!(runs_rows(&records)[0][rate], "3600.0");
        assert_eq!(row(&rows, "conflicts"), "35");
        assert_eq!(row(&rows, "decisions"), "68");
        assert_eq!(row(&rows, "sat_restarts"), "15");
        assert_eq!(row(&rows, "reused_levels"), "10");
        assert_eq!(row(&rows, "rephases"), "3");
        assert_eq!(row(&rows, "learnt_clauses_live"), "40");
        assert_eq!(row(&rows, "glue2_clauses"), "7");
        // The combined reductions row stays alongside the per-kind split.
        assert_eq!(row(&rows, "inprocess_reductions"), "6");
        assert_eq!(row(&rows, "inprocess_subsumed"), "4");
        assert_eq!(row(&rows, "inprocess_strengthened"), "2");
        assert_eq!(row(&rows, "inprocess_passes"), "5");
        assert_eq!(row(&rows, "vivify_candidates"), "10");
        assert_eq!(row(&rows, "vivify_strengthened"), "2");
        assert_eq!(row(&rows, "arena_collections"), "3");
        assert_eq!(row(&rows, "arena_live_words"), "512");
        assert_eq!(row(&rows, "budget_exhaustions"), "1");
        assert_eq!(row(&rows, "sat_solvers_constructed"), "4");
        assert_eq!(row(&rows, "maxsat_solvers_constructed"), "1");
        assert_eq!(row(&rows, "samplers_constructed"), "1");
        assert!(s.to_string().contains("SAT solver layer"));
    }

    #[test]
    fn certification_counters_aggregate_into_the_summary() {
        // No certified runs: the counters stay zero and the Display line is
        // suppressed.
        let s = summary(&sample_records());
        assert_eq!(s.oracle.certificates_checked, 0);
        assert!(!s.to_string().contains("certification:"));
        assert_eq!(row(&s.rows(), "certificates_checked"), "0");

        let mut records = sample_records();
        records[0].oracle.models_verified = 5;
        records[0].oracle.certificates_checked = 3;
        records[0].oracle.proof_bytes = 1024;
        records[0].oracle.proof_adds = 40;
        records[0].oracle.proof_deletes = 12;
        records[0].oracle.certify_nanos = 1_500_000_000;
        records[3].oracle.certificates_checked = 2;
        records[3].oracle.certificates_rejected = 1;
        records[3].oracle.proof_bytes = 476;
        records[3].oracle.proof_adds = 10;
        records[3].oracle.certify_nanos = 500_000_000;
        let s = summary(&records);
        let o = &s.oracle;
        assert_eq!(o.models_verified, 5);
        assert_eq!(o.certificates_checked, 5);
        assert_eq!(o.certificates_rejected, 1);
        assert_eq!(o.proof_bytes, 1500);
        assert_eq!(o.proof_adds, 50);
        assert_eq!(o.proof_deletes, 12);
        assert_eq!(o.certify_nanos, 2_000_000_000);
        let rows = s.rows();
        assert_eq!(row(&rows, "certificates_checked"), "5");
        assert_eq!(row(&rows, "certificates_rejected"), "1");
        assert_eq!(row(&rows, "proof_bytes"), "1500");
        assert_eq!(row(&rows, "certify_wall_s"), "2.0000");
        assert_eq!(row(&rows, "models_verified"), "5");
        assert!(s.to_string().contains("certification:"));
        assert!(s.to_string().contains("1 rejected"));
    }

    #[test]
    fn runs_header_is_pinned() {
        // The CI smoke runs grep contiguous runs of this header; a change
        // here must be mirrored there.
        assert_eq!(
            runs_header().join(","),
            "instance,family,engine,synthesized,decided,outcome,seconds,repair_iterations,\
             sat_calls,maxsat_calls,maxsat_incremental_calls,maxsat_hard_encodings,\
             maxsat_probes,maxsat_cores,sample_wall_s,sample_shards,learn_wall_s,\
             sampler_calls,sample_shortfalls,sat_solve_wall_s,sat_propagations,props_per_sec,conflicts,\
             decisions,sat_restarts,reused_levels,rephases,learnt_clauses_live,glue2_clauses,\
             inprocess_subsumed,inprocess_strengthened,inprocess_passes,vivify_candidates,\
             vivify_strengthened,arena_collections,arena_live_words,models_verified,\
             certificates_checked,certificates_rejected,proof_bytes,proof_adds,\
             proof_deletes,certify_wall_s,budget_exhaustions,sat_solvers_constructed,\
             maxsat_solvers_constructed,samplers_constructed,clusters,cluster_wall_max_s,\
             cluster_wall_sum_s"
        );
    }

    #[test]
    fn every_counter_has_one_column_and_one_summary_row() {
        let header = runs_header();
        let rows = summary(&sample_records()).rows();
        let names: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
        let distinct = |list: &[&str]| list.iter().collect::<BTreeSet<_>>().len() == list.len();
        assert!(distinct(&header), "a runs.csv column repeats");
        assert!(distinct(&names), "a summary row repeats");
        for counter in OracleStats::COUNTERS {
            assert!(header.contains(&counter.column), "{}", counter.field);
            assert!(names.contains(&counter.summary), "{}", counter.field);
        }
        // Every row of a run renders one cell per header column.
        assert!(runs_rows(&sample_records())
            .iter()
            .all(|r| r.len() == header.len()));
    }

    #[test]
    fn repair_free_suites_report_a_zero_ratio() {
        let s = summary(&sample_records());
        assert_eq!(s.repair_iterations, 0);
        assert_eq!(s.maxsat_calls_per_repair_iteration, 0.0);
        assert!(s
            .rows()
            .iter()
            .any(|r| r[0] == "maxsat_calls_per_repair_iteration" && r[1] == "0.000"));
    }

    #[test]
    fn scatter_rows_cover_every_instance() {
        let records = sample_records();
        let rows = scatter_rows(
            &records,
            &[EngineKind::Hqs2Like],
            &[EngineKind::Manthan3],
            Duration::from_secs(10),
        );
        assert_eq!(rows.len(), 3);
        // i2 is a timeout for the HQS2-like engine.
        let i2 = rows.iter().find(|r| r[0] == "i2").unwrap();
        assert_eq!(i2[1], "10.0000");
    }
}
