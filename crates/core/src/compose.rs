//! Compositional synthesis: concurrent per-cluster CEGIS with a
//! composition-time verify and coupled-residue repair.
//!
//! The [`CompositionalEngine`] is the scale play the ROADMAP's
//! compositional-decomposition item calls for. Where [`Manthan3`] runs one
//! `Preprocess → Sample → Learn → Order → VerifyRepair` pipeline over *all*
//! outputs, this engine first partitions the outputs with
//! [`manthan3_dqbf::decompose`] and then runs **one full Manthan3 pipeline
//! per cluster, concurrently**, on the same thread plumbing the portfolio
//! uses (scoped threads, a relaxed ticket counter, cooperative cancellation
//! through the shared token):
//!
//! * every cluster pipeline gets a clone of the run's [`Budget`] — clones
//!   share the deadline and the [`CancelToken`](manthan3_sat::CancelToken),
//!   so portfolio preemption of the whole compositional racer keeps working —
//! * and an [`Oracle`] wired to one shared [`CallBudget`]
//!   ([`Oracle::with_call_allowance`]), so the clusters draw on a single
//!   global `max_sat_calls` pool instead of multiplying the allowance by the
//!   cluster count.
//!
//! A cluster subproblem's clauses are a subset of the whole matrix over a
//! subset of the outputs, so a cluster-level **Unrealizable is sound for the
//! whole formula**: the first cluster to prove it cancels the token and the
//! run reports Unrealizable without waiting for the rest.
//!
//! When all clusters return Henkin vectors, the per-cluster cones (each
//! grown in its own cluster-local AIG) are merged into one shared vector
//! with [`manthan3_aig::Aig::import`] and a **whole-formula verify** runs.
//! With no coupling clauses (the decomposition found naturally independent
//! clusters) this first verify must pass. A counterexample can only falsify
//! a coupling clause — one that `max_cluster_size` severed — and its
//! existential support names the offending clusters. The **coupled-residue
//! repair** merges exactly those clusters
//! ([`Decomposition::merged_subproblem`] restores the coupling clauses
//! internal to the union) and re-synthesizes the merged subproblem only,
//! leaving every other cluster's functions untouched. Each round strictly
//! decreases the number of cluster groups, so the loop terminates — in the
//! worst case at one group, which *is* the monolithic problem and returns
//! its verdict directly.

use crate::config::Manthan3Config;
use crate::engine::{Manthan3, SynthesisOutcome, SynthesisResult};
use crate::oracle::{Budget, Oracle, UnknownReason};
use crate::session::{Delta, VerifyOutcome, VerifySession};
use crate::stats::SynthesisStats;
use manthan3_cnf::Assignment;
use manthan3_dqbf::decompose::{decompose, DecomposeOptions, Decomposition};
use manthan3_dqbf::{Dqbf, HenkinVector};
use manthan3_sat::{CallBudget, SolverConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of the [`CompositionalEngine`].
#[derive(Debug, Clone)]
pub struct CompositionalConfig {
    /// The configuration every per-cluster Manthan3 pipeline runs with
    /// (budget fields are read by [`CompositionalEngine::synthesize`] for
    /// the run-wide budget, exactly like the monolithic engine).
    pub engine: Manthan3Config,
    /// Upper bound on the outputs per cluster, forwarded to
    /// [`DecomposeOptions::max_cluster_size`]. Splitting oversized natural
    /// clusters is what introduces coupling clauses — and the
    /// composition-repair work that discharges them. This is the knob the
    /// portfolio's cluster-merge-threshold racing dimension turns.
    pub max_cluster_size: Option<usize>,
    /// When `true` (the default), a composition-time counterexample is
    /// repaired by merging the offending clusters and re-synthesizing the
    /// coupled residue. When `false`, the engine falls back to one
    /// monolithic re-synthesis instead.
    pub compose_repairs: bool,
    /// Worker threads for the concurrent cluster loops; `0` uses the
    /// machine's available parallelism. Never more workers than clusters.
    pub threads: usize,
}

impl Default for CompositionalConfig {
    fn default() -> Self {
        CompositionalConfig {
            engine: Manthan3Config::default(),
            max_cluster_size: None,
            compose_repairs: true,
            threads: 0,
        }
    }
}

/// The compositional synthesis engine. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct CompositionalEngine {
    config: CompositionalConfig,
}

/// Outcome of the concurrent per-cluster phase, before composition.
enum ClusterPhase {
    /// Every cluster produced a vector (in cluster order).
    AllRealizable(Vec<HenkinVector>),
    /// A decisive or terminal verdict was reached without composing.
    Done(SynthesisOutcome),
}

impl CompositionalEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: CompositionalConfig) -> Self {
        CompositionalEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CompositionalConfig {
        &self.config
    }

    /// Synthesizes a Henkin function vector for `dqbf` compositionally,
    /// under the budget described by the engine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize(&self, dqbf: &Dqbf) -> SynthesisResult {
        let budget = Budget::new(
            self.config.engine.time_budget,
            self.config.engine.sat_conflict_budget,
            self.config.engine.sat_call_budget,
        );
        self.synthesize_with_budget(dqbf, budget)
    }

    /// Like [`CompositionalEngine::synthesize`], but under an externally
    /// supplied [`Budget`] (the portfolio's racing entry point — clones of
    /// the budget share its deadline and cancellation token).
    ///
    /// # Panics
    ///
    /// Panics if `dqbf` fails [`Dqbf::validate`].
    pub fn synthesize_with_budget(&self, dqbf: &Dqbf, budget: Budget) -> SynthesisResult {
        // invariant: documented panic contract — callers must pass a
        // validated DQBF.
        dqbf.validate().expect("well-formed DQBF");
        let run_start = Instant::now();

        // Annotate every cluster with its Padoa-defined outputs: the probe
        // is a few conflict-budgeted SAT calls per output — cheap next to a
        // synthesis pipeline — and the annotation drives the launch order of
        // the cluster phase (most-defined first; see `run_clusters`). The
        // probe runs inside `manthan3-dqbf` with its own solvers, like
        // unique-definition preprocessing, so it is not counted in
        // `OracleStats`.
        const DEFINITION_PROBE_CONFLICTS: u64 = 256;
        let options = DecomposeOptions {
            max_cluster_size: self.config.max_cluster_size,
            definition_probe: Some(SolverConfig::budgeted(
                budget
                    .conflicts_per_call()
                    .unwrap_or(DEFINITION_PROBE_CONFLICTS),
            )),
        };
        let decomposition = decompose(dqbf, &options);

        // One cluster (or none): compositional synthesis degenerates to the
        // monolithic pipeline, with zero composition verifies on top.
        if decomposition.is_monolithic() {
            let mut result =
                Manthan3::new(self.config.engine.clone()).synthesize_with_budget(dqbf, budget);
            result.stats.clusters = 1;
            result.stats.cluster_walls = vec![result.stats.total_time];
            return result;
        }

        // The single global call pool every per-cluster oracle draws on.
        let pool = CallBudget::new(budget.max_sat_calls());
        let mut stats = SynthesisStats {
            clusters: decomposition.num_clusters(),
            cluster_walls: vec![Duration::ZERO; decomposition.num_clusters()],
            ..SynthesisStats::default()
        };

        let outcome = match self.run_clusters(dqbf, &decomposition, &budget, &pool, &mut stats) {
            ClusterPhase::Done(outcome) => outcome,
            ClusterPhase::AllRealizable(vectors) => {
                self.compose(dqbf, &decomposition, vectors, &budget, &pool, &mut stats)
            }
        };

        stats.total_time = run_start.elapsed();
        SynthesisResult { outcome, stats }
    }

    /// Builds the oracle a cluster pipeline (or the composition verify) runs
    /// on: the engine configuration's strategy/profile knobs plus the shared
    /// call pool on top of the shared deadline and token in `budget`.
    fn cluster_oracle(&self, budget: &Budget, pool: &CallBudget) -> Oracle {
        Oracle::new(budget.clone())
            .with_repair_strategy(self.config.engine.repair_strategy)
            .with_solver_profile(self.config.engine.solver_profile)
            .with_restart_policy(self.config.engine.restart_policy)
            .with_certification(self.config.engine.certify)
            .with_call_allowance(pool.clone())
    }

    /// Derives the engine configuration a cluster (or merged-residue)
    /// pipeline runs with: the sampling budget is scaled to the subproblem's
    /// share of the outputs, floored so small clusters still learn from a
    /// usable batch. Sampling is the one pipeline stage whose cost the
    /// decomposition would otherwise *multiply* instead of divide — each
    /// cluster would draw the full batch over its projected matrix — and a
    /// cluster's functions range over proportionally fewer variables, so the
    /// proportional batch retains the per-output sample density of the
    /// monolithic run.
    fn cluster_engine_config(
        &self,
        cluster_outputs: usize,
        total_outputs: usize,
    ) -> Manthan3Config {
        const MIN_CLUSTER_SAMPLES: usize = 64;
        let mut config = self.config.engine.clone();
        if total_outputs > 0 && cluster_outputs < total_outputs {
            let scaled = config.num_samples * cluster_outputs / total_outputs;
            let floor = MIN_CLUSTER_SAMPLES.min(config.num_samples);
            config.num_samples = scaled.clamp(floor.max(1), config.num_samples.max(1));
        }
        config
    }

    /// Phase 1 — runs one Manthan3 pipeline per cluster concurrently and
    /// aggregates the verdicts.
    fn run_clusters(
        &self,
        dqbf: &Dqbf,
        decomposition: &Decomposition,
        budget: &Budget,
        pool: &CallBudget,
        stats: &mut SynthesisStats,
    ) -> ClusterPhase {
        let n = decomposition.num_clusters();
        let subproblems: Vec<Dqbf> = (0..n).map(|i| decomposition.subproblem(dqbf, i)).collect();
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        }
        .clamp(1, n);

        let total_outputs = dqbf.existentials().len();
        let engines: Vec<Manthan3> = subproblems
            .iter()
            .map(|sub| {
                Manthan3::new(self.cluster_engine_config(sub.existentials().len(), total_outputs))
            })
            .collect();
        // Launch order: clusters with more Padoa-defined outputs first
        // (ties in cluster order — the sort is stable). A defined output is
        // synthesized by definition extraction alone, skipping sampling,
        // learning, and repair, so definition-rich clusters are the cheap
        // ones: front-loading them frees workers for the expensive
        // free-output clusters quickly and surfaces an early Unrealizable
        // (which preempts the whole phase) before the long tail starts.
        let mut schedule: Vec<usize> = (0..n).collect();
        schedule
            .sort_by_key(|&i| std::cmp::Reverse(decomposition.clusters[i].defined_outputs.len()));
        stats.cluster_schedule = schedule.clone();
        let schedule_ref = &schedule;
        let next_ticket = AtomicUsize::new(0);
        let finished: Mutex<Vec<(usize, Duration, SynthesisResult)>> = Mutex::new(Vec::new());
        let subproblems_ref = &subproblems;
        let engines_ref = &engines;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    // Cooperative preemption: a cluster that proved the
                    // formula unrealizable — or the portfolio preempting the
                    // whole racer — stops the remaining cluster launches.
                    if budget.cancel_token().is_cancelled() {
                        break;
                    }
                    // ordering: Relaxed suffices — only RMW atomicity makes
                    // tickets unique; `subproblems_ref`/`schedule_ref` were
                    // written before the scope spawned the workers, so their
                    // visibility comes from thread creation, not this counter.
                    // Model-checked by manthan3-conc `ticket/relaxed-fetch-add`.
                    let ticket = next_ticket.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = schedule_ref.get(ticket) else {
                        break;
                    };
                    let sub = &subproblems_ref[index];
                    let cluster_start = Instant::now();
                    let result = engines_ref[index]
                        .synthesize_with_oracle(sub, self.cluster_oracle(budget, pool));
                    let wall = cluster_start.elapsed();
                    // A cluster subproblem is a clause subset of the whole
                    // matrix over a subset of the outputs, so its
                    // Unrealizable verdict transfers to the whole formula:
                    // preempt the remaining clusters. Cancelling is
                    // idempotent and the token's own Release store publishes
                    // it; no claim race is needed because every Unrealizable
                    // reporter is equally right.
                    if matches!(result.outcome, SynthesisOutcome::Unrealizable) {
                        budget.cancel_token().cancel();
                    }
                    finished
                        .lock()
                        // invariant: cluster workers never panic while
                        // holding the results lock (push cannot panic short
                        // of allocation failure).
                        .expect("no cluster worker panicked holding the results lock")
                        .push((index, wall, result));
                });
            }
        });

        let results = finished
            .into_inner()
            // invariant: same lock as above — no worker panicked with it.
            .expect("no cluster worker panicked holding the results lock");

        let mut vectors: Vec<Option<HenkinVector>> = (0..n).map(|_| None).collect();
        let mut unrealizable = false;
        let mut unknown: Option<UnknownReason> = None;
        for (index, wall, result) in results {
            stats.cluster_walls[index] = wall;
            absorb_pipeline_stats(stats, &result.stats);
            match result.outcome {
                SynthesisOutcome::Realizable(vector) => vectors[index] = Some(vector),
                SynthesisOutcome::Unrealizable => unrealizable = true,
                SynthesisOutcome::Unknown(reason) => {
                    // Prefer the root cause over the Cancelled echoes the
                    // preemption produces in the other workers.
                    if unknown.is_none() || unknown == Some(UnknownReason::Cancelled) {
                        unknown = Some(reason);
                    }
                }
            }
        }
        if unrealizable {
            return ClusterPhase::Done(SynthesisOutcome::Unrealizable);
        }
        if let Some(reason) = unknown {
            return ClusterPhase::Done(SynthesisOutcome::Unknown(reason));
        }
        if vectors.iter().any(Option::is_none) {
            // A cluster was never launched: only external cancellation (or
            // an exhausted budget observed before the claim) skips tickets.
            return ClusterPhase::Done(SynthesisOutcome::Unknown(
                self.cluster_oracle(budget, pool).give_up_reason(),
            ));
        }
        ClusterPhase::AllRealizable(vectors.into_iter().flatten().collect())
    }

    /// Phase 2 — merges the per-cluster vectors into one shared AIG, runs
    /// the whole-formula verify, and discharges coupling counterexamples by
    /// coupled-residue repair (merge the offending clusters, re-synthesize
    /// the merged subproblem only, substitute, re-verify).
    fn compose(
        &self,
        dqbf: &Dqbf,
        decomposition: &Decomposition,
        vectors: Vec<HenkinVector>,
        budget: &Budget,
        pool: &CallBudget,
        stats: &mut SynthesisStats,
    ) -> SynthesisOutcome {
        let mut merged = HenkinVector::new();
        for vector in &vectors {
            import_functions(&mut merged, vector);
        }

        // The current partition into cluster groups; repairs merge groups.
        let mut groups: Vec<Vec<usize>> =
            (0..decomposition.num_clusters()).map(|i| vec![i]).collect();

        // One verify session for the whole composition loop: the merged AIG
        // only grows across repair rounds, so the session's cached encoding
        // and learnt clauses survive every round.
        let mut oracle = self.cluster_oracle(budget, pool);
        let mut session = VerifySession::new(dqbf, &mut oracle);

        loop {
            stats.compose_verifies += 1;
            match session.verify(dqbf, &merged, &mut oracle) {
                VerifyOutcome::Valid => {
                    stats.oracle.absorb(oracle.stats());
                    return SynthesisOutcome::Realizable(merged);
                }
                VerifyOutcome::Budget => {
                    stats.oracle.absorb(oracle.stats());
                    return SynthesisOutcome::Unknown(oracle.give_up_reason());
                }
                VerifyOutcome::CounterExample(delta) => {
                    let offending = offending_groups(dqbf, decomposition, &groups, &delta);
                    let offending = match offending {
                        OffendingGroups::PureUniversal => {
                            // A falsified clause without existential support:
                            // that X falsifies ϕ whatever the outputs do.
                            stats.oracle.absorb(oracle.stats());
                            return SynthesisOutcome::Unrealizable;
                        }
                        OffendingGroups::Groups(g) => g,
                    };
                    // Choose the residue to re-synthesize: the offending
                    // groups' union under compose_repairs, the whole output
                    // set otherwise (or defensively, when the counterexample
                    // does not span two groups — which per-cluster
                    // verification rules out, but soundness must not depend
                    // on that argument).
                    let merge_ids: Vec<usize> =
                        if self.config.compose_repairs && offending.len() >= 2 {
                            offending
                        } else {
                            (0..groups.len()).collect()
                        };
                    stats.compose_repairs += 1;
                    let cluster_ids: Vec<usize> = merge_ids
                        .iter()
                        .flat_map(|&g| groups[g].iter().copied())
                        .collect();
                    let residue = decomposition.merged_subproblem(dqbf, &cluster_ids);
                    let residue_config = self.cluster_engine_config(
                        residue.existentials().len(),
                        dqbf.existentials().len(),
                    );
                    let result = Manthan3::new(residue_config)
                        .synthesize_with_oracle(&residue, self.cluster_oracle(budget, pool));
                    absorb_pipeline_stats(stats, &result.stats);
                    match result.outcome {
                        SynthesisOutcome::Realizable(vector) => {
                            // Substitute the repaired residue functions into
                            // the composed vector; all other clusters'
                            // functions stay as they were.
                            import_functions(&mut merged, &vector);
                            if cluster_ids.len() == decomposition.num_clusters() {
                                // The residue was the whole formula: its
                                // vector is already whole-formula verified by
                                // the monolithic pipeline.
                                stats.oracle.absorb(oracle.stats());
                                return SynthesisOutcome::Realizable(merged);
                            }
                        }
                        SynthesisOutcome::Unrealizable => {
                            // The residue is a clause subset of the whole
                            // matrix: its Unrealizable transfers.
                            stats.oracle.absorb(oracle.stats());
                            return SynthesisOutcome::Unrealizable;
                        }
                        SynthesisOutcome::Unknown(reason) => {
                            stats.oracle.absorb(oracle.stats());
                            return SynthesisOutcome::Unknown(reason);
                        }
                    }
                    // Collapse the merged groups; every round strictly
                    // shrinks the partition, bounding the loop.
                    let merged_group: Vec<usize> = cluster_ids;
                    groups = groups
                        .into_iter()
                        .enumerate()
                        .filter(|(g, _)| !merge_ids.contains(g))
                        .map(|(_, members)| members)
                        .collect();
                    groups.push(merged_group);
                }
            }
        }
    }
}

/// How a composition counterexample maps back onto the cluster partition.
enum OffendingGroups {
    /// Some falsified clause has no existential literals at all.
    PureUniversal,
    /// The (deduplicated, sorted) group indices owning the existential
    /// support of the falsified clauses.
    Groups(Vec<usize>),
}

/// Replays the counterexample on the matrix and maps the falsified clauses'
/// existential support onto the current cluster groups.
fn offending_groups(
    dqbf: &Dqbf,
    decomposition: &Decomposition,
    groups: &[Vec<usize>],
    delta: &Delta,
) -> OffendingGroups {
    let mut values = vec![false; dqbf.num_vars()];
    for (&v, &b) in delta.x.iter().chain(delta.y_prime.iter()) {
        values[v.index()] = b;
    }
    let assignment = Assignment::from_values(values);

    let group_of = |cluster: usize| -> usize {
        groups
            .iter()
            .position(|members| members.contains(&cluster))
            // invariant: `groups` is a partition of all cluster indices by
            // construction; every cluster is in exactly one group.
            .expect("cluster groups partition the cluster indices")
    };

    let mut offending: Vec<usize> = Vec::new();
    for clause in dqbf.matrix().clauses() {
        if clause.eval(&assignment) {
            continue;
        }
        let mut saw_existential = false;
        for lit in clause {
            if let Some(cluster) = decomposition.owner(lit.var()) {
                saw_existential = true;
                offending.push(group_of(cluster));
            }
        }
        if !saw_existential {
            return OffendingGroups::PureUniversal;
        }
    }
    offending.sort_unstable();
    offending.dedup();
    OffendingGroups::Groups(offending)
}

/// Copies every function of `part` into `target` (overwriting any previous
/// definition for the same output), importing the cones across AIGs.
fn import_functions(target: &mut HenkinVector, part: &HenkinVector) {
    for (&y, &f) in part.functions() {
        let imported = target.aig_mut().import(part.aig(), f);
        target.set(y, imported);
    }
}

/// Accumulates a per-cluster (or residue) pipeline's statistics into the
/// run-level totals.
fn absorb_pipeline_stats(total: &mut SynthesisStats, part: &SynthesisStats) {
    total.samples += part.samples;
    total.sample_shards = total.sample_shards.max(part.sample_shards);
    total.candidates_learned += part.candidates_learned;
    total.unique_definitions += part.unique_definitions;
    total.verification_checks += part.verification_checks;
    total.repair_iterations += part.repair_iterations;
    total.repairs_applied += part.repairs_applied;
    total.expanded_size += part.expanded_size;
    total.repair_sat_calls += part.repair_sat_calls;
    total.oracle.absorb(&part.oracle);
    // A certifying run keeps the first rejected certificate it saw across
    // the cluster/residue pipelines (the compose-time verify oracle reports
    // rejections through its counters only).
    if total.certification_failure.is_none() {
        total.certification_failure = part.certification_failure.clone();
    }
    total.sampling_time += part.sampling_time;
    total.learning_time += part.learning_time;
    total.verification_time += part.verification_time;
    total.repair_time += part.repair_time;
}

#[cfg(test)]
mod tests {
    use super::*;
    use manthan3_cnf::Var;
    use manthan3_dqbf::verify;

    /// `k` disjoint copies of the gate `y_i ↔ x_i` — naturally `k` clusters.
    fn disjoint_gates(k: u32) -> Dqbf {
        let mut dqbf = Dqbf::new();
        for i in 0..k {
            let x = Var::new(i);
            dqbf.add_universal(x);
        }
        for i in 0..k {
            let x = Var::new(i);
            let y = Var::new(k + i);
            dqbf.add_existential(y, [x]);
            dqbf.add_clause([y.negative(), x.positive()]);
            dqbf.add_clause([y.positive(), x.negative()]);
        }
        dqbf
    }

    #[test]
    fn synthesizes_independent_clusters_and_verifies() {
        let dqbf = disjoint_gates(3);
        let result = CompositionalEngine::default().synthesize(&dqbf);
        let SynthesisOutcome::Realizable(vector) = &result.outcome else {
            panic!("expected realizable, got {:?}", result.outcome);
        };
        assert!(verify::check(&dqbf, vector).is_valid());
        assert_eq!(result.stats.clusters, 3);
        assert_eq!(result.stats.cluster_walls.len(), 3);
        // Independent clusters: the first whole-formula verify passes.
        assert_eq!(result.stats.compose_verifies, 1);
        assert_eq!(result.stats.compose_repairs, 0);
    }

    #[test]
    fn single_cluster_degenerates_to_monolithic() {
        let dqbf = Dqbf::paper_example();
        // The paper example decomposes into two clusters; force one with a
        // coupled instance instead: y1, y2 sharing a clause.
        let x = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut coupled = Dqbf::new();
        coupled.add_universal(x);
        coupled.add_existential(y1, [x]);
        coupled.add_existential(y2, [x]);
        coupled.add_clause([y1.positive(), y2.positive()]);
        let engine = CompositionalEngine::default();
        let result = engine.synthesize(&coupled);
        assert!(result.outcome.is_realizable());
        assert_eq!(result.stats.clusters, 1);
        // Degeneration: no composition verify at all.
        assert_eq!(result.stats.compose_verifies, 0);
        // And the naturally-decomposable paper example still verifies.
        let paper = engine.synthesize(&dqbf);
        let SynthesisOutcome::Realizable(vector) = &paper.outcome else {
            panic!("expected realizable, got {:?}", paper.outcome);
        };
        assert!(verify::check(&dqbf, vector).is_valid());
        assert_eq!(paper.stats.clusters, 2);
    }

    #[test]
    fn cluster_unrealizability_transfers_to_the_whole_formula() {
        // Cluster 1 is the realizable y1 ↔ x1 gate; cluster 2's projected
        // matrix (y2) ∧ (¬y2) is unsatisfiable outright. Manthan3 proves
        // unrealizability exactly when a (sub)matrix is UNSAT, so the
        // verdict comes from the cluster path and transfers to the whole
        // formula.
        let x1 = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x1);
        dqbf.add_existential(y1, [x1]);
        dqbf.add_existential(y2, [x1]);
        dqbf.add_clause([y1.negative(), x1.positive()]);
        dqbf.add_clause([y1.positive(), x1.negative()]);
        dqbf.add_clause([y2.positive()]);
        dqbf.add_clause([y2.negative()]);
        let result = CompositionalEngine::default().synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
        assert_eq!(result.stats.clusters, 2);
    }

    #[test]
    fn forced_split_exercises_the_coupled_residue_repair() {
        // One natural cluster: (¬y1), (y1 ∨ y2). A max_cluster_size of 1
        // severs the coupling clause; y2's piece alone has no constraint, so
        // a candidate y2 := false survives its cluster verify and the
        // composition verify must catch (y1 ∨ y2) and merge the pieces.
        let x = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y1, [x]);
        dqbf.add_existential(y2, [x]);
        dqbf.add_clause([y1.negative()]);
        dqbf.add_clause([y1.positive(), y2.positive()]);
        let config = CompositionalConfig {
            max_cluster_size: Some(1),
            ..CompositionalConfig::default()
        };
        let result = CompositionalEngine::new(config).synthesize(&dqbf);
        let SynthesisOutcome::Realizable(vector) = &result.outcome else {
            panic!("expected realizable, got {:?}", result.outcome);
        };
        assert!(verify::check(&dqbf, vector).is_valid());
        assert_eq!(result.stats.clusters, 2);
        assert!(result.stats.compose_verifies >= 1);
        // Whether the repair fires depends on the free cluster's learned
        // polarity; with y2 unconstrained the sampler-learned candidate may
        // already satisfy the coupling clause. Force the repair with the
        // unrealizable variant below instead; here we only require a
        // verified result.
    }

    #[test]
    fn coupled_residue_repair_reaches_unrealizable() {
        // (¬y1), (¬y2), (y1 ∨ y2): unrealizable. Split into two singleton
        // clusters both pieces are realizable (y := false), so the verdict
        // can only come out of the composition repair path.
        let x = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y1, [x]);
        dqbf.add_existential(y2, [x]);
        dqbf.add_clause([y1.negative()]);
        dqbf.add_clause([y2.negative()]);
        dqbf.add_clause([y1.positive(), y2.positive()]);
        let config = CompositionalConfig {
            max_cluster_size: Some(1),
            ..CompositionalConfig::default()
        };
        let result = CompositionalEngine::new(config).synthesize(&dqbf);
        assert!(matches!(result.outcome, SynthesisOutcome::Unrealizable));
        assert!(result.stats.compose_verifies >= 1);
        assert!(result.stats.compose_repairs >= 1);
    }

    #[test]
    fn compose_repairs_disabled_falls_back_to_monolithic_residue() {
        let x = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y1, [x]);
        dqbf.add_existential(y2, [x]);
        dqbf.add_clause([y1.negative()]);
        dqbf.add_clause([y1.positive(), y2.positive()]);
        let config = CompositionalConfig {
            max_cluster_size: Some(1),
            compose_repairs: false,
            ..CompositionalConfig::default()
        };
        let result = CompositionalEngine::new(config).synthesize(&dqbf);
        let SynthesisOutcome::Realizable(vector) = &result.outcome else {
            panic!("expected realizable, got {:?}", result.outcome);
        };
        assert!(verify::check(&dqbf, vector).is_valid());
    }

    /// Satellite regression: the cluster phase launches Padoa-defined-rich
    /// clusters first. Cluster 0 (`y1`, constrained only by `y1 ∨ x`) has no
    /// defined outputs; cluster 1 (`y2 ↔ x`) has one — so the schedule must
    /// start with cluster 1, while walls stay indexed in cluster order.
    #[test]
    fn schedules_defined_rich_clusters_first() {
        let x = Var::new(0);
        let (y1, y2) = (Var::new(1), Var::new(2));
        let mut dqbf = Dqbf::new();
        dqbf.add_universal(x);
        dqbf.add_existential(y1, [x]);
        dqbf.add_existential(y2, [x]);
        dqbf.add_clause([y1.positive(), x.positive()]);
        dqbf.add_clause([y2.negative(), x.positive()]);
        dqbf.add_clause([y2.positive(), x.negative()]);
        let result = CompositionalEngine::default().synthesize(&dqbf);
        let SynthesisOutcome::Realizable(vector) = &result.outcome else {
            panic!("expected realizable, got {:?}", result.outcome);
        };
        assert!(verify::check(&dqbf, vector).is_valid());
        assert_eq!(result.stats.clusters, 2);
        assert_eq!(result.stats.cluster_schedule, vec![1, 0]);
        assert_eq!(result.stats.cluster_walls.len(), 2);
        // Monolithic degeneration reports no schedule.
        let mut mono = Dqbf::new();
        mono.add_universal(x);
        mono.add_existential(y1, [x]);
        mono.add_clause([y1.positive(), x.positive()]);
        let single = CompositionalEngine::default().synthesize(&mono);
        assert!(single.outcome.is_realizable());
        assert!(single.stats.cluster_schedule.is_empty());
    }

    #[test]
    fn pre_cancelled_budget_reports_cancelled() {
        let dqbf = disjoint_gates(2);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let result = CompositionalEngine::default().synthesize_with_budget(&dqbf, budget);
        assert!(matches!(
            result.outcome,
            SynthesisOutcome::Unknown(UnknownReason::Cancelled)
        ));
    }

    #[test]
    fn clusters_share_one_call_pool() {
        // A two-cluster instance under a tiny global call budget: the run
        // must give up with OracleBudget instead of granting each cluster
        // its own full allowance.
        let dqbf = disjoint_gates(2);
        let budget = Budget::new(None, None, Some(2));
        let result = CompositionalEngine::default().synthesize_with_budget(&dqbf, budget);
        assert!(matches!(
            result.outcome,
            SynthesisOutcome::Unknown(UnknownReason::OracleBudget)
        ));
        // And with a roomy budget the same instance solves.
        let roomy = Budget::new(None, None, Some(10_000));
        let ok = CompositionalEngine::default().synthesize_with_budget(&dqbf, roomy);
        assert!(ok.outcome.is_realizable());
    }
}
