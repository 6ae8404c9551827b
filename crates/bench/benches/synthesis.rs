//! End-to-end synthesis benchmarks: one small instance per benchmark family,
//! each engine (Manthan3, HQS2-like expansion, Pedant-like arbiter).
//!
//! These are the per-engine timings underlying the Figure 6–10 data at a
//! micro scale; the full figure data is produced by the `harness` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use manthan3_baselines::{ArbiterConfig, ArbiterSolver, ExpansionConfig, ExpansionSolver};
use manthan3_bench::{run_engine, EngineKind, RunRecord};
use manthan3_cnf::{Assignment, Cnf, Lit, Var};
use manthan3_core::{
    find_candidates_from_scratch, find_candidates_to_repair, Budget, CompositionalConfig,
    CompositionalEngine, Manthan3, Manthan3Config, Oracle, RepairSession, RepairStrategy, Sigma,
    SolverProfile, SynthesisOutcome, VerifySession,
};
use manthan3_dqbf::{verify, Dqbf, HenkinVector};
use manthan3_gen::controller::{controller, ControllerParams};
use manthan3_gen::pec::{pec, PecParams};
use manthan3_gen::planted::{planted_true, PlantedParams};
use manthan3_gen::skolem::{skolem, SkolemParams};
use manthan3_gen::succinct::{succinct, SuccinctParams};
use manthan3_gen::suite::suite;
use manthan3_gen::Instance;
use manthan3_portfolio::{Portfolio, PortfolioConfig};
use manthan3_sampler::{SamplerConfig, ShardedSampler};
use manthan3_sat::{SolveResult, Solver, SolverConfig};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn small_instances() -> Vec<Instance> {
    vec![
        planted_true(
            &PlantedParams {
                num_universals: 5,
                num_existentials: 3,
                max_dependencies: 3,
                ..PlantedParams::default()
            },
            21,
        ),
        pec(
            &PecParams {
                num_inputs: 3,
                num_gates: 4,
                num_blackboxes: 1,
                restrict_observability: false,
            },
            21,
        ),
        controller(
            &ControllerParams {
                num_clients: 3,
                observation_window: 3,
            },
            21,
        ),
        succinct(
            &SuccinctParams {
                num_propositional: 6,
                num_clauses: 18,
                planted_satisfiable: true,
            },
            21,
        ),
        skolem(
            &SkolemParams {
                num_universals: 4,
                num_existentials: 2,
                drop_probability: 0.1,
            },
            21,
        ),
    ]
}

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    for instance in small_instances() {
        group.bench_with_input(
            BenchmarkId::new("manthan3", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        Manthan3::new(Manthan3Config::fast()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("hqs2like", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        ExpansionSolver::new(ExpansionConfig::default()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("pedantlike", &instance.name),
            &instance,
            |b, inst| {
                b.iter(|| {
                    std::hint::black_box(
                        ArbiterSolver::new(ArbiterConfig::default()).synthesize(&inst.dqbf),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Builds a verification workload: a planted instance, plus two candidate
/// vectors sharing one AIG that differ in a single output — the shape of a
/// repair iteration (one candidate changed, the rest untouched).
fn verification_workload() -> (Dqbf, HenkinVector, HenkinVector) {
    let instance = planted_true(
        &PlantedParams {
            num_universals: 8,
            num_existentials: 6,
            max_dependencies: 4,
            ..PlantedParams::default()
        },
        5,
    );
    let dqbf = instance.dqbf;
    let mut base = HenkinVector::new();
    for &y in dqbf.existentials() {
        // Arbitrary (mostly wrong) candidates: the parity of the first two
        // dependencies, or constant false.
        let deps: Vec<_> = dqbf.dependencies(y).iter().copied().collect();
        let f = match deps.as_slice() {
            [] => base.aig().constant(false),
            [d] => {
                let i = base.aig_mut().input(d.index());
                i
            }
            [a, b, ..] => {
                let ia = base.aig_mut().input(a.index());
                let ib = base.aig_mut().input(b.index());
                base.aig_mut().xor(ia, ib)
            }
        };
        base.set(y, f);
    }
    // The alternative generation: one output's candidate is extended, the
    // way repair strengthens/weakens a function.
    let &swapped = dqbf.existentials().first().expect("instance has outputs");
    let current = base.get(swapped).expect("candidate set");
    let first_universal = dqbf.universals()[0];
    let extra = base.aig_mut().input(first_universal.index());
    let extended = base.aig_mut().or(current, extra);
    let mut alt = base.clone();
    alt.set(swapped, extended);
    (dqbf, base, alt)
}

/// The acceptance benchmark for the persistent session: a verify loop of
/// `LOOP_ITERATIONS` iterations with one candidate change per iteration —
/// the shape of the engine's verify–repair loop. On the reused incremental
/// session each iteration pays only for the changed candidate (activation
/// swap + cached encoding); the from-scratch variant re-encodes the error
/// formula and rebuilds the solver every iteration, so its cost scales with
/// the full encoding instead of the change.
///
/// The 200-iteration length doubles as the error-solver hygiene watchdog
/// (ROADMAP "error-solver hygiene"): it spans several of the session's
/// periodic maintenance passes (learnt-DB trimming plus garbage collection
/// of retired activation generations, every 32 retirements), so a
/// regression that lets the solver state grow with the generation count
/// shows up here as super-linear per-iteration cost.
fn bench_verification_session(c: &mut Criterion) {
    const LOOP_ITERATIONS: usize = 200;
    let (dqbf, base, alt) = verification_workload();
    let mut group = c.benchmark_group("verify_session");

    group.bench_function("incremental_reuse", |b| {
        b.iter(|| {
            let mut oracle = Oracle::new(Budget::unlimited());
            let mut session = VerifySession::new(&dqbf, &mut oracle);
            for i in 0..LOOP_ITERATIONS {
                let vector = if i % 2 == 0 { &base } else { &alt };
                std::hint::black_box(session.verify(&dqbf, vector, &mut oracle));
            }
        })
    });

    group.bench_function("from_scratch", |b| {
        b.iter(|| {
            for i in 0..LOOP_ITERATIONS {
                let vector = if i % 2 == 0 { &base } else { &alt };
                // The pre-oracle-layer behaviour: fresh solver + full error
                // formula encoding on every iteration.
                let mut oracle = Oracle::new(Budget::unlimited());
                let mut session = VerifySession::new(&dqbf, &mut oracle);
                std::hint::black_box(session.verify(&dqbf, vector, &mut oracle));
            }
        })
    });

    group.finish();
}

/// The acceptance benchmark for the parallel portfolio (ISSUE 2): on the
/// full generated suite `suite(7, 1)` the racing portfolio must synthesize
/// at least as many instances as the post-hoc sequential VBS, in total
/// wall-clock below the *sum* of the sequential per-engine runs — the
/// cooperative cancellation stops the losing engines within milliseconds,
/// so the race never pays for more than (roughly) the winner.
///
/// The full-suite comparison runs once and is printed (and asserted); the
/// criterion-timed series then races a small cross-family subset so the
/// parallel and sequential paths stay comparable over time.
///
/// The assertions are robust to machine variance: every instance this suite
/// solves at all is solved in a few tens of milliseconds — more than an
/// order of magnitude under the 250 ms budget — and the comparison holds
/// with a ~4x margin even on a single-core host (where the racing threads
/// time-slice); additional cores only widen the gap.
fn bench_portfolio(c: &mut Criterion) {
    let instances = suite(7, 1);
    let budget = Duration::from_millis(250);

    let sequential_start = Instant::now();
    let records: Vec<RunRecord> = instances
        .iter()
        .flat_map(|instance| {
            EngineKind::ALL
                .iter()
                .map(|&engine| run_engine(engine, instance, budget))
        })
        .collect();
    let sequential_wall = sequential_start.elapsed();
    let vbs_solved: BTreeSet<&String> = records
        .iter()
        .filter(|r| r.synthesized)
        .map(|r| &r.instance)
        .collect();

    let race_start = Instant::now();
    let mut race_solved = 0usize;
    for instance in &instances {
        let config = PortfolioConfig::with_time_budget(budget);
        let result = Portfolio::new(config).run(&instance.dqbf);
        if result
            .vector()
            .is_some_and(|v| verify::check(&instance.dqbf, v).is_valid())
        {
            race_solved += 1;
        }
    }
    let race_wall = race_start.elapsed();

    println!(
        "portfolio acceptance on suite(7, 1): sequential VBS solved {} in {:.2}s total, \
         parallel race solved {} in {:.2}s total",
        vbs_solved.len(),
        sequential_wall.as_secs_f64(),
        race_solved,
        race_wall.as_secs_f64(),
    );
    assert!(
        race_solved >= vbs_solved.len(),
        "parallel portfolio solved {race_solved} < sequential VBS {}",
        vbs_solved.len()
    );
    assert!(
        race_wall < sequential_wall,
        "parallel race ({race_wall:?}) is not below the sum of sequential runs \
         ({sequential_wall:?})"
    );

    let subset: Vec<Instance> = instances.into_iter().take(30).step_by(5).collect();
    let mut group = c.benchmark_group("portfolio");
    group.bench_function("parallel_race", |b| {
        b.iter(|| {
            for instance in &subset {
                let config = PortfolioConfig::with_time_budget(budget);
                std::hint::black_box(Portfolio::new(config).run(&instance.dqbf));
            }
        })
    });
    group.bench_function("sequential_engines", |b| {
        b.iter(|| {
            for instance in &subset {
                for engine in EngineKind::ALL {
                    std::hint::black_box(run_engine(engine, instance, budget));
                }
            }
        })
    });
    group.finish();
}

/// Deterministic splitmix64 so the workload needs no RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A repair-heavy FindCandidates workload on a `suite(7, 1)` instance: the
/// satisfiable suite instance with the largest matrix × output product, plus
/// a deterministic sequence of counterexamples σ whose σ[X] all extend to a
/// model of ϕ (the only shape the engine ever queries).
fn repair_workload(iterations: usize) -> (Dqbf, Vec<Sigma>) {
    let dqbf = suite(7, 1)
        .into_iter()
        .map(|i| i.dqbf)
        .filter(|d| {
            if d.existentials().len() < 3 {
                return false;
            }
            let mut solver = Solver::new();
            solver.add_cnf(d.matrix());
            solver.ensure_vars(d.num_vars());
            solver.solve() == SolveResult::Sat
        })
        .max_by_key(|d| d.matrix().clauses().len() * d.existentials().len())
        .expect("the suite contains satisfiable instances with outputs");

    let mut phi = Solver::new();
    phi.add_cnf(dqbf.matrix());
    phi.ensure_vars(dqbf.num_vars());
    let mut rng_state = 0x0BE5_EED5u64;
    let mut sigmas = Vec::with_capacity(iterations);
    while sigmas.len() < iterations {
        let x: BTreeMap<Var, bool> = dqbf
            .universals()
            .iter()
            .map(|&v| (v, splitmix64(&mut rng_state) & 1 == 1))
            .collect();
        let assumptions: Vec<Lit> = x.iter().map(|(&v, &b)| v.lit(b)).collect();
        if phi.solve_with_assumptions(&assumptions) != SolveResult::Sat {
            continue;
        }
        let pi = phi.model();
        sigmas.push(Sigma {
            y: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, pi.get(y).unwrap_or(false)))
                .collect(),
            y_prime: dqbf
                .existentials()
                .iter()
                .map(|&y| (y, splitmix64(&mut rng_state) & 1 == 1))
                .collect(),
            x,
        });
    }
    (dqbf, sigmas)
}

/// Runs the FindCandidates sweep on one persistent [`RepairSession`];
/// returns the oracle for the stats assertions.
fn sweep_incremental(dqbf: &Dqbf, sigmas: &[Sigma]) -> Oracle {
    let mut oracle = Oracle::new(Budget::unlimited());
    let mut session = RepairSession::new(dqbf, &mut oracle);
    for sigma in sigmas {
        std::hint::black_box(find_candidates_to_repair(
            dqbf,
            sigma,
            &mut session,
            &mut oracle,
        ));
    }
    oracle
}

/// Runs the same sweep on the pre-incremental path: a full hard-clause
/// MaxSAT rebuild per call.
fn sweep_from_scratch(dqbf: &Dqbf, sigmas: &[Sigma]) {
    let mut oracle = Oracle::new(Budget::unlimited());
    for sigma in sigmas {
        std::hint::black_box(find_candidates_from_scratch(dqbf, sigma, &mut oracle));
    }
}

/// The acceptance benchmark for the persistent repair session (ISSUE 3): a
/// FindCandidates sweep of well over 20 repair iterations must be served by
/// exactly one MaxSAT hard-encoding construction — every call under
/// assumptions — and beat the from-scratch rebuild-per-call path on wall
/// clock for the same sigma sequence on the same instance.
///
/// The one-shot comparison repeats both sweeps several times so the margin
/// dominates timer noise; the criterion-timed series then tracks both paths
/// over time.
fn bench_repair_session(c: &mut Criterion) {
    const REPAIR_ITERATIONS: usize = 30;
    const ACCEPTANCE_ROUNDS: usize = 20;
    let (dqbf, sigmas) = repair_workload(REPAIR_ITERATIONS);

    let incremental_start = Instant::now();
    let mut oracle = None;
    for _ in 0..ACCEPTANCE_ROUNDS {
        oracle = Some(sweep_incremental(&dqbf, &sigmas));
    }
    let incremental_wall = incremental_start.elapsed();
    let stats = *oracle.expect("at least one sweep ran").stats();
    assert_eq!(
        stats.maxsat_hard_encodings, 1,
        "a {REPAIR_ITERATIONS}-iteration repair sweep must build exactly one hard encoding"
    );
    assert_eq!(stats.maxsat_incremental_calls, REPAIR_ITERATIONS);
    assert_eq!(stats.maxsat_calls, REPAIR_ITERATIONS);

    let scratch_start = Instant::now();
    for _ in 0..ACCEPTANCE_ROUNDS {
        sweep_from_scratch(&dqbf, &sigmas);
    }
    let scratch_wall = scratch_start.elapsed();

    println!(
        "repair_incremental acceptance: {REPAIR_ITERATIONS} FindCandidates calls x \
         {ACCEPTANCE_ROUNDS} rounds — incremental session {:.2}ms, from-scratch rebuild {:.2}ms \
         ({:.1}x)",
        incremental_wall.as_secs_f64() * 1e3,
        scratch_wall.as_secs_f64() * 1e3,
        scratch_wall.as_secs_f64() / incremental_wall.as_secs_f64().max(1e-9),
    );
    assert!(
        incremental_wall < scratch_wall,
        "incremental repair session ({incremental_wall:?}) is not faster than the from-scratch \
         MaxSAT rebuild ({scratch_wall:?})"
    );

    let mut group = c.benchmark_group("repair_incremental");
    group.bench_function("incremental_session", |b| {
        b.iter(|| sweep_incremental(&dqbf, &sigmas))
    });
    group.bench_function("from_scratch", |b| {
        b.iter(|| sweep_from_scratch(&dqbf, &sigmas))
    });
    group.finish();
}

/// A moving-optimum FindCandidates workload (ISSUE 5): on the repair-heavy
/// suite instance, counterexamples alternate between σ[Y'] = the witness
/// extension (optimum 0 — every soft satisfiable) and σ[Y'] = the flipped
/// witness (a high optimum), so the optimum jumps on every call and the
/// warm-started linear search re-pays its climb each time.
fn moving_optimum_workload(iterations: usize) -> (Dqbf, Vec<Sigma>) {
    let (dqbf, base_sigmas) = repair_workload(iterations.div_ceil(2));
    let mut sigmas = Vec::with_capacity(iterations);
    for sigma in base_sigmas {
        // The witness extension satisfies every soft: optimum 0.
        let mut calm = sigma.clone();
        calm.y_prime = calm.y.clone();
        sigmas.push(calm);
        // The flipped witness disagrees everywhere the matrix pins an
        // output: the optimum jumps high.
        let mut spiky = sigma.clone();
        spiky.y_prime = sigma.y.iter().map(|(&y, &b)| (y, !b)).collect();
        sigmas.push(spiky);
    }
    sigmas.truncate(iterations);
    (dqbf, sigmas)
}

/// Runs the FindCandidates sweep on one persistent [`RepairSession`] with
/// the given strategy; returns the per-call candidate-set sizes (the optima,
/// all softs being unit weight) and the oracle for the probe accounting.
fn sweep_with_strategy(
    dqbf: &Dqbf,
    sigmas: &[Sigma],
    strategy: RepairStrategy,
) -> (Vec<usize>, Oracle) {
    let mut oracle = Oracle::new(Budget::unlimited()).with_repair_strategy(strategy);
    let mut session = RepairSession::new(dqbf, &mut oracle);
    let optima = sigmas
        .iter()
        .map(|sigma| find_candidates_to_repair(dqbf, sigma, &mut session, &mut oracle).len())
        .collect();
    (optima, oracle)
}

/// The acceptance benchmark for core-guided repair (ISSUE 5): on the
/// moving-optimum workload, the core-guided strategy must reach the *same*
/// optima as the warm-started linear search on every counterexample while
/// issuing strictly fewer SAT probes — the structural payoff of relaxing
/// cores instead of climbing bounds when the optimum jumps between
/// counterexamples.
fn bench_repair_core_guided(c: &mut Criterion) {
    const REPAIR_ITERATIONS: usize = 24;
    let (dqbf, sigmas) = moving_optimum_workload(REPAIR_ITERATIONS);

    let (linear_optima, linear_oracle) =
        sweep_with_strategy(&dqbf, &sigmas, RepairStrategy::Linear);
    let (core_optima, core_oracle) =
        sweep_with_strategy(&dqbf, &sigmas, RepairStrategy::CoreGuided);

    assert_eq!(
        linear_optima, core_optima,
        "the strategies disagreed on a FindCandidates optimum"
    );
    assert!(
        linear_optima.iter().sum::<usize>() > 0,
        "the moving-optimum workload never left optimum 0; the comparison is vacuous"
    );
    let linear_probes = linear_oracle.stats().maxsat_probes;
    let core_probes = core_oracle.stats().maxsat_probes;
    println!(
        "repair_core_guided acceptance: {REPAIR_ITERATIONS} FindCandidates calls on a \
         moving-optimum sigma sequence — linear {linear_probes} SAT probes, core-guided \
         {core_probes} probes ({} cores), identical optima (sum {})",
        core_oracle.stats().maxsat_cores,
        core_optima.iter().sum::<usize>(),
    );
    assert!(
        core_probes < linear_probes,
        "core-guided issued {core_probes} probes, not strictly fewer than the linear \
         search's {linear_probes}"
    );
    // Both sweeps ran fully incrementally: one hard encoding each.
    assert_eq!(linear_oracle.stats().maxsat_hard_encodings, 1);
    assert_eq!(core_oracle.stats().maxsat_hard_encodings, 1);

    let mut group = c.benchmark_group("repair_core_guided");
    group.bench_function("core_guided", |b| {
        b.iter(|| {
            std::hint::black_box(sweep_with_strategy(
                &dqbf,
                &sigmas,
                RepairStrategy::CoreGuided,
            ))
        })
    });
    group.bench_function("linear", |b| {
        b.iter(|| std::hint::black_box(sweep_with_strategy(&dqbf, &sigmas, RepairStrategy::Linear)))
    });
    group.finish();
}

/// The sampling workload for the sharded-sampling acceptance (ISSUE 4): the
/// satisfiable `suite(7, 1)` matrix with the most clause × variable work per
/// sample.
fn sampling_workload() -> Cnf {
    suite(7, 1)
        .into_iter()
        .map(|i| i.dqbf)
        .filter(|d| {
            let mut solver = Solver::new();
            solver.add_cnf(d.matrix());
            solver.ensure_vars(d.num_vars());
            solver.solve() == SolveResult::Sat
        })
        .max_by_key(|d| d.matrix().clauses().len() * d.num_vars())
        .map(|d| d.matrix().clone())
        .expect("the suite contains satisfiable instances")
}

/// Draws `n` samples through a sharded sampler and returns the batch with
/// its wall-clock time.
fn timed_sharded_request(
    cnf: &Cnf,
    shards: usize,
    seed: u64,
    n: usize,
) -> (Vec<Assignment>, Duration) {
    let config = SamplerConfig {
        seed,
        shards,
        ..SamplerConfig::default()
    };
    let start = Instant::now();
    let mut sampler = ShardedSampler::new(cnf, config);
    let (samples, outcome) = sampler.sample(n);
    let wall = start.elapsed();
    assert_eq!(outcome.reason, None, "workload request must be met in full");
    assert_eq!(samples.len(), n);
    (samples, wall)
}

/// Per-variable true-ratios of a merged batch.
fn batch_ratios(samples: &[Assignment], num_vars: usize) -> Vec<f64> {
    let mut trues = vec![0usize; num_vars];
    for sample in samples {
        for (v, &value) in sample.as_slice().iter().enumerate() {
            if value {
                trues[v] += 1;
            }
        }
    }
    trues
        .into_iter()
        .map(|t| t as f64 / samples.len() as f64)
        .collect()
}

/// The acceptance benchmark for sharded sampling (ISSUE 4): on a
/// `suite(7, 1)` sampling workload, 4 shards must (a) beat 1 shard on wall
/// clock and (b) keep the merged per-variable distribution within tolerance
/// of the single sampler's — the bias-weighted merge contract.
///
/// The wall-clock comparison needs hardware parallelism to mean anything:
/// a 4-shard run does the same total solver work as a 1-shard run, so on a
/// single-core host (where the shard threads time-slice) the strict
/// assertion degrades to a no-pathological-overhead bound, mirroring how
/// the portfolio bench reasons about core counts.
fn bench_sharded_sampling(c: &mut Criterion) {
    const REQUEST: usize = 1200;
    const ROUNDS: usize = 4;
    let cnf = sampling_workload();

    let mut single_wall = Duration::ZERO;
    let mut sharded_wall = Duration::ZERO;
    let mut max_ratio_gap = 0.0f64;
    for round in 0..ROUNDS as u64 {
        let (single, t_single) = timed_sharded_request(&cnf, 1, 4000 + round, REQUEST);
        let (sharded, t_sharded) = timed_sharded_request(&cnf, 4, 4000 + round, REQUEST);
        single_wall += t_single;
        sharded_wall += t_sharded;
        let single_ratios = batch_ratios(&single, cnf.num_vars());
        let sharded_ratios = batch_ratios(&sharded, cnf.num_vars());
        for (a, b) in single_ratios.iter().zip(&sharded_ratios) {
            max_ratio_gap = max_ratio_gap.max((a - b).abs());
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "sharded_sampling acceptance: {REQUEST} samples x {ROUNDS} rounds on {} vars / {} \
         clauses — 1 shard {:.2}ms, 4 shards {:.2}ms ({:.2}x, {cores} cores), max per-variable \
         ratio gap {max_ratio_gap:.3}",
        cnf.num_vars(),
        cnf.clauses().len(),
        single_wall.as_secs_f64() * 1e3,
        sharded_wall.as_secs_f64() * 1e3,
        single_wall.as_secs_f64() / sharded_wall.as_secs_f64().max(1e-9),
    );
    assert!(
        max_ratio_gap <= 0.15,
        "merged distribution drifted from the single-sampler contract: \
         max per-variable ratio gap {max_ratio_gap:.3}"
    );
    if cores >= 2 {
        assert!(
            sharded_wall < single_wall,
            "4-shard sampling ({sharded_wall:?}) is not faster than 1 shard \
             ({single_wall:?}) on a {cores}-core host"
        );
    } else {
        assert!(
            sharded_wall < single_wall * 2,
            "4-shard sampling ({sharded_wall:?}) pays pathological overhead over 1 shard \
             ({single_wall:?}) on a single core"
        );
    }

    let mut group = c.benchmark_group("sharded_sampling");
    for shards in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter(|| std::hint::black_box(timed_sharded_request(&cnf, shards, 99, REQUEST / 4)))
        });
    }
    group.finish();
}

/// Builds the witness-multiplicity query of one suite instance: `copies`
/// copies of the matrix sharing the universals, each pair forced to differ
/// on at least one existential (per-pair XOR difference flags plus one long
/// at-least-one-difference clause). Under a universal cube the query is SAT
/// iff the instance admits `copies` pairwise distinct witness completions —
/// near the instance's witness count this sits at a hardness cliff that
/// produces real CDCL search (tens of thousands of conflicts), which the
/// plain matrices (conflict-free under unit propagation) never do.
fn multiplicity_query(dqbf: &Dqbf, copies: usize) -> (Cnf, Vec<Var>) {
    let n = dqbf.num_vars();
    let existentials = dqbf.existentials().to_vec();
    let mut cnf = Cnf::new(n);
    let mut next = n as u32;
    // twins[c][v] = copy c's variable for existential v (copy 0 = original).
    let mut twins: Vec<Vec<Option<Var>>> = vec![vec![None; n]; copies];
    for (i, twin) in twins.iter_mut().enumerate() {
        for &e in &existentials {
            twin[e.index()] = if i == 0 {
                Some(e)
            } else {
                next += 1;
                Some(Var::new(next - 1))
            };
        }
    }
    for twin in &twins {
        for clause in dqbf.matrix().clauses() {
            let mapped: Vec<Lit> = clause
                .iter()
                .map(|l| match twin[l.var().index()] {
                    Some(t) => t.lit(l.is_positive()),
                    None => *l,
                })
                .collect();
            cnf.add_clause(mapped);
        }
    }
    for i in 0..copies {
        for j in i + 1..copies {
            let mut diff = Vec::new();
            for &e in &existentials {
                let d = Var::new(next);
                next += 1;
                let y = twins[i][e.index()].unwrap().positive();
                let y2 = twins[j][e.index()].unwrap().positive();
                cnf.add_clause([!d.positive(), y, y2]);
                cnf.add_clause([!d.positive(), !y, !y2]);
                diff.push(d.positive());
            }
            cnf.add_clause(diff);
        }
    }
    cnf.ensure_vars(next as usize);
    (cnf, dqbf.universals().to_vec())
}

/// Runs the suite-wide solver-session workload under one configuration: per
/// instance, an incremental solver on its witness-multiplicity query answers
/// four random universal-cube calls, with session maintenance (reduction,
/// simplification, inprocessing) every second call. Returns the per-call
/// verdicts in instance order.
fn multiplicity_sweep(instances: &[Instance], config: &SolverConfig) -> Vec<SolveResult> {
    let mut verdicts = Vec::new();
    for instance in instances {
        let copies = 10.min(instance.dqbf.existentials().len());
        let (cnf, universals) = multiplicity_query(&instance.dqbf, copies);
        let mut solver = Solver::with_config(config.clone());
        solver.add_cnf(&cnf);
        let mut state = 0xDEAD_BEEFu64;
        for call in 0..4u32 {
            let mut assumptions = Vec::new();
            for &u in &universals {
                if splitmix64(&mut state).is_multiple_of(2) {
                    assumptions.push(u.lit(splitmix64(&mut state) & 1 == 1));
                }
            }
            verdicts.push(solver.solve_with_assumptions(&assumptions));
            if call % 2 == 1 {
                solver.reduce_learnt_db();
                solver.simplify();
                solver.inprocess();
            }
        }
    }
    verdicts
}

/// The acceptance benchmark of the CDCL solver-layer modernization (ISSUE
/// 6): on the `suite(7, 1)` witness-multiplicity workload, the modern
/// configuration must beat the pre-PR solver configuration —
/// [`SolverConfig::legacy`]: Luby restarts, activity-halving reduction, no
/// rephasing, full watch rebuilds, no inprocessing, per-clause heap storage
/// — by ≥ 1.3x wall clock with identical per-instance verdicts. Engine runs
/// under both profiles must also keep `sat_solvers_constructed == 2` (the
/// PR 1 invariant) across the suite, including its repair-heavy instances.
///
/// The criterion-timed series then tracks both configurations on the cliff
/// slice of the workload — the instances a bounded probe can NOT settle,
/// i.e. the ones whose multiplicity queries force real CDCL search. The
/// sub-cliff instances are conflict-free under unit propagation and would
/// only dilute the series with storage-independent noise, and a conflict
/// cap on the timed sweep itself would truncate precisely the search the
/// modernization speeds up, so the slice runs unbudgeted.
fn bench_solver_modernization(c: &mut Criterion) {
    let instances = suite(7, 1);

    let modern_start = Instant::now();
    let modern_verdicts = multiplicity_sweep(&instances, &SolverConfig::default());
    let modern_wall = modern_start.elapsed();
    let legacy_start = Instant::now();
    let legacy_verdicts = multiplicity_sweep(&instances, &SolverConfig::legacy());
    let legacy_wall = legacy_start.elapsed();
    assert_eq!(
        modern_verdicts, legacy_verdicts,
        "solver configurations disagree on per-instance verdicts"
    );
    let speedup = legacy_wall.as_secs_f64() / modern_wall.as_secs_f64().max(1e-9);
    println!(
        "solver_modernization acceptance: {} calls over {} instances — modern {:.2}s, \
         pre-PR configuration {:.2}s ({speedup:.2}x)",
        modern_verdicts.len(),
        instances.len(),
        modern_wall.as_secs_f64(),
        legacy_wall.as_secs_f64(),
    );
    assert!(
        speedup >= 1.3,
        "modern solver configuration ({modern_wall:?}) is not ≥ 1.3x faster than the pre-PR \
         configuration ({legacy_wall:?}): {speedup:.2}x"
    );

    // Engine-level invariants under both profiles: one SAT solver for the
    // verify session plus one for sampling (never rebuilt per iteration),
    // and agreeing outcomes, across the whole suite — which includes the
    // repair-heavy instances.
    let mut repaired = 0usize;
    for instance in &instances {
        let run = |profile: SolverProfile| {
            Manthan3::new(Manthan3Config {
                solver_profile: profile,
                ..Manthan3Config::default()
            })
            .synthesize(&instance.dqbf)
        };
        let modern = run(SolverProfile::Modern);
        let legacy = run(SolverProfile::Legacy);
        for result in [&modern, &legacy] {
            assert_eq!(
                result.stats.oracle.sat_solvers_constructed, 2,
                "instance {} rebuilt SAT solvers mid-run",
                instance.name
            );
        }
        assert_eq!(
            std::mem::discriminant(&modern.outcome),
            std::mem::discriminant(&legacy.outcome),
            "profiles disagree on instance {}",
            instance.name
        );
        if modern.stats.repair_iterations > 0 {
            repaired += 1;
        }
    }
    assert!(
        repaired >= 3,
        "the suite exercised only {repaired} repair-heavy runs"
    );

    // Cliff slice: instances whose multiplicity query a 3000-conflict probe
    // cannot settle (tens of thousands of conflicts each under the full
    // sweep). These are the runs whose search the modernization speeds up;
    // the rest of the suite is conflict-free under unit propagation and
    // indistinguishable across configurations.
    let probe_config = SolverConfig {
        max_conflicts: Some(3000),
        ..SolverConfig::default()
    };
    let timed: Vec<Instance> = instances
        .into_iter()
        .filter(|instance| {
            multiplicity_sweep(std::slice::from_ref(instance), &probe_config)
                .contains(&SolveResult::Unknown)
        })
        .collect();
    assert!(
        !timed.is_empty(),
        "no suite instance reached the multiplicity hardness cliff"
    );

    let mut group = c.benchmark_group("solver_modernization");
    for (name, config) in [
        ("modern", SolverConfig::default()),
        ("legacy_baseline", SolverConfig::legacy()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(multiplicity_sweep(&timed, &config)))
        });
    }
    group.finish();
}

/// The compositional workload (ISSUE 8): `k` disjoint block-offset copies of
/// a planted-true instance, plus two layers of widened clauses. Each widened
/// clause is a superset of a per-copy clause (hence implied by it), so the
/// per-copy Skolem functions already satisfy every one of them — they only
/// shape the co-occurrence graph. The *glue* layer (template widened with all
/// of the copy's outputs) welds each copy into a single natural cluster; the
/// *coupling* layer (left copy's template widened with the first output of
/// the right copy) then chains the copies into one natural cluster — exactly
/// the shape `max_cluster_size` exists to split, and a split at the per-copy
/// output count recovers the copy partition in BFS order. Returns the
/// instance and that per-copy output count.
fn compositional_workload(k: usize) -> (Dqbf, usize) {
    let base = planted_true(
        &PlantedParams {
            num_universals: 8,
            num_existentials: 6,
            max_dependencies: 5,
            ..PlantedParams::default()
        },
        21,
    )
    .dqbf;
    let n = base.num_vars();
    let offset = |v: Var, c: usize| Var::new((v.index() + c * n) as u32);
    let mut dqbf = Dqbf::new();
    for c in 0..k {
        for &x in base.universals() {
            dqbf.add_universal(offset(x, c));
        }
    }
    for c in 0..k {
        for &y in base.existentials() {
            let deps: Vec<Var> = base.dependencies(y).iter().map(|&d| offset(d, c)).collect();
            dqbf.add_existential(offset(y, c), deps);
        }
    }
    for c in 0..k {
        for clause in base.matrix().clauses() {
            let mapped: Vec<Lit> = clause
                .iter()
                .map(|l| offset(l.var(), c).lit(l.is_positive()))
                .collect();
            dqbf.add_clause(mapped);
        }
    }
    let template = base
        .matrix()
        .clauses()
        .iter()
        .find(|cl| cl.iter().any(|l| base.existentials().contains(&l.var())))
        .expect("the planted matrix constrains its outputs");
    let &first_output = base
        .existentials()
        .first()
        .expect("the planted instance has outputs");
    // The glue layer: the template widened with every output of the copy, so
    // the copy's outputs form one co-occurrence clique (one natural cluster
    // per copy instead of whatever the planted matrix fragments into).
    for c in 0..k {
        let mut glued: Vec<Lit> = template
            .iter()
            .map(|l| offset(l.var(), c).lit(l.is_positive()))
            .collect();
        for &y in base.existentials() {
            let lit = offset(y, c).positive();
            if !glued.contains(&lit) {
                glued.push(lit);
            }
        }
        dqbf.add_clause(glued);
    }
    // The coupling layer: widen one output-mentioning clause of each copy
    // with the first output of the next copy.
    for c in 0..k - 1 {
        let mut widened: Vec<Lit> = template
            .iter()
            .map(|l| offset(l.var(), c).lit(l.is_positive()))
            .collect();
        widened.push(offset(first_output, c + 1).positive());
        dqbf.add_clause(widened);
    }
    (dqbf, base.existentials().len())
}

/// The acceptance benchmark for compositional decomposition (ISSUE 8): on
/// the `k`-copy coupled workload, the compositional engine (cluster cap =
/// the per-copy output count, recovering the copy partition) must reach the
/// same verdict as the monolithic Manthan3 run — both vectors passing the
/// independent whole-formula certificate check — and beat it on wall clock
/// on a multi-core host. On a single core the cluster loops time-slice and
/// the strict assertion degrades to a no-pathological-overhead bound,
/// mirroring the sharded-sampling and portfolio benches. A capless run on
/// the same instance must degenerate to the monolithic pipeline (one
/// natural cluster) with at most one extra whole-formula verify.
///
/// The acceptance result is also written to `target/BENCH_compositional.json`
/// so the perf trajectory is machine-readable across PRs.
fn bench_compositional(c: &mut Criterion) {
    const COPIES: usize = 4;
    const ROUNDS: usize = 5;
    let (dqbf, per_copy_outputs) = compositional_workload(COPIES);

    let compositional_config = CompositionalConfig {
        max_cluster_size: Some(per_copy_outputs),
        ..CompositionalConfig::default()
    };

    let mut monolithic_wall = Duration::ZERO;
    let mut compositional_wall = Duration::ZERO;
    let mut clusters = 0usize;
    let mut verdict = String::new();
    for _ in 0..ROUNDS {
        let start = Instant::now();
        let monolithic = Manthan3::new(Manthan3Config::default()).synthesize(&dqbf);
        monolithic_wall += start.elapsed();

        let start = Instant::now();
        let compositional =
            CompositionalEngine::new(compositional_config.clone()).synthesize(&dqbf);
        compositional_wall += start.elapsed();

        // Identical verdicts, both independently certificate-checked.
        let SynthesisOutcome::Realizable(mono_vector) = &monolithic.outcome else {
            panic!(
                "monolithic engine failed the planted workload: {:?}",
                monolithic.outcome
            );
        };
        let SynthesisOutcome::Realizable(comp_vector) = &compositional.outcome else {
            panic!(
                "compositional engine failed the planted workload: {:?}",
                compositional.outcome
            );
        };
        assert!(verify::check(&dqbf, mono_vector).is_valid());
        assert!(verify::check(&dqbf, comp_vector).is_valid());
        assert!(
            compositional.stats.clusters >= 2,
            "the cluster cap must split the coupled workload (got {} clusters)",
            compositional.stats.clusters
        );
        clusters = compositional.stats.clusters;
        verdict = "realizable".to_string();
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "compositional acceptance: {COPIES}-copy coupled workload ({} outputs) x {ROUNDS} \
         rounds — monolithic {:.2}ms, compositional {:.2}ms across {clusters} clusters \
         ({:.2}x, {cores} cores)",
        dqbf.existentials().len(),
        monolithic_wall.as_secs_f64() * 1e3,
        compositional_wall.as_secs_f64() * 1e3,
        monolithic_wall.as_secs_f64() / compositional_wall.as_secs_f64().max(1e-9),
    );
    if cores >= 2 {
        assert!(
            compositional_wall < monolithic_wall,
            "compositional synthesis ({compositional_wall:?}) is not faster than the \
             monolithic engine ({monolithic_wall:?}) on a {cores}-core host"
        );
    } else {
        assert!(
            compositional_wall < monolithic_wall * 2,
            "compositional synthesis ({compositional_wall:?}) pays pathological overhead \
             over the monolithic engine ({monolithic_wall:?}) on a single core"
        );
    }

    // Single-cluster degeneracy: without the cap the coupling chains every
    // copy into one natural cluster, so the engine must delegate to the
    // monolithic pipeline — same verdict, at most one extra verify.
    let capless = CompositionalEngine::default().synthesize(&dqbf);
    let SynthesisOutcome::Realizable(capless_vector) = &capless.outcome else {
        panic!("capless compositional run failed: {:?}", capless.outcome);
    };
    assert!(verify::check(&dqbf, capless_vector).is_valid());
    assert_eq!(capless.stats.clusters, 1, "capless run must degenerate");
    assert!(
        capless.stats.compose_verifies <= 1,
        "degenerate run paid {} composition verifies",
        capless.stats.compose_verifies
    );

    // The machine-readable perf-trajectory record.
    let json = format!(
        "{{\n  \"instance\": \"planted_x{COPIES}_coupled\",\n  \"clusters\": {clusters},\n  \
         \"monolithic_wall_s\": {:.4},\n  \"compositional_wall_s\": {:.4},\n  \
         \"verdict\": \"{verdict}\"\n}}\n",
        monolithic_wall.as_secs_f64(),
        compositional_wall.as_secs_f64(),
    );
    // Anchor on the manifest dir: criterion benches run with the package —
    // not the workspace — as working directory.
    let target = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::write(format!("{target}/BENCH_compositional.json"), json)
        .expect("write target/BENCH_compositional.json");

    let mut group = c.benchmark_group("compositional");
    group.bench_function("compositional", |b| {
        b.iter(|| {
            std::hint::black_box(
                CompositionalEngine::new(compositional_config.clone()).synthesize(&dqbf),
            )
        })
    });
    group.bench_function("monolithic", |b| {
        b.iter(|| std::hint::black_box(Manthan3::new(Manthan3Config::default()).synthesize(&dqbf)))
    });
    group.finish();
}

/// The acceptance benchmark of the certifying solver layer (ISSUE 10): every
/// UNSAT verdict the engine reaches across the `suite(7, 1)` workload —
/// under both the modern and the pre-PR legacy solver profile — must come
/// with a DRAT certificate the independent `manthan3-drat` checker accepts.
/// A single rejection is a soundness alarm and fails the bench outright.
/// Certification may not change any verdict, and the logging + in-process
/// checking overhead must stay bounded relative to the plain run.
///
/// The criterion-timed series then tracks certified-vs-plain synthesis on
/// one repair-heavy instance, so the proof-logging overhead has a
/// machine-readable trajectory across PRs.
fn bench_certified(c: &mut Criterion) {
    let instances = suite(7, 1);

    let mut checked_total = 0u64;
    let mut proof_bytes_total = 0u64;
    let mut certified_wall = Duration::ZERO;
    let mut plain_wall = Duration::ZERO;
    for instance in &instances {
        for profile in [SolverProfile::Modern, SolverProfile::Legacy] {
            let start = Instant::now();
            let certified = Manthan3::new(Manthan3Config {
                certify: true,
                solver_profile: profile,
                ..Manthan3Config::default()
            })
            .synthesize(&instance.dqbf);
            certified_wall += start.elapsed();

            let start = Instant::now();
            let plain = Manthan3::new(Manthan3Config {
                solver_profile: profile,
                ..Manthan3Config::default()
            })
            .synthesize(&instance.dqbf);
            plain_wall += start.elapsed();

            // Soundness: no rejected certificates, anywhere, ever.
            assert_eq!(
                certified.stats.oracle.certificates_rejected, 0,
                "instance {} ({profile:?}) produced a rejected DRAT certificate",
                instance.name
            );
            assert!(
                certified.stats.certification_failure.is_none(),
                "instance {} ({profile:?}) surfaced a certification failure",
                instance.name
            );
            // Certification is observation, not interference: verdicts agree
            // with the plain run, and a synthesized vector still passes the
            // independent whole-formula check.
            assert_eq!(
                std::mem::discriminant(&certified.outcome),
                std::mem::discriminant(&plain.outcome),
                "certification changed the verdict on instance {}",
                instance.name
            );
            if let SynthesisOutcome::Realizable(vector) = &certified.outcome {
                assert!(verify::check(&instance.dqbf, vector).is_valid());
            }
            checked_total += certified.stats.oracle.certificates_checked;
            proof_bytes_total += certified.stats.oracle.proof_bytes;
        }
    }
    assert!(
        checked_total > 0,
        "the suite produced no UNSAT verdicts to certify"
    );
    assert!(
        proof_bytes_total > 0,
        "certifying runs logged no proof bytes"
    );
    let overhead = certified_wall.as_secs_f64() / plain_wall.as_secs_f64().max(1e-9);
    println!(
        "certified acceptance: {checked_total} UNSAT certificates checked, 0 rejected, \
         {proof_bytes_total} proof bytes over {} instances x 2 profiles — certified \
         {:.2}s vs plain {:.2}s ({overhead:.2}x overhead)",
        instances.len(),
        certified_wall.as_secs_f64(),
        plain_wall.as_secs_f64(),
    );
    // Proof logging + in-process RUP/RAT checking must not dominate the run.
    // The bound is deliberately loose (checking is quadratic on the hardest
    // refutations) but still catches pathological regressions.
    assert!(
        overhead <= 5.0,
        "certification overhead {overhead:.2}x exceeds the 5x acceptance bound \
         (certified {certified_wall:?}, plain {plain_wall:?})"
    );

    // Timed series on one repair-heavy instance: the certified-vs-plain gap
    // is the per-PR proof-logging overhead trajectory.
    let timed = instances
        .iter()
        .find(|instance| {
            Manthan3::new(Manthan3Config::default())
                .synthesize(&instance.dqbf)
                .stats
                .repair_iterations
                > 0
        })
        .expect("the suite contains a repair-heavy instance");
    let mut group = c.benchmark_group("certified");
    group.bench_function("certified", |b| {
        b.iter(|| {
            std::hint::black_box(
                Manthan3::new(Manthan3Config {
                    certify: true,
                    ..Manthan3Config::default()
                })
                .synthesize(&timed.dqbf),
            )
        })
    });
    group.bench_function("plain", |b| {
        b.iter(|| {
            std::hint::black_box(Manthan3::new(Manthan3Config::default()).synthesize(&timed.dqbf))
        })
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

criterion_group! {
    name = synthesis;
    config = config();
    targets = bench_engines, bench_verification_session, bench_repair_session,
        bench_repair_core_guided, bench_sharded_sampling, bench_portfolio,
        bench_solver_modernization, bench_compositional, bench_certified
}
criterion_main!(synthesis);
