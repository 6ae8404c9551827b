//! The benchmark's workloads: seeded DQDIMACS inputs plus the engine
//! configuration each workload runs them with.
//!
//! Every input is generated with `manthan3-gen` and serialized with
//! `dqbf::write_dqdimacs`; the program under test only ever sees that text.
//! Each workload isolates one cost centre of the system:
//!
//! * `oneshot` — realizable instances that Manthan3 solves from the learned
//!   candidates alone: sampling, decision-tree learning and Padoa
//!   preprocessing do the work, and repair, MaxSAT and DRAT do none.
//! * `cegis` — restricted-observability PEC instances plus unrealizable and
//!   §5-limitation instances: the verify/repair loop, MaxSAT and the SAT
//!   core do the work, and the unrealizable path is taken.
//! * `certified` — full-observation controllers (large expanded vectors)
//!   plus unrealizable instances under `Manthan3Config::certify`: the final
//!   `verify::check` and the DRAT proof checker do the work.
//! * `race` — the paper's mixed suite raced by the default portfolio: the
//!   only workload that runs portfolio dispatch, cancellation and the two
//!   baseline engines.

use manthan3::core::Manthan3Config;
use manthan3::dqbf::write_dqdimacs;
use manthan3::gen::controller::{controller, ControllerParams};
use manthan3::gen::pec::{pec, PecParams};
use manthan3::gen::planted::{planted_false, planted_true, PlantedParams};
use manthan3::gen::skolem::{skolem, SkolemParams};
use manthan3::gen::succinct::{succinct, SuccinctParams};
use manthan3::gen::suite::suite;
use manthan3::gen::Instance;
use manthan3::portfolio::PortfolioConfig;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// Wall-clock budget of one Manthan3 call. It is a safety net far above the
/// slowest instance (about 2 s): verdicts on the Manthan3 workloads come from
/// the engine's deterministic limits, and a run that reaches this budget
/// counts as failed.
pub const SAFETY_NET: Duration = Duration::from_secs(60);

/// Per-instance budget of a portfolio race on the `race` workload. Decided
/// suite instances finish well within it (on seeds 1 and 6 a 100 ms budget
/// decides exactly the same instances). The instances no engine decides
/// (about 3% of the suite) cost exactly the budget, so a small budget keeps
/// the workload's throughput from hinging on how many of them a seed draws.
pub const RACE_BUDGET: Duration = Duration::from_millis(50);

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthesis without repair: sample, learn, one verify.
    Oneshot,
    /// The verify/repair loop and the unrealizable path.
    Cegis,
    /// Certified synthesis plus the final check of large vectors.
    Certified,
    /// The default portfolio race over the mixed suite.
    Race,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Oneshot,
        Workload::Cegis,
        Workload::Certified,
        Workload::Race,
    ];
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Workload::Oneshot => "oneshot",
            Workload::Cegis => "cegis",
            Workload::Certified => "certified",
            Workload::Race => "race",
        })
    }
}

impl FromStr for Workload {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.to_string() == s)
            .ok_or_else(|| format!("unknown workload `{s}` (oneshot, cegis, certified, race)"))
    }
}

/// How many instances a workload holds. [`Size::FULL`] is what the benchmark
/// runs; [`Size::SMALL`] keeps the same strata with fewer instances each, for
/// the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// `oneshot` instances per stratum (family × size).
    pub oneshot: usize,
    /// `cegis` restricted-PEC circuits per size.
    pub circuits: usize,
    /// `certified` controllers have 7 to this many clients.
    pub max_clients: usize,
    /// Unrealizable instances per size on `cegis`.
    pub unrealizable: usize,
    /// Unrealizable instances per size on `certified`.
    pub certified_false: usize,
    /// The `scale` argument of `gen::suite` for `race`.
    pub race_scale: usize,
}

impl Size {
    /// The benchmark's size: one pass over a workload takes 4–10 s on a
    /// 2-core 2.1 GHz Xeon, and holds enough instances that the figures of
    /// two seeds agree.
    pub const FULL: Size = Size {
        oneshot: 128,
        circuits: 20,
        max_clients: 13,
        unrealizable: 21,
        certified_false: 7,
        race_scale: 20,
    };
    /// A few instances per stratum.
    pub const SMALL: Size = Size {
        oneshot: 3,
        circuits: 3,
        max_clients: 11,
        unrealizable: 2,
        certified_false: 2,
        race_scale: 1,
    };
}

/// One benchmark input: the text handed to the program plus what the
/// generator knows about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// The generator's instance name.
    pub name: String,
    /// Ground truth known by construction (`None` when unknown).
    pub expected: Option<bool>,
    /// The formula as DQDIMACS text.
    pub text: String,
}

/// The engine configuration a workload runs its inputs with.
#[derive(Debug, Clone)]
pub enum EngineSetup {
    /// `Manthan3::synthesize` with this configuration.
    Manthan3(Manthan3Config),
    /// `Portfolio::run` with this configuration.
    Race(Box<PortfolioConfig>),
}

/// The configuration each workload uses: the defaults, with only the
/// safety-net budget (and `certify` on `certified`) changed. The race keeps
/// the default thread count even where it oversubscribes the host.
pub fn engine_setup(workload: Workload) -> EngineSetup {
    let manthan3 = Manthan3Config {
        time_budget: Some(SAFETY_NET),
        ..Manthan3Config::default()
    };
    match workload {
        Workload::Oneshot | Workload::Cegis => EngineSetup::Manthan3(manthan3),
        Workload::Certified => EngineSetup::Manthan3(Manthan3Config {
            certify: true,
            ..manthan3
        }),
        Workload::Race => {
            EngineSetup::Race(Box::new(PortfolioConfig::with_time_budget(RACE_BUDGET)))
        }
    }
}

/// Derives the generator seed of instance `index` of stratum `stratum` from
/// the workload seed (SplitMix64 finalizer, so neighbouring seeds give
/// unrelated instances).
pub(crate) fn sub_seed(seed: u64, stratum: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stratum.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The planted-random parameters of `gen::suite` at size step `step`.
fn planted_step(step: usize) -> PlantedParams {
    PlantedParams {
        num_universals: 4 + 3 * step,
        num_existentials: 3 + step,
        max_dependencies: (2 + step).min(5),
        drop_probability: 0.2,
        extra_universal_implications: 0,
    }
}

/// A generator of one stratum: instance from a generator seed.
type Stratum = Box<dyn Fn(u64) -> Instance>;

fn oneshot_strata() -> Vec<Stratum> {
    let mut strata: Vec<Stratum> = Vec::new();
    // Steps 6 and 7 lie just past the top step (5) of `gen::suite`.
    for step in [6usize, 7] {
        strata.push(Box::new(move |s| planted_true(&planted_step(step), s)));
        strata.push(Box::new(move |s| {
            let params = SkolemParams {
                num_universals: 4 + step,
                num_existentials: 2 + step,
                drop_probability: 0.15,
            };
            skolem(&params, s)
        }));
        strata.push(Box::new(move |s| {
            let params = SuccinctParams {
                num_propositional: 6 + 2 * step,
                num_clauses: 18 + 6 * step,
                planted_satisfiable: true,
            };
            succinct(&params, s)
        }));
    }
    // Full-observation PEC with one black box. With two or more, a few
    // percent of the circuits run into the 400-iteration repair limit, and
    // each of those costs as much as a hundred one-shot instances: they are
    // the `cegis` workload's subject, not this one's.
    for inputs in [7usize, 9] {
        strata.push(Box::new(move |s| {
            let params = PecParams {
                num_inputs: inputs,
                num_gates: inputs + 1,
                num_blackboxes: 1,
                restrict_observability: false,
            };
            pec(&params, s)
        }));
    }
    strata
}

fn pec_restricted(inputs: usize, blackboxes: usize) -> Stratum {
    Box::new(move |s| {
        let params = PecParams {
            num_inputs: inputs,
            num_gates: inputs + 1,
            num_blackboxes: blackboxes,
            restrict_observability: true,
        };
        pec(&params, s)
    })
}

/// The `cegis` circuits: restricted-observability PEC at three sizes, each
/// with generator seeds `0..circuits`, so every workload seed runs the same
/// circuits. About half of them end at the 400-iteration limit after
/// 0.1–2 s and the rest are solved or stuck within a few iterations; with
/// seeded circuits, how many of a seed's draw land in the expensive half
/// moves throughput by more than any useful bound between seeds.
fn cegis_circuits(circuits: usize) -> Vec<Instance> {
    let strata = [
        pec_restricted(9, 3),
        pec_restricted(11, 3),
        pec_restricted(13, 3),
    ];
    (0..circuits as u64)
        .flat_map(|s| strata.iter().map(move |make| make(s)))
        .collect()
}

/// Seeded unrealizable instances: planted-false at suite steps 5 and 6 with
/// `drop_probability` as given. With the suite's 0.2, Manthan3 proves about
/// three quarters of them false and is stuck on the rest; with 0 (every gate
/// clause kept) it proves all of them false. Each takes a few milliseconds.
fn unrealizable(seed: u64, per_step: usize, drop_probability: f64) -> Vec<Instance> {
    let strata: Vec<Stratum> = [5usize, 6]
        .into_iter()
        .map(|step| {
            let params = PlantedParams {
                drop_probability,
                ..planted_step(step)
            };
            Box::new(move |s| planted_false(&params, s)) as Stratum
        })
        .collect();
    from_strata(&strata, seed, per_step)
}

/// The §5 limitation chains of `gen::suite` (true instances on which
/// Manthan3's repair is stuck). Their construction ignores the seed.
fn limitation_chains() -> Vec<Instance> {
    suite(0, 1)
        .into_iter()
        .filter(|i| i.name.contains("_limitation_"))
        .collect()
}

fn from_strata(strata: &[Stratum], seed: u64, per_stratum: usize) -> Vec<Instance> {
    let mut out = Vec::new();
    for index in 0..per_stratum as u64 {
        for (stratum, make) in strata.iter().enumerate() {
            out.push(make(sub_seed(seed, stratum as u64, index)));
        }
    }
    out
}

/// Generates a workload's inputs. The same `(workload, seed, size)` always
/// gives the same inputs.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Vec<Input> {
    let instances = match workload {
        Workload::Oneshot => from_strata(&oneshot_strata(), seed, size.oneshot),
        Workload::Cegis => {
            let mut all = cegis_circuits(size.circuits);
            all.extend(unrealizable(seed, size.unrealizable, 0.2));
            all.extend(limitation_chains());
            all
        }
        Workload::Certified => {
            // The controller construction ignores the seed: the same
            // controllers appear under every seed. The unrealizable
            // instances keep every gate clause, so each ends in a certified
            // UNSAT verdict and `decided` does not swing with the seed's mix
            // of proofs and stuck runs. Two of them per controller put the
            // 90th percentile on one instance, `controller_k11`, whose time
            // goes mostly to the final check; with more, it fell between the
            // 8- and 9-client controllers and swung with their mix.
            let mut all: Vec<Instance> = (7..=size.max_clients)
                .map(|k| {
                    let params = ControllerParams {
                        num_clients: k,
                        observation_window: k,
                    };
                    controller(&params, seed)
                })
                .collect();
            all.extend(unrealizable(seed, size.certified_false, 0.0));
            all
        }
        Workload::Race => suite(seed, size.race_scale),
    };
    instances
        .into_iter()
        .map(|i| Input {
            text: write_dqdimacs(&i.dqbf),
            name: i.name,
            expected: i.expected,
        })
        .collect()
}
