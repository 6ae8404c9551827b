//! The benchmark's own tests: the workloads are deterministic per seed, and
//! each still has the property that justifies it. Run them with
//! `cargo test --release --manifest-path synthbench/Cargo.toml`.

use std::time::Duration;
use synthbench::layers::Layers;
use synthbench::workload::{generate, Size, Workload};
use synthbench::{run, Options, Summary};

const SEED: u64 = 2023;

/// One traced pass over the small variant of `workload`.
fn traced_pass(workload: Workload) -> (Summary, Layers) {
    let summary = run(&Options {
        workload,
        seed: SEED,
        seconds: Duration::ZERO,
        trace: true,
        size: Size::SMALL,
    })
    .expect("the workload runs");
    assert_eq!(summary.failed, 0, "{workload}: the correctness gate failed");
    let layers = summary
        .layers
        .clone()
        .expect("a traced run sums its layers");
    (summary, layers)
}

#[test]
fn generators_are_deterministic_per_seed() {
    for workload in Workload::ALL {
        let a = generate(workload, SEED, Size::SMALL);
        assert!(!a.is_empty(), "{workload}");
        assert_eq!(a, generate(workload, SEED, Size::SMALL), "{workload}");
        assert_ne!(a, generate(workload, SEED + 1, Size::SMALL), "{workload}");
    }
}

#[test]
fn oneshot_needs_no_repair() {
    let (summary, _) = traced_pass(Workload::Oneshot);
    let mut iterations: Vec<usize> = summary
        .first_pass
        .iter()
        .map(|r| r.repair_iterations())
        .collect();
    iterations.sort_unstable();
    assert_eq!(iterations[iterations.len() / 2], 0, "{iterations:?}");
}

#[test]
fn cegis_is_dominated_by_verification() {
    let (_, layers) = traced_pass(Workload::Cegis);
    assert!(
        layers.verify_s() >= 0.5 * layers.synthesize_s(),
        "verify {} s of synthesize {} s",
        layers.verify_s(),
        layers.synthesize_s()
    );
}

#[test]
fn certified_is_dominated_by_witness_checks() {
    let (_, layers) = traced_pass(Workload::Certified);
    assert!(layers.certificates_checked() > 0);
    assert!(
        layers.check_s() + layers.drat_s() > layers.verify_s(),
        "check {} s + drat {} s against verify {} s",
        layers.check_s(),
        layers.drat_s(),
        layers.verify_s()
    );
}

#[test]
fn race_is_won_by_a_baseline_at_least_once() {
    let (_, layers) = traced_pass(Workload::Race);
    assert!(layers.baseline_wins() > 0);
}
