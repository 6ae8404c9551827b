//! End-to-end synthesis benchmark: time to a checked verdict.
//!
//! A closed loop from one client submits a workload's instances one after
//! another. Each instance is generated from the seed, serialized to DQDIMACS,
//! parsed and validated during set-up, then handed to the program's public
//! entry point (`Manthan3::synthesize` or `Portfolio::run`). The benchmark
//! re-checks every returned vector with `dqbf::verify::check` inside the timed
//! interval and gates every verdict (see [`measure`]). See `README.md` next
//! to this crate for the metrics and why each workload exists.

#![forbid(unsafe_code)]

pub mod layers;
pub mod measure;
pub mod trace;
pub mod workload;

use layers::{Layers, Metric};
use measure::{run_case, Case, Record, TraceCtx};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{engine_setup, generate, Input, Size, Workload};

/// Set-up is repeated in a window before every pass, at least this many
/// times per window and for at least [`SETUP_TIME`]; the median over every
/// window of the run is reported.
pub const SETUP_REPEATS: usize = 3;

/// Set-up of one workload takes from under a millisecond to a few tens.
/// The host this benchmark was built on runs slow for stretches of a second
/// and more, so one window at the start of a run saw it run fast or slow
/// as a whole; windows spread over the run see it as the passes do.
pub const SETUP_TIME: Duration = Duration::from_millis(100);

/// What one benchmark run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics) or not
    /// (end-to-end metrics).
    pub trace: bool,
    /// How many instances the workload holds.
    pub size: Size,
}

/// The result of one run.
#[derive(Debug)]
pub struct Summary {
    /// Instance runs attempted.
    pub attempted: usize,
    /// Instance runs that failed the correctness gate.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
    /// Per-layer sums of a traced run's traced instance runs.
    pub layers: Option<Layers>,
    /// Records of the first pass over the workload.
    pub first_pass: Vec<Record>,
}

/// Set-up timings of every repetition in a run.
#[derive(Debug, Clone, Default)]
pub struct Setup {
    /// `parse_dqdimacs` plus `Dqbf::validate` over every input.
    totals: Vec<Duration>,
    /// `parse_dqdimacs` alone.
    parses: Vec<Duration>,
}

impl Setup {
    /// Median time of one set-up.
    pub fn total(&self) -> Duration {
        median(&self.totals)
    }

    /// Median time of one set-up's parsing.
    pub fn parse(&self) -> Duration {
        median(&self.parses)
    }
}

fn median(values: &[Duration]) -> Duration {
    let mut values = values.to_vec();
    values.sort();
    values[values.len() / 2]
}

/// One set-up window: parses and validates every input at least
/// [`SETUP_REPEATS`] times and for at least [`SETUP_TIME`], adds each
/// repetition's timings to `setup`, and returns the formulas of the last
/// repetition. Records one parse span per input on the last repetition when
/// `tracer` is given.
pub fn set_up(
    inputs: &[Input],
    setup: &mut Setup,
    mut tracer: Option<(&mut Tracer, trace::SpanId)>,
) -> Result<Vec<Case>, String> {
    let mut cases = Vec::new();
    let began = Instant::now();
    for rep in 1.. {
        let last = rep >= SETUP_REPEATS && began.elapsed() >= SETUP_TIME;
        cases.clear();
        let mut parse = Duration::ZERO;
        let start = Instant::now();
        for (i, input) in inputs.iter().enumerate() {
            let span = match (&mut tracer, last) {
                (Some((t, parent)), true) => Some(t.open("dqbf.parse", Some(*parent), Some(i))),
                _ => None,
            };
            let t0 = Instant::now();
            let dqbf = manthan3::dqbf::parse_dqdimacs(&input.text)
                .map_err(|e| format!("{}: parse error: {e}", input.name))?;
            parse += t0.elapsed();
            if let (Some((t, _)), Some(span)) = (&mut tracer, span) {
                t.close(span);
            }
            dqbf.validate()
                .map_err(|e| format!("{}: invalid formula: {e}", input.name))?;
            cases.push(Case {
                name: input.name.clone(),
                expected: input.expected,
                dqbf,
            });
        }
        setup.totals.push(start.elapsed());
        setup.parses.push(parse);
        if last {
            break;
        }
    }
    Ok(cases)
}

/// Linear-interpolation percentile (`q` in `0..=1`) of sorted `values`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn report_failure(workload: Workload, case: &Case, record: &Record) {
    if let Some(why) = &record.failure {
        eprintln!("FAIL [{workload}] {}: {why}", case.name);
    }
}

/// The order of pass `pass` over `n` inputs: a Fisher–Yates shuffle drawn
/// from the workload seed and the pass number. A shared host slows down in
/// stretches of a fraction of a second to minutes; a fresh order each pass
/// spreads every input's runs, and every family's, over the whole run, so
/// that a short stretch lands on no input's every run and on no one family.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let draw = workload::sub_seed(seed, u64::MAX - pass as u64, i as u64);
        order.swap(i, (draw % (i as u64 + 1)) as usize);
    }
    order
}

/// Whether a run that has made `passes` whole passes in `elapsed` starts
/// another: it ends at the pass boundary nearest to `seconds`, and after at
/// least one pass, so its length does not overshoot by a whole pass.
fn another_pass(elapsed: Duration, passes: usize, seconds: Duration) -> bool {
    passes == 0 || elapsed + elapsed / (2 * passes as u32) < seconds
}

/// Runs one workload as `opts` asks: whole passes over its inputs, each in
/// a fresh order (see [`pass_order`]) and after a set-up window, for about
/// `opts.seconds`, so every input runs equally often. Throughput counts the
/// passes' time only. An input's latency is its fastest run, and the
/// latency percentiles are taken over the inputs: they neither depend on how
/// many passes fit into the run nor follow a slow stretch of the host.
pub fn run(opts: &Options) -> Result<Summary, String> {
    let inputs = generate(opts.workload, opts.seed, opts.size);
    let setup = engine_setup(opts.workload);
    if opts.trace {
        return run_traced(opts, &inputs, &setup);
    }
    let mut timings = Setup::default();
    let cases = set_up(&inputs, &mut timings, None)?;

    let mut fastest = vec![f64::INFINITY; cases.len()];
    let mut failed = 0;
    let mut attempted = 0;
    let mut first_pass: Vec<Option<Record>> = vec![None; cases.len()];
    let mut rss = None;
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut pass = 0;
    while another_pass(start.elapsed(), pass, opts.seconds) {
        if pass > 0 {
            set_up(&inputs, &mut timings, None)?;
        }
        let pass_start = Instant::now();
        for i in pass_order(cases.len(), opts.seed, pass) {
            let case = &cases[i];
            let record = run_case(&setup, case, None);
            report_failure(opts.workload, case, &record);
            failed += usize::from(record.failure.is_some());
            attempted += 1;
            fastest[i] = fastest[i].min(record.latency.as_secs_f64());
            if pass == 0 {
                first_pass[i] = Some(record);
            }
        }
        busy += pass_start.elapsed();
        if pass == 0 {
            rss = peak_rss_mb();
        }
        pass += 1;
    }
    let first_pass: Vec<Record> = first_pass.into_iter().flatten().collect();
    let mut latencies = fastest;
    latencies.sort_by(f64::total_cmp);

    let solved = first_pass
        .iter()
        .filter(|r| r.verdict == measure::Verdict::Solved)
        .count();
    let decided = first_pass.iter().filter(|r| r.verdict.decided()).count();
    let nodes: usize = first_pass.iter().map(|r| r.nodes).sum();
    let rss = rss.ok_or("the platform does not report peak RSS")?;
    let metrics = vec![
        ("setup_s".into(), timings.total().as_secs_f64(), "s"),
        (
            "latency_p50_ms".into(),
            percentile(&latencies, 0.5) * 1e3,
            "ms",
        ),
        (
            "latency_p90_ms".into(),
            percentile(&latencies, 0.9) * 1e3,
            "ms",
        ),
        (
            "throughput_ips".into(),
            attempted as f64 / busy.as_secs_f64(),
            "1/s",
        ),
        ("solved".into(), solved as f64, "count"),
        ("decided".into(), decided as f64, "count"),
        ("henkin_nodes".into(), nodes as f64, "count"),
        ("peak_rss_mb".into(), rss, "MB"),
    ];
    Ok(Summary {
        attempted,
        failed,
        metrics,
        tracer: None,
        layers: None,
        first_pass,
    })
}

/// The traced run: whole passes for about the run's time. Each instance runs
/// twice back to back, once traced and once not (alternating which goes
/// first), so the tracing overhead is measured on the same inputs. The
/// per-layer metrics come from the traced runs and read per pass.
fn run_traced(
    opts: &Options,
    inputs: &[Input],
    setup: &workload::EngineSetup,
) -> Result<Summary, String> {
    let mut tracer = Tracer::new();
    let root = tracer.open("workload", None, None);
    let setup_span = tracer.open("setup", Some(root), None);
    let mut timings = Setup::default();
    let cases = set_up(inputs, &mut timings, Some((&mut tracer, setup_span)))?;
    tracer.close(setup_span);

    let mut layers = Layers::default();
    let mut failed = 0;
    let mut attempted = 0;
    let (mut traced_wall, mut untraced_wall) = (0.0, 0.0);
    let mut first_pass = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while another_pass(start.elapsed(), passes, opts.seconds) {
        for (i, case) in cases.iter().enumerate() {
            for traced in [(i + passes) % 2 == 0, (i + passes) % 2 == 1] {
                let t0 = Instant::now();
                let ctx = traced.then_some(TraceCtx {
                    tracer: &mut tracer,
                    parent: root,
                    instance: i,
                });
                let record = run_case(setup, case, ctx);
                let wall = t0.elapsed().as_secs_f64();
                report_failure(opts.workload, case, &record);
                failed += usize::from(record.failure.is_some());
                attempted += 1;
                if traced {
                    traced_wall += wall;
                    layers.add(&record);
                    if passes == 0 {
                        first_pass.push(record);
                    }
                } else {
                    untraced_wall += wall;
                }
            }
        }
        passes += 1;
    }
    tracer.close(root);

    let per_side = attempted as f64 / 2.0;
    let ips_traced = per_side / traced_wall;
    let ips_untraced = per_side / untraced_wall;
    let parse_s = timings.parse().as_secs_f64();
    let bytes: usize = inputs.iter().map(|i| i.text.len()).sum();
    let mut metrics: Vec<Metric> = vec![
        ("dqbf.parse_s".into(), parse_s, "s"),
        (
            "dqbf.parse_mb_per_s".into(),
            bytes as f64 / 1e6 / parse_s,
            "MB/s",
        ),
    ];
    metrics.extend(layers.metrics(passes));
    metrics.extend([
        ("trace.ips_untraced".into(), ips_untraced, "1/s"),
        ("trace.ips_traced".into(), ips_traced, "1/s"),
        (
            "trace.overhead_share".into(),
            1.0 - ips_traced / ips_untraced,
            "share",
        ),
    ]);
    Ok(Summary {
        attempted,
        failed,
        metrics,
        tracer: Some(tracer),
        layers: Some(layers),
        first_pass,
    })
}
