//! Command-line entry point of the synthesis benchmark.
//!
//! ```text
//! synthbench --workload <oneshot|cegis|certified|race> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints a stamp line, then as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A traced run also writes
//! its spans to `traces/<workload>-seed<n>.jsonl` next to this crate's
//! manifest.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use synthbench::workload::{Size, Workload};
use synthbench::{run, Options};

const USAGE: &str = "usage: synthbench --workload <oneshot|cegis|certified|race> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse::<Workload>()?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
        size: Size::FULL,
    })
}

/// The commit this benchmark was built from, read from the checkout's
/// `.git` directory when there is one.
fn git_rev(repo: &Path) -> String {
    let git = repo.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("synthbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let profile = env!("SYNTHBENCH_PROFILE");
    if cfg!(debug_assertions) || profile != "release" {
        eprintln!("synthbench: refusing to report from a `{profile}` build; build with --release");
        return ExitCode::from(2);
    }

    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"stamp\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"git_rev\":{},\"rustc\":{},\"profile\":{}}}}}",
        json_string(&opts.workload.to_string()),
        opts.seed,
        opts.seconds.as_secs(),
        u8::from(opts.trace),
        json_string(&git_rev(&manifest.join(".."))),
        json_string(env!("SYNTHBENCH_RUSTC")),
        json_string(profile),
    );

    let summary = match run(&opts) {
        Ok(summary) => summary,
        Err(e) => {
            eprintln!("synthbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(tracer) = &summary.tracer {
        let path = manifest
            .join("traces")
            .join(format!("{}-seed{}.jsonl", opts.workload, opts.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("synthbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("spans: {}", path.display());
        eprintln!("{:<30} {:>12} {:>12}", "span", "total_s", "self_s");
        for (name, (total, own)) in tracer.self_times() {
            eprintln!(
                "{name:<30} {:>12.6} {:>12.6}",
                total.as_secs_f64(),
                own.as_secs_f64()
            );
        }
    }

    let metrics: Vec<String> = summary
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        summary.failed == 0,
        summary.attempted,
        summary.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
