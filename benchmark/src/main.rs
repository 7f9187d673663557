//! The repo's one benchmark. `run.sh` builds this and passes its
//! arguments through; see README.md for workloads, metrics and how to
//! read the output.
//!
//! ```text
//! ipa-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--runs N]
//!               [--trace [0|1]] [--smoke] [--out DIR] [--plant-wrong-element]
//! ipa-benchmark compare BASE.json NEW.json
//! ```
//!
//! One named workload runs in this process and ends with the one-line
//! JSON result `BENCHMARK.json`'s contract asks for. `all` (the default)
//! runs each workload in a child process and merges `results.json`.

mod compare;
mod gen;
mod json;
mod layers;
mod metrics;
mod stats;
mod stepped;
mod trace;
mod workloads;

use json::Json;
use metrics::WORKLOADS;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::Ctx;

const VERSION: &str = "1";
/// Measured seconds of a full-size run; `BENCHMARK.json` says the same.
const FULL_SECONDS: f64 = 15.0;
const SMOKE_SHRINK: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    plant: bool,
    /// Untraced runs per workload in `all` mode.
    runs: usize,
    out: PathBuf,
}

fn usage() -> String {
    let mut text = String::from(
        "usage: run.sh [--workload NAME|all] [--seed N] [--seconds S] [--runs N] [--trace [0|1]] [--smoke]\n       run.sh compare BASE.json NEW.json\nworkloads:\n",
    );
    for w in WORKLOADS {
        text.push_str(&format!("  {:<15} {}\n", w.name, w.why));
    }
    text
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        plant: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // Bare `--trace` switches it on; the driver writes 0 or 1.
                args.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=50).contains(n))
                    .ok_or("--runs needs a whole number from 1 to 50")?
            }
            "--smoke" => args.smoke = true,
            "--plant-wrong-element" => args.plant = true,
            "--out" => args.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {}\n{}", args.workload, usage()));
    }
    Ok(args)
}

fn seconds_of(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        FULL_SECONDS / SMOKE_SHRINK as f64
    } else {
        FULL_SECONDS
    })
}

fn command_line(cmd: &str, argv: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(argv).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what the numbers were taken.
fn provenance(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unknown = || "unknown".to_string();
    Json::obj([
        ("benchmark_version", Json::str(VERSION)),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(seconds_of(args))),
        ("runs", Json::Num(args.runs as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::str(cpu)),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
    ])
}

fn run_file(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("run-{workload}-{}.json", u8::from(traced)))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_stage_table(report: &metrics::Report) {
    if report.get("stage.op_p50_us").is_none() {
        return;
    }
    println!("  stage table (stepped replay, one thread, us):");
    println!("    {:<14} {:>10} {:>10}", "stage", "p50", "p99");
    for stage in stepped::STAGES {
        let v = |tag: &str| {
            report
                .get(&format!("stage.{stage}_{tag}_us"))
                .map_or(0.0, |m| m.value)
        };
        println!("    {stage:<14} {:>10.2} {:>10.2}", v("p50"), v("p99"));
    }
}

/// Run one workload in this process.
fn run_one(args: &Args, started: Instant) -> Result<bool, String> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: seconds_of(args),
        shrink: if args.smoke { SMOKE_SHRINK } else { 1 },
        traced: args.traced,
        plant: args.plant,
    };
    let outcome = workloads::run(&args.workload, &ctx).expect("workload name was validated");
    let report = outcome.report;
    report.print();
    if args.traced {
        print_stage_table(&report);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let mut doc = report.to_json(started.elapsed().as_secs_f64());
    if let Json::Obj(pairs) = &mut doc {
        pairs.insert(0, ("provenance".into(), provenance(args)));
    }
    write(
        &run_file(&args.out, &args.workload, args.traced),
        &doc.pretty(),
    )?;
    if args.traced {
        let path = args.out.join(format!("trace-{}.json", args.workload));
        write(&path, &outcome.tracer.to_json().render())?;
        println!(
            "  {} spans written to {} ({} beyond the cap only counted)",
            outcome.tracer.spans.len(),
            path.display(),
            outcome.tracer.dropped
        );
    }
    // Last line: the result in the form BENCHMARK.json's contract fixes.
    println!("{}", report.contract_line(args.traced));
    Ok(report.correct)
}

/// Run one workload in a child process; its parsed result file.
fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds_of(args).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.plant {
        cmd.arg("--plant-wrong-element");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !status.success() {
        return Err(format!("{workload} failed ({status})"));
    }
    let path = run_file(&args.out, workload, traced);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text)
}

/// One untraced run of a workload, repeated once if it marked itself
/// invalid.
fn valid_run(args: &Args, workload: &str) -> Result<Json, String> {
    let run = run_child(args, workload, false)?;
    if run.get("valid") != Some(&Json::Bool(false)) {
        return Ok(run);
    }
    eprintln!("{workload}: run marked invalid, running it once more");
    run_child(args, workload, false)
}

/// Fold several runs of one workload into one record: every metric
/// becomes the median over the runs, its spread their quartile spread —
/// which is what `compare` needs to tell a change from the runner's own
/// run-to-run difference.
fn fold_runs(runs: &[Json]) -> Json {
    let first = &runs[0];
    if runs.len() == 1 {
        return first.clone();
    }
    let all = |key: &str| Json::Bool(runs.iter().all(|r| r.get(key) == Some(&Json::Bool(true))));
    let sum = |key: &str| Json::Num(runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum());
    let section = |key: &str| {
        let names = first.get(key).map_or(&[][..], Json::entries);
        Json::obj(names.iter().map(|(name, m)| {
            let of = |field: &str| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.get(key)?.get(name)?.get(field)?.as_f64())
                    .collect()
            };
            let values = stats::Repeats::of(&of("value"));
            (
                name.clone(),
                Json::obj([
                    ("value", Json::Num(stats::median(&values.0))),
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                    ("samples", Json::Num(of("samples").iter().sum())),
                    ("repeats", Json::Num(values.0.len() as f64)),
                    ("spread", values.spread().map_or(Json::Null, Json::Num)),
                ]),
            )
        }))
    };
    Json::obj([
        (
            "workload",
            first.get("workload").cloned().unwrap_or(Json::Null),
        ),
        ("runs", Json::Num(runs.len() as f64)),
        ("correct", all("correct")),
        ("valid", all("valid")),
        ("attempted", sum("attempted")),
        ("failed", sum("failed")),
        ("wall_s", sum("wall_s")),
        ("end_to_end", section("end_to_end")),
        ("per_layer", section("per_layer")),
    ])
}

/// Run every workload, each run in its own process, and merge
/// `results.json`. End-to-end numbers always come from untraced runs;
/// `--trace` adds a traced run per workload for the per-layer table.
/// With `--runs N` the workloads take turns N times, so a slow spell of
/// the machine lands on all of them rather than on one.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut runs: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for _ in 0..args.runs {
        for (w, collected) in WORKLOADS.iter().zip(&mut runs) {
            collected.push(valid_run(args, w.name)?);
        }
    }
    let mut merged = Vec::new();
    for (w, collected) in WORKLOADS.iter().zip(&runs) {
        let mut folded = fold_runs(collected);
        if args.traced {
            let traced = run_child(args, w.name, true)?;
            if let (Json::Obj(pairs), Some(layers)) = (&mut folded, traced.get("per_layer")) {
                pairs.retain(|(k, _)| k != "per_layer");
                pairs.push(("per_layer".into(), layers.clone()));
            }
        }
        merged.push((w.name.to_string(), folded));
    }
    let all_valid = merged
        .iter()
        .all(|(_, r)| r.get("valid") == Some(&Json::Bool(true)));
    let doc = Json::obj([
        ("claim", Json::Null),
        ("provenance", provenance(args)),
        ("workloads", Json::Obj(merged)),
    ]);
    let path = args.out.join("results.json");
    write(&path, &doc.pretty())?;
    println!("results written to {}", path.display());
    if !all_valid {
        eprintln!("a workload stayed invalid after its re-run: do not use its numbers");
    }
    Ok(all_valid)
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    let [base, new] = files else {
        return Err(usage());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let worse = compare::compare(&load(base)?, &load(new)?)?;
    if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
    }
    Ok(worse == 0)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if argv.first().map(String::as_str) == Some("compare") {
        run_compare(&argv[1..])
    } else {
        parse_args(&argv).and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args, started)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(goodput: f64, valid: bool) -> Json {
        json::parse(&format!(
            r#"{{"workload": "hot_large", "correct": true, "valid": {valid}, "attempted": 10,
                "failed": 1, "wall_s": 2.0, "end_to_end": {{"goodput_ops_s":
                {{"value": {goodput}, "unit": "ops/s", "samples": 10, "repeats": 4, "spread": 0.5}}}},
                "per_layer": {{}}}}"#
        ))
        .expect("test document parses")
    }

    #[test]
    fn folding_runs_takes_the_median_and_the_spread_across_runs() {
        let runs: Vec<Json> = [100.0, 90.0, 110.0, 100.0, 300.0]
            .iter()
            .map(|g| run(*g, true))
            .collect();
        let folded = fold_runs(&runs);
        let m = folded
            .get("end_to_end")
            .unwrap()
            .get("goodput_ops_s")
            .unwrap();
        let field = |k: &str| m.get(k).and_then(Json::as_f64);
        assert_eq!(field("value"), Some(100.0));
        assert_eq!(field("repeats"), Some(5.0));
        assert_eq!(field("samples"), Some(50.0));
        // Quartiles of 90, 100, 100, 110, 300 are 95 and 205.
        assert_eq!(field("spread"), Some(1.1));
        assert_eq!(folded.get("failed").and_then(Json::as_f64), Some(5.0));
        assert_eq!(folded.get("valid"), Some(&Json::Bool(true)));
        let one_invalid = fold_runs(&[run(1.0, true), run(1.0, false)]);
        assert_eq!(one_invalid.get("valid"), Some(&Json::Bool(false)));
        assert_eq!(fold_runs(&runs[..1]), runs[0]);
    }

    #[test]
    fn arguments_parse_both_trace_forms() {
        let parse = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        let driver = parse("--workload hot_large --seed 7 --seconds 15 --trace 0").unwrap();
        assert!(!driver.traced && driver.seed == 7 && driver.workload == "hot_large");
        assert!(parse("--trace 1").unwrap().traced);
        assert!(parse("--trace --smoke").unwrap().traced);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--runs 0").is_err());
    }
}
