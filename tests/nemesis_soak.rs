//! Workload-parametric nemesis soak: quick hostile-schedule runs for any
//! of the four applications across a set of seeds. CI fans this out as
//! an `application × seed` matrix, one cell per job; any red cell
//! jointly shrinks its failure — client ops *and* faults — to a minimal
//! explicit counterexample, writes the paired artifacts
//! `repro-<app>-<seed>.txt` (fault plan) and `ops-<app>-<seed>.txt` (op
//! trace), and prints the exact command that replays the identical
//! violation locally:
//!
//! ```text
//! IPA_NEMESIS_APP=<app> IPA_NEMESIS_SEEDS=<seed> \
//!     cargo test --release --test nemesis_soak -- --nocapture
//! # …or, byte-identical from the paired artifacts:
//! IPA_NEMESIS_APP=<app> IPA_NEMESIS_SEEDS=<seed> \
//!     IPA_NEMESIS_REPLAY=repro-<app>-<seed>.txt,ops-<app>-<seed>.txt \
//!     cargo test --release --test nemesis_soak -- --nocapture
//! ```
//!
//! Environment:
//! * `IPA_NEMESIS_APP` — tournament (default) | ticket | ticket-escrow |
//!   tpc | twitter
//! * `IPA_NEMESIS_MODE` — ipa (default) | causal. The causal axis runs
//!   the *unrepaired* applications and inverts the expectation: every
//!   seeded cell must exhibit a positively named anomaly (lost update,
//!   oversell, referential orphan, stranded match); a hostile run that
//!   stays clean is the failure, and shrinks to the minimal run under
//!   which the nemesis lost its teeth.
//! * `IPA_NEMESIS_SEEDS` — comma-separated workload seeds (default
//!   `11,23,37` so a plain `cargo test` stays quick)
//! * `IPA_NEMESIS_REPLAY` — comma-separated artifact paths (a fault
//!   plan, an op trace, or both — each file is identified by its header
//!   line): skip the matrix and replay exactly those artifacts under
//!   the first seed
//! * `IPA_NEMESIS_REPRO_DIR` — where red cells write artifacts
//!   (default `target/nemesis`)
//!
//! `tests/corpus/` holds one jointly minimized causal counterexample
//! per named anomaly class; `corpus_replays_reproduce_their_named_anomaly`
//! replays each pair as a regression seed.

use ipa::apps::oracle::{Anomaly, Oracle};
use ipa::apps::soak::{
    run_causal_cell, run_soak, run_soak_tuned, shrink_missing_anomaly, shrink_soak_failure, App,
    Nemesis, SoakMode, SoakTuning,
};
use ipa::apps::Mode;
use ipa::sim::{
    CrashPlan, ExplicitPlan, FaultPlan, JointOutcome, OpTrace, ShrinkBudget, OP_TRACE_HEADER,
};
use std::path::PathBuf;

fn app() -> App {
    match std::env::var("IPA_NEMESIS_APP") {
        Ok(s) => App::parse(&s).unwrap_or_else(|| {
            panic!("bad IPA_NEMESIS_APP {s:?}: want tournament|ticket|ticket-escrow|tpc|twitter")
        }),
        Err(_) => App::Tournament,
    }
}

fn mode() -> SoakMode {
    match std::env::var("IPA_NEMESIS_MODE") {
        Ok(s) => SoakMode::parse(&s)
            .unwrap_or_else(|| panic!("bad IPA_NEMESIS_MODE {s:?}: want ipa|causal")),
        Err(_) => SoakMode::Ipa,
    }
}

fn seeds() -> Vec<u64> {
    let raw = std::env::var("IPA_NEMESIS_SEEDS").unwrap_or_else(|_| "11,23,37".into());
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("bad seed in IPA_NEMESIS_SEEDS: {s:?}"))
        })
        .collect()
}

/// The quick fault configurations every seed is soaked under.
fn quick_plans(seed: u64) -> Vec<FaultPlan> {
    let mut crashy = FaultPlan::with_intensity(seed, 0.4);
    crashy.crashes.push(CrashPlan {
        region: (seed % 3) as u16,
        at_s: 0.9,
        down_s: 0.8,
    });
    vec![
        FaultPlan::with_intensity(seed, 0.5),
        FaultPlan::with_intensity(seed.wrapping_mul(31), 1.0),
        crashy,
    ]
}

/// One reproduction banner for every assertion in this file.
fn repro(app: App, seed: u64, plan: &FaultPlan) -> String {
    format!(
        "{app} seed {seed} under {plan}\n  reproduce: IPA_NEMESIS_APP={app} \
         IPA_NEMESIS_SEEDS={seed} cargo test --release --test nemesis_soak -- --nocapture"
    )
}

fn repro_dir() -> PathBuf {
    std::env::var("IPA_NEMESIS_REPRO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/nemesis"))
}

/// Write the paired repro artifacts of a jointly minimized red cell:
/// the fault plan (`repro-<app>-<seed>.txt`) and the op trace
/// (`ops-<app>-<seed>.txt`), each carrying the replay command that
/// names *both* files. Returns `(plan path, ops path)`.
fn write_repro_artifacts(app: App, seed: u64, outcome: &JointOutcome) -> (PathBuf, PathBuf) {
    let dir = repro_dir();
    std::fs::create_dir_all(&dir).expect("create repro dir");
    let plan_path = dir.join(format!("repro-{app}-{seed}.txt"));
    let ops_path = dir.join(format!("ops-{app}-{seed}.txt"));
    let replay_cmd = format!(
        "IPA_NEMESIS_APP={app} IPA_NEMESIS_SEEDS={seed} IPA_NEMESIS_REPLAY={},{} \
         cargo test --release --test nemesis_soak -- --nocapture",
        plan_path.display(),
        ops_path.display()
    );
    let preamble = format!(
        "# red nemesis soak cell, jointly minimized by ipa-sim::shrink_joint\n\
         # app={app} workload_seed={seed} check={}\n\
         # {} of {} fault events and {} of {} op events survive; \
         replay digest 0x{:016x}\n\
         # replay: {replay_cmd}\n",
        outcome.check,
        outcome.fault_events(),
        outcome.original_fault_events,
        outcome.op_events(),
        outcome.original_op_events,
        outcome.digest,
    );
    std::fs::write(&plan_path, format!("{preamble}{}", outcome.faults))
        .expect("write repro plan artifact");
    std::fs::write(&ops_path, format!("{preamble}{}", outcome.ops))
        .expect("write repro ops artifact");
    (plan_path, ops_path)
}

/// Shrink a red cell, write the paired artifacts, and build the failure
/// banner with the exact replay command.
fn report_red_cell(app: App, seed: u64, plan: &FaultPlan, failure: &str) -> String {
    let mut banner = format!(
        "nemesis soak RED: {}\n  failed check: {failure}\n",
        repro(app, seed, plan)
    );
    match shrink_soak_failure(app, seed, plan, ShrinkBudget::default()) {
        Some(outcome) => {
            let (plan_path, ops_path) = write_repro_artifacts(app, seed, &outcome);
            banner.push_str(&format!(
                "  minimized: {} of {} fault events and {} of {} op events still fail \
                 `{}`\n    faults: {}\n    ops: {}\n  artifacts: {} + {}\n  \
                 replay the identical violation:\n    \
                 IPA_NEMESIS_APP={app} IPA_NEMESIS_SEEDS={seed} IPA_NEMESIS_REPLAY={},{} \
                 cargo test --release --test nemesis_soak -- --nocapture\n",
                outcome.fault_events(),
                outcome.original_fault_events,
                outcome.op_events(),
                outcome.original_op_events,
                outcome.check,
                outcome.faults.summary(),
                outcome.ops.summary(),
                plan_path.display(),
                ops_path.display(),
                plan_path.display(),
                ops_path.display(),
            ));
        }
        None => banner.push_str(
            "  (the shrinker could not reproduce the failure from the recorded traces — \
             replay from the seeds above)\n",
        ),
    }
    banner
}

/// Parse a comma-separated `IPA_NEMESIS_REPLAY` value into its fault
/// plan and/or op trace, sniffing each file by header line.
fn parse_replay_artifacts(spec: &str) -> (Option<ExplicitPlan>, Option<OpTrace>) {
    let mut faults = None;
    let mut ops = None;
    for path in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("IPA_NEMESIS_REPLAY={path}: {e}"));
        let is_ops = text.contains(OP_TRACE_HEADER)
            || text.lines().any(|l| {
                let t = l.trim();
                t.starts_with("op ") || t.starts_with("send ")
            });
        if is_ops {
            let trace: OpTrace = text.parse().unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(ops.replace(trace).is_none(), "two op traces in {spec:?}");
        } else {
            let plan: ExplicitPlan = text.parse().unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(
                faults.replace(plan).is_none(),
                "two fault plans in {spec:?}"
            );
        }
    }
    (faults, ops)
}

/// Replay minimized artifacts byte-for-byte and resurface the violation.
fn replay(app: App, seed: u64, spec: &str) {
    let (faults, ops) = parse_replay_artifacts(spec);
    assert!(
        faults.is_some() || ops.is_some(),
        "IPA_NEMESIS_REPLAY={spec:?} named no artifacts"
    );
    match (&faults, &ops) {
        (Some(f), Some(o)) => println!("replaying {} with {}", f.summary(), o.summary()),
        (Some(f), None) => println!("replaying {} (seeded workload)", f.summary()),
        (None, Some(o)) => println!("replaying {} (benign transport)", o.summary()),
        (None, None) => unreachable!(),
    }
    let run = run_soak(
        app,
        seed,
        Nemesis::Explicit {
            faults: faults.as_ref(),
            ops: ops.as_ref(),
        },
    );
    println!("replay schedule digest: 0x{:016x}", run.digest);
    match run.failure {
        Some(f) => panic!("replayed violation: {f} ({app} seed {seed}, artifacts {spec})"),
        None => println!("the artifacts no longer fail — the violation is fixed"),
    }
}

/// In replay mode every other test in this file is a no-op, so the
/// documented one-shot replay command runs exactly one simulation.
fn replay_mode() -> bool {
    std::env::var_os("IPA_NEMESIS_REPLAY").is_some()
}

/// Per-replica corruption/quarantine counters, printed on red cells and
/// archived by CI (the first thing a triager needs to tell "the oracle
/// caught an app bug" from "the transport fed the app garbage").
fn quarantine_summary(run: &ipa::apps::soak::SoakRun) -> String {
    let mut s = format!(
        "  nemesis: {} corrupted, {} dropped, {} dup'd\n",
        run.sim.nemesis.batches_corrupted,
        run.sim.nemesis.batches_dropped,
        run.sim.nemesis.batches_duplicated
    );
    for r in 0..run.sim.regions() as u16 {
        let st = &run.sim.replica(r).stats;
        s.push_str(&format!(
            "  replica {r}: quarantined {} (checksum {}, malformed {}), repaired {}, \
             unrepaired {}\n",
            st.batches_quarantined,
            st.quarantine_checksum,
            st.quarantine_malformed,
            st.quarantine_repaired,
            run.sim.replica(r).unrepaired_quarantine()
        ));
    }
    s
}

/// Persist a red cell's quarantine/corruption counters next to the
/// repro artifacts so CI can upload them alongside the minimized pair.
fn write_quarantine_stats(app: App, seed: u64, run: &ipa::apps::soak::SoakRun) -> PathBuf {
    let dir = repro_dir();
    std::fs::create_dir_all(&dir).expect("create repro dir");
    let path = dir.join(format!("stats-{app}-{seed}.txt"));
    std::fs::write(&path, quarantine_summary(run)).expect("write quarantine stats");
    path
}

#[test]
fn soak_every_seed_under_quick_fault_configs() {
    if mode() == SoakMode::Causal {
        // The causal axis inverts the expectation; its cells run in
        // `causal_mode_soak_expects_named_anomalies` instead.
        return;
    }
    let app = app();
    let seeds = seeds();
    if let Ok(spec) = std::env::var("IPA_NEMESIS_REPLAY") {
        let seed = seeds.first().copied().unwrap_or_else(|| {
            panic!("IPA_NEMESIS_REPLAY needs IPA_NEMESIS_SEEDS=<workload seed> (the seed in the artifact's header)")
        });
        replay(app, seed, &spec);
        return;
    }
    for seed in seeds {
        for plan in quick_plans(seed) {
            println!("soaking {}", repro(app, seed, &plan));

            // IPA: continuous invariants at every audit point,
            // idempotent delivery, all invariants after the final
            // repair, full convergence, bounded-liveness repair. A red
            // run shrinks itself — ops and faults jointly — to a
            // minimal replayable counterexample pair.
            let run = run_soak(
                app,
                seed,
                Nemesis::Plan {
                    faults: &plan,
                    record: false,
                },
            );
            if let Some(failure) = &run.failure {
                write_quarantine_stats(app, seed, &run);
                panic!(
                    "{}{}",
                    report_red_cell(app, seed, &plan, &failure.to_string()),
                    quarantine_summary(&run)
                );
            }
            let liveness = run.sim.liveness();
            println!(
                "  green: {} ops, {}/{} gaps repaired mid-run (max {} rounds, \
                 quiesce {} rounds), digest 0x{:016x}",
                run.sim.metrics.completed,
                liveness.repaired_gaps,
                liveness.tracked_gaps,
                liveness.max_gap_rounds,
                liveness.quiesce_rounds,
                run.digest,
            );

            // Determinism: a second run from the same seeds must replay
            // the identical schedule.
            let again = run_soak(
                app,
                seed,
                Nemesis::Plan {
                    faults: &plan,
                    record: false,
                },
            );
            assert_eq!(
                run.digest,
                again.digest,
                "schedule not reproducible — {}",
                repro(app, seed, &plan)
            );
        }
    }
}

#[test]
fn soak_causal_still_exhibits_anomalies() {
    // Under hostile schedules the *unpatched* application must keep
    // showing the paper's anomalies. Summed over a FIXED seed spread
    // (not `IPA_NEMESIS_SEEDS`): an individual seed may get lucky —
    // this is a global property. It is seed- and app-independent, so
    // matrix cells (which set IPA_NEMESIS_SEEDS) skip it; it runs once,
    // in the plain test job, against the anomaly-dense tournament app.
    if replay_mode() || app() != App::Tournament || std::env::var_os("IPA_NEMESIS_SEEDS").is_some()
    {
        return;
    }
    use ipa::apps::soak::soak_config;
    use ipa::apps::tournament::TournamentWorkload;
    use ipa::sim::{paper_topology, Simulation};
    let mut total = 0u64;
    for seed in [11u64, 23, 37] {
        let plan = FaultPlan::with_intensity(seed, 0.8);
        let mut sim = Simulation::new(paper_topology(), soak_config(seed, plan));
        sim.set_auditor(0.25, Oracle::tournament().into_continuous_auditor());
        let mut w = TournamentWorkload::with_defaults(Mode::Causal);
        sim.run(&mut w);
        sim.quiesce();
        total += sim.metrics.audit_violations
            + (0..3)
                .map(|r| Oracle::tournament().final_violations(sim.replica(r)))
                .sum::<u64>();
    }
    assert!(total > 0, "causal soak lost the expected anomalies");
}

/// `IPA_NEMESIS_MODE=causal` matrix axis: every cell runs the
/// *unrepaired* application under the seeded hostile schedule and must
/// produce a positively named anomaly — the experimental control that
/// proves the oracle catches real weak-consistency damage, not noise.
/// A cell that stays clean is the red outcome here, and shrinks itself
/// to the minimal run under which the nemesis lost its teeth.
#[test]
fn causal_mode_soak_expects_named_anomalies() {
    if mode() != SoakMode::Causal || replay_mode() {
        return;
    }
    let app = app();
    for seed in seeds() {
        for plan in quick_plans(seed) {
            println!("causal cell {}", repro(app, seed, &plan));
            let (anomaly, run) = run_causal_cell(app, seed, &plan);
            match anomaly {
                Some(a) => {
                    let check = run
                        .failure
                        .as_ref()
                        .map(|f| f.check.as_str())
                        .unwrap_or("final-state");
                    println!(
                        "  anomaly as expected: {a} (via `{check}`), digest 0x{:016x}",
                        run.digest
                    );
                }
                None => {
                    write_quarantine_stats(app, seed, &run);
                    let mut banner = format!(
                        "causal soak CLEAN (expected a named anomaly): {}\n{}",
                        repro(app, seed, &plan),
                        quarantine_summary(&run)
                    );
                    match shrink_missing_anomaly(app, seed, &plan, ShrinkBudget::default()) {
                        Some(outcome) => banner.push_str(&format!(
                            "  minimized no-anomaly run: {} of {} fault events and {} of \
                             {} op events still stay clean\n    faults: {}\n    ops: {}\n",
                            outcome.fault_events(),
                            outcome.original_fault_events,
                            outcome.op_events(),
                            outcome.original_op_events,
                            outcome.faults.summary(),
                            outcome.ops.summary(),
                        )),
                        None => banner.push_str(
                            "  (shrinker could not reproduce the clean run from the \
                             recorded traces)\n",
                        ),
                    }
                    panic!("{banner}");
                }
            }
        }
    }
}

/// One header line of a `tests/corpus/` regression seed.
struct CorpusHeader {
    anomaly: Anomaly,
    app: App,
    seed: u64,
    check: String,
}

fn parse_corpus_header(text: &str, path: &std::path::Path) -> CorpusHeader {
    let line = text
        .lines()
        .find(|l| l.trim_start_matches(['#', ' ']).starts_with("anomaly="))
        .unwrap_or_else(|| panic!("{}: missing `# anomaly=…` corpus header", path.display()));
    let (mut anomaly, mut app, mut seed, mut check) = (None, None, None, None);
    for field in line.trim_start_matches('#').split_whitespace() {
        match field.split_once('=') {
            Some(("anomaly", v)) => {
                anomaly = Anomaly::all().into_iter().find(|a| a.name() == v);
            }
            Some(("app", v)) => app = App::parse(v),
            Some(("workload_seed", v)) => seed = v.parse().ok(),
            Some(("check", v)) => check = Some(v.to_string()),
            _ => {}
        }
    }
    fn bad(path: &std::path::Path, k: &str) -> ! {
        panic!("{}: bad/missing `{k}` in corpus header", path.display())
    }
    CorpusHeader {
        anomaly: anomaly.unwrap_or_else(|| bad(path, "anomaly")),
        app: app.unwrap_or_else(|| bad(path, "app")),
        seed: seed.unwrap_or_else(|| bad(path, "workload_seed")),
        check: check.unwrap_or_else(|| bad(path, "check")),
    }
}

/// Regression corpus: every jointly minimized counterexample pair under
/// `tests/corpus/` replays as a causal-mode seed and must still violate
/// the check its header names, classified to the same named anomaly.
/// Together the entries cover all four anomaly classes, so a
/// classification or replay regression in any one of them turns this red.
#[test]
fn corpus_replays_reproduce_their_named_anomaly() {
    if replay_mode() || std::env::var_os("IPA_NEMESIS_APP").is_some() {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut plans: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("corpus dir entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".plan.txt"))
        .collect();
    plans.sort();
    let mut covered = std::collections::HashSet::new();
    for plan_path in plans {
        let plan_text = std::fs::read_to_string(&plan_path)
            .unwrap_or_else(|e| panic!("{}: {e}", plan_path.display()));
        let ops_path = PathBuf::from(plan_path.to_string_lossy().replace(".plan.txt", ".ops.txt"));
        let ops_text = std::fs::read_to_string(&ops_path)
            .unwrap_or_else(|e| panic!("{}: {e}", ops_path.display()));
        let header = parse_corpus_header(&plan_text, &plan_path);
        let faults: ExplicitPlan = plan_text
            .parse()
            .unwrap_or_else(|e| panic!("{}: {e}", plan_path.display()));
        let ops: OpTrace = ops_text
            .parse()
            .unwrap_or_else(|e| panic!("{}: {e}", ops_path.display()));
        let run = run_soak_tuned(
            header.app,
            header.seed,
            Nemesis::Explicit {
                faults: Some(&faults),
                ops: Some(&ops),
            },
            SoakTuning {
                mode: SoakMode::Causal,
                ..SoakTuning::default()
            },
        );
        let failure = run.failure.unwrap_or_else(|| {
            panic!(
                "corpus seed {} went stale: the minimized {} counterexample no longer \
                 violates anything",
                plan_path.display(),
                header.anomaly
            )
        });
        assert_eq!(
            failure.check,
            header.check,
            "corpus seed {} now violates `{}` instead of `{}`",
            plan_path.display(),
            failure.check,
            header.check
        );
        assert_eq!(
            failure.anomaly(),
            header.anomaly,
            "corpus seed {} reclassified",
            plan_path.display()
        );
        println!(
            "corpus {} → {} via `{}` ({} violations)",
            plan_path.file_name().unwrap().to_string_lossy(),
            header.anomaly,
            failure.check,
            failure.count
        );
        covered.insert(header.anomaly);
    }
    for a in Anomaly::all() {
        assert!(
            covered.contains(&a),
            "tests/corpus/ has no regression seed for anomaly class `{a}`"
        );
    }
}

/// End-to-end red-cell drill: force a failure (a zero liveness bound
/// flags the first unrepaired anti-entropy round), jointly shrink it,
/// and prove the acceptance contract — the minimized pair is ≤ 10 % of
/// the recorded *op* events (and of the fault events), still fails the
/// same check, writes both paired artifacts, and the artifacts replay
/// to the identical schedule digest, twice.
#[test]
fn forced_red_cell_shrinks_to_a_tiny_replayable_pair() {
    // The drill is app/seed-independent, so CI matrix cells (which set
    // IPA_NEMESIS_APP) skip it — it runs once, in the plain test job.
    if replay_mode() || std::env::var_os("IPA_NEMESIS_APP").is_some() {
        return;
    }
    use ipa::apps::soak::{run_soak_tuned, shrink_soak_failure_tuned, SoakTuning};
    let (app, seed) = (App::Tournament, 11);
    let plan = FaultPlan::with_intensity(seed, 0.5);
    let tuning = SoakTuning {
        liveness_bound: Some(0),
        ..SoakTuning::default()
    };
    let red = run_soak_tuned(
        app,
        seed,
        Nemesis::Plan {
            faults: &plan,
            record: false,
        },
        tuning,
    );
    let failure = red.failure.expect("bound 0 must go red under drops");
    assert_eq!(failure.check, "bounded-liveness");

    let outcome = shrink_soak_failure_tuned(app, seed, &plan, ShrinkBudget::default(), tuning)
        .expect("the recorded traces reproduce the failure");
    assert_eq!(outcome.check, "bounded-liveness");
    assert!(
        outcome.op_events() * 10 <= outcome.original_op_events,
        "{} of {} op events is not ≤ 10%",
        outcome.op_events(),
        outcome.original_op_events
    );
    assert!(
        outcome.fault_events() * 10 <= outcome.original_fault_events,
        "{} of {} fault events is not ≤ 10%",
        outcome.fault_events(),
        outcome.original_fault_events
    );

    // Paired-artifact contract: a red cell ships BOTH files, and what
    // they parse back to is exactly the minimized pair.
    let (plan_path, ops_path) = write_repro_artifacts(app, seed, &outcome);
    for p in [&plan_path, &ops_path] {
        assert!(p.exists(), "missing artifact {}", p.display());
    }
    let spec = format!("{},{}", plan_path.display(), ops_path.display());
    let (parsed_faults, parsed_ops) = parse_replay_artifacts(&spec);
    let parsed_faults = parsed_faults.expect("plan artifact parses");
    let parsed_ops = parsed_ops.expect("ops artifact parses");
    assert_eq!(parsed_faults, outcome.faults);
    assert_eq!(parsed_ops, outcome.ops);

    // The artifact texts replay the identical violation, twice.
    for _ in 0..2 {
        let replayed = run_soak_tuned(
            app,
            seed,
            Nemesis::Explicit {
                faults: Some(&parsed_faults),
                ops: Some(&parsed_ops),
            },
            tuning,
        );
        assert_eq!(replayed.digest, outcome.digest, "identical schedule");
        assert_eq!(
            replayed.failure.expect("still fails").check,
            outcome.check,
            "identical violation"
        );
    }
}

/// The paired artifacts must also replay through the public env-var
/// path assumptions: a plan file alone keeps the seeded workload, an
/// ops file alone keeps the benign transport — both deterministic.
#[test]
fn single_artifact_replays_are_deterministic() {
    if replay_mode() || std::env::var_os("IPA_NEMESIS_APP").is_some() {
        return;
    }
    let (app, seed) = (App::Tournament, 23);
    let plan = FaultPlan::with_intensity(seed, 0.6);
    let run = run_soak(
        app,
        seed,
        Nemesis::Plan {
            faults: &plan,
            record: true,
        },
    );
    let faults = run.trace.expect("recorded");
    let ops = run.ops.expect("recorded");
    let digest = |faults: Option<&ExplicitPlan>, ops: Option<&OpTrace>| {
        run_soak(app, seed, Nemesis::Explicit { faults, ops }).digest
    };
    assert_eq!(
        digest(None, Some(&ops)),
        digest(None, Some(&ops)),
        "ops-only replay is deterministic"
    );
    assert_eq!(
        digest(Some(&faults), None),
        digest(Some(&faults), None),
        "plan-only replay is deterministic"
    );
}
