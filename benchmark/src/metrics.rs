//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metric names, and the report one run
//! produces. `BENCHMARK.json` at the repo root lists the same names; a
//! test keeps the two in step.

use crate::json::Json;
use crate::stats::Repeats;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By how much a metric may worsen before `compare` calls it a
/// regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the base value.
    Rel(f64),
    /// Absolute difference.
    Abs(f64),
    /// Any difference: the metric is a deterministic function of the
    /// seed.
    Exact,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names are permanent: later issues cite them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady_mixed",
        why: "open loop below the knee, reads beside writes: the commit-ship-gate-apply path users feel",
    },
    Workload {
        name: "saturate_small",
        why: "closed loop on the same small objects: capacity of the layers steady_mixed times one op at a time",
    },
    Workload {
        name: "hot_large",
        why: "closed loop on 4,096-element objects: every cost that scales with object size; bypass pair of saturate_small",
    },
    Workload {
        name: "catchup_wide",
        why: "crash, wide commits, timed restart: the only place batches are wide (anti-entropy pull, log index, shard pool)",
    },
    Workload {
        name: "sim_apps",
        why: "four applications on the simulator under faults: sim driver, apps and escrow coordination; virtual time is exact",
    },
    Workload {
        name: "analyze_apps",
        why: "static analysis of the four specs: spec, solver and core share no code with the runtime workloads",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Empty = every workload.
    pub workloads: &'static [&'static str],
}

const THREADED_WRITES: &[&str] = &["steady_mixed", "saturate_small", "hot_large"];
const STEADY: &[&str] = &["steady_mixed"];
const SIM: &[&str] = &["sim_apps"];

/// The thirteen end-to-end metrics `results.json` carries and `compare`
/// judges. Each is defined on the workloads listed; README.md has the
/// definitions.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: &[],
    },
    EndToEnd {
        name: "goodput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: Bound::Rel(0.25),
        workloads: &[],
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: THREADED_WRITES,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: STEADY,
    },
    EndToEnd {
        name: "visible_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: STEADY,
    },
    EndToEnd {
        name: "visible_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: STEADY,
    },
    EndToEnd {
        name: "catchup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: &["catchup_wide"],
    },
    EndToEnd {
        name: "analysis_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: &["analyze_apps"],
    },
    EndToEnd {
        name: "virtual_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Exact,
        workloads: SIM,
    },
    EndToEnd {
        name: "virtual_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Exact,
        workloads: SIM,
    },
    EndToEnd {
        name: "virtual_goodput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: Bound::Exact,
        workloads: SIM,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: Bound::Abs(0.005),
        workloads: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::Rel(0.25),
        workloads: &[],
    },
];

/// The end-to-end metrics `BENCHMARK.json` lists. Its contract makes
/// every workload report every one of them, non-zero, so it carries the
/// four that are defined everywhere; `latency_p50_us` is each workload's
/// headline latency (see [`headline_latency_us`]). The other nine stay
/// end-to-end here and are listed there among the per-layer names.
pub const CONTRACT_END_TO_END: &[&str] =
    &["setup_s", "goodput_ops_s", "latency_p50_us", "peak_rss_mb"];

/// `latency_p50_us` of a report: the workload's headline latency in
/// microseconds.
pub fn headline_latency_us(report: &Report) -> Option<f64> {
    let of = |name: &str, to_us: f64| report.get(name).map(|m| m.value * to_us);
    match report.workload {
        "steady_mixed" => of("visible_p50_us", 1.0),
        // At saturation a client's median commit is bimodal on two
        // cores (uncontended ~4 us, contended ~10 us) and flips between
        // runs; the time a client spends per write on average is what
        // holds still: clients / goodput.
        "saturate_small" => of("goodput_ops_s", 1.0).map(|g| CLOSED_LOOP_CLIENTS as f64 * 1e6 / g),
        "hot_large" => of("write_p50_us", 1.0),
        "catchup_wide" => of("catchup_s", 1e6),
        "sim_apps" => of("virtual_p50_ms", 1e3),
        "analyze_apps" => of("analysis_s", 1e6),
        other => panic!("unknown workload {other}"),
    }
}

/// Generator threads of the closed-loop workloads (`nproc` on the
/// tracked runner; the cluster's own threads are the system under test).
pub const CLOSED_LOOP_CLIENTS: usize = 2;

pub const APPS: [&str; 4] = ["tournament", "twitter", "ticket", "tpc"];

/// Per-layer metric names, `(name, unit, better)`; a name ending in
/// `.*` stands for one metric per application / simulator cell.
const LAYER_PATTERNS: &[(&str, &str, Better)] = &[
    ("spec.build_us.*", "us", Better::Lower),
    ("solver.ground_ms", "ms", Better::Lower),
    ("solver.sat_ms", "ms", Better::Lower),
    ("solver.decisions", "count", Better::Lower),
    ("solver.conflicts", "count", Better::Lower),
    ("solver.propagations", "count", Better::Lower),
    ("core.analyze_ms.*", "ms", Better::Lower),
    ("core.check_pair_p50_us", "us", Better::Lower),
    ("core.check_pair_p99_us", "us", Better::Lower),
    ("core.pairs_checked", "count", Better::Lower),
    ("core.repairs_applied", "count", Better::Lower),
    ("core.flagged_pairs", "count", Better::Lower),
    ("core.iterations", "count", Better::Lower),
    ("crdt.awset_add_ns.16", "ns", Better::Lower),
    ("crdt.awset_add_ns.4096", "ns", Better::Lower),
    ("crdt.object_clone_ns.16", "ns", Better::Lower),
    ("crdt.object_clone_ns.4096", "ns", Better::Lower),
    ("crdt.clock_merge_ns", "ns", Better::Lower),
    ("txn.commit_us.small", "us", Better::Lower),
    ("txn.commit_us.large", "us", Better::Lower),
    ("txn.read_us", "us", Better::Lower),
    ("txn.updates_per_commit", "count", Better::Lower),
    ("batch.seal_check_ns.narrow", "ns", Better::Lower),
    ("batch.seal_check_ns.wide", "ns", Better::Lower),
    ("batch.encoded_bytes_per_op", "B", Better::Lower),
    ("replica.receive_us.narrow", "us", Better::Lower),
    ("replica.receive_us.wide", "us", Better::Lower),
    ("replica.batches_since_us", "us", Better::Lower),
    ("replica.ae_scanned_per_pull", "count", Better::Lower),
    (
        "replica.apply_table_lookups_per_update",
        "ratio",
        Better::Lower,
    ),
    ("replica.pending_hwm", "count", Better::Lower),
    ("replica.log_len", "count", Better::Lower),
    ("pool.apply_wide_inline_us", "us", Better::Lower),
    ("pool.apply_wide_pool_us", "us", Better::Lower),
    ("pool.vs_inline_x", "x", Better::Higher),
    ("pool.batches", "count", Better::Higher),
    ("pool.dispatches", "count", Better::Higher),
    ("pool.queued_hwm", "count", Better::Lower),
    ("cluster.sync_ops_s", "ops/s", Better::Higher),
    ("threaded.write_p99_us", "us", Better::Lower),
    ("threaded.read_p99_us", "us", Better::Lower),
    ("threaded.commit_ops_s", "ops/s", Better::Higher),
    ("threaded.barrier_us", "us", Better::Lower),
    ("threaded.ae_round_us", "us", Better::Lower),
    ("threaded.quiesce_rounds", "count", Better::Lower),
    ("threaded.wide_commit_updates_s", "1/s", Better::Higher),
    ("threaded.catchup_updates_s", "1/s", Better::Higher),
    ("threaded.ae_batches_sent", "count", Better::Lower),
    ("threaded.pipeline_prevalidated", "count", Better::Higher),
    ("threaded.refused_down", "count", Better::Lower),
    ("threaded.lost_in_crash", "count", Better::Lower),
    ("threaded.deadline_missed", "count", Better::Lower),
    ("sim.wall_s.*", "s", Better::Lower),
    ("sim.ops_per_wall_s.*", "ops/s", Better::Higher),
    ("sim.quiesce_wall_s", "s", Better::Lower),
    ("sim.ae_batches_sent", "count", Better::Lower),
    ("sim.dropped", "count", Better::Lower),
    ("sim.duplicated", "count", Better::Lower),
    ("sim.schedule_digest.*", "count", Better::Lower),
    ("coord.local_decs", "count", Better::Higher),
    ("coord.borrows", "count", Better::Lower),
    ("coord.transfers_issued", "count", Better::Lower),
    ("coord.rejected_exhausted", "count", Better::Lower),
    ("coord.rejected_unreachable", "count", Better::Lower),
    ("coord.units_moved", "count", Better::Lower),
    ("coord.buy_p99_virtual_ms", "ms", Better::Lower),
    ("coord.failed_share", "ratio", Better::Lower),
    ("apps.virtual_p99_ms.*", "ms", Better::Lower),
    ("apps.violations", "count", Better::Lower),
    ("apps.oversell", "count", Better::Lower),
    ("apps.final_repair_ms", "ms", Better::Lower),
    ("stage.commit_p50_us", "us", Better::Lower),
    ("stage.commit_p99_us", "us", Better::Lower),
    ("stage.seal_ship_p50_us", "us", Better::Lower),
    ("stage.seal_ship_p99_us", "us", Better::Lower),
    ("stage.ingest_gate_p50_us", "us", Better::Lower),
    ("stage.ingest_gate_p99_us", "us", Better::Lower),
    ("stage.apply_p50_us", "us", Better::Lower),
    ("stage.apply_p99_us", "us", Better::Lower),
    ("stage.op_p50_us", "us", Better::Lower),
    ("stage.handoff_p50_us", "us", Better::Lower),
    ("gen.late_p99_us", "us", Better::Lower),
    ("gen.probe_resolution_us", "us", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// Every per-layer metric `BENCHMARK.json` lists, patterns expanded,
/// followed by the end-to-end metrics its contract could not carry.
pub fn layer_metrics() -> Vec<(String, &'static str, Better)> {
    let mut out = Vec::new();
    for &(pattern, unit, better) in LAYER_PATTERNS {
        match pattern.strip_suffix(".*") {
            Some(stem) => out.extend(APPS.iter().map(|a| (format!("{stem}.{a}"), unit, better))),
            None => out.push((pattern.to_string(), unit, better)),
        }
    }
    for m in END_TO_END {
        if !CONTRACT_END_TO_END.contains(&m.name) {
            out.push((m.name.to_string(), m.unit, m.better));
        }
    }
    out
}

/// Unit and direction of one per-layer metric, by name.
fn layer_def(name: &str) -> Option<(&'static str, Better)> {
    LAYER_PATTERNS
        .iter()
        .find(|(pattern, _, _)| match pattern.strip_suffix('*') {
            Some(stem) => name
                .strip_prefix(stem)
                .is_some_and(|app| APPS.contains(&app)),
            None => *pattern == name,
        })
        .map(|&(_, unit, better)| (unit, better))
}

/// One measured metric: the quiet quartile of its repeats inside this
/// run (see [`Repeats`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (ops, windows, chunks, cycles, rounds).
    pub samples: usize,
    /// Repeats the value summarises, and their quartile spread as a
    /// share of the median.
    pub repeats: usize,
    pub spread: Option<f64>,
}

impl Metric {
    fn of(r: &Repeats, unit: &'static str, better: Better, samples: usize) -> Metric {
        Metric {
            value: r.quiet(better == Better::Lower),
            unit,
            samples,
            repeats: r.0.len(),
            spread: r.spread(),
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub end_to_end: Vec<(String, Metric)>,
    pub layers: Vec<(String, Metric)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    /// False when the instrument itself was disturbed (generator
    /// starved); the numbers are then not to be used.
    pub valid: bool,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            end_to_end: Vec::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
            valid: true,
            notes: Vec::new(),
        }
    }

    /// Record an end-to-end metric; its unit comes from the table.
    pub fn e2e(&mut self, name: &str, r: Repeats, samples: usize) {
        let def = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
        assert!(
            def.workloads.is_empty() || def.workloads.contains(&self.workload),
            "{name} is not defined on {}",
            self.workload
        );
        let metric = Metric::of(&r, def.unit, def.better, samples);
        self.end_to_end.push((name.to_string(), metric));
    }

    /// Record a per-layer metric; its unit comes from the table.
    pub fn layer(&mut self, name: &str, r: Repeats, samples: usize) {
        let (unit, better) =
            layer_def(name).unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.layers.retain(|(n, _)| n != name);
        self.layers
            .push((name.to_string(), Metric::of(&r, unit, better, samples)));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.layer(name, Repeats::single(value as f64), 1);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.layers)
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }

    /// A failed output check: recorded, printed, and fatal at exit.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("CHECK FAILED [{}]: {what}", self.workload);
        self.notes.push(format!("check failed: {what}"));
        self.correct = false;
    }

    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what);
        }
    }

    /// `failed_share` and the attempt counts close every report.
    pub fn finish(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
        let share = failed as f64 / attempted.max(1) as f64;
        self.e2e("failed_share", Repeats::single(share), attempted as usize);
    }

    /// Print every metric by name with its unit and sample count.
    pub fn print(&self) {
        println!(
            "== {} == correct={} valid={} attempted={} failed={}",
            self.workload, self.correct, self.valid, self.attempted, self.failed
        );
        for (title, rows) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.layers),
        ] {
            if rows.is_empty() {
                continue;
            }
            println!("  {title}:");
            for (name, m) in rows {
                let spread = m
                    .spread
                    .map(|s| format!("  spread={:.1}% of {}", s * 100.0, m.repeats))
                    .unwrap_or_default();
                println!(
                    "    {name:<42} {:>16} {:<6} n={}{spread}",
                    fmt_value(m.value),
                    m.unit,
                    m.samples
                );
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }

    /// The report as it goes into `results.json`.
    pub fn to_json(&self, wall_s: f64) -> Json {
        let rows = |rows: &[(String, Metric)]| {
            Json::obj(rows.iter().map(|(name, m)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("samples", Json::Num(m.samples as f64)),
                        ("repeats", Json::Num(m.repeats as f64)),
                        ("spread", m.spread.map_or(Json::Null, Json::Num)),
                    ]),
                )
            }))
        };
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("correct", Json::Bool(self.correct)),
            ("valid", Json::Bool(self.valid)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("wall_s", Json::Num(wall_s)),
            ("end_to_end", rows(&self.end_to_end)),
            ("per_layer", rows(&self.layers)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// The line `BENCHMARK.json`'s contract asks for: every listed
    /// end-to-end metric untraced, every listed per-layer metric traced
    /// (a layer this workload does not exercise reads 0).
    pub fn contract_line(&self, traced: bool) -> String {
        let value = |name: &str| self.get(name).map(|m| m.value);
        let metrics: Vec<(String, Json)> = if traced {
            layer_metrics()
                .into_iter()
                .map(|(name, unit, _)| {
                    let v = value(&name).unwrap_or(0.0);
                    (name, metric_json(v, unit))
                })
                .collect()
        } else {
            CONTRACT_END_TO_END
                .iter()
                .map(|&name| {
                    let (v, unit) = if name == "latency_p50_us" {
                        (headline_latency_us(self), "us")
                    } else {
                        let unit = END_TO_END.iter().find(|m| m.name == name).map(|m| m.unit);
                        (value(name), unit.expect("contract metric is in the table"))
                    };
                    let v = v.unwrap_or_else(|| panic!("{} did not measure {name}", self.workload));
                    (name.to_string(), metric_json(v, unit))
                })
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = layer_metrics().into_iter().map(|(n, _, _)| n).collect();
        names.extend(CONTRACT_END_TO_END.iter().map(|s| s.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(layer_metrics().len() <= 128);
        assert_eq!(END_TO_END.len(), 13);
        assert_eq!(WORKLOADS.len(), 6);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must name the same things.
    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
                    .collect(),
                _ => panic!("{key} is not a list"),
            }
        };
        let listed: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads"), listed);
        assert_eq!(names("end_to_end"), CONTRACT_END_TO_END);
        let layers: Vec<String> = layer_metrics().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(names("per_layer"), layers);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for m in e2e {
            let name = m.get("name").and_then(Json::as_str).unwrap();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{name}");
            if let Some(def) = END_TO_END.iter().find(|d| d.name == name) {
                assert_eq!(Bound::Rel(bound), def.bound, "{name}");
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = match m.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => panic!("{name}: better = {other:?}"),
                };
                assert_eq!(better, def.better, "{name}");
            }
        }
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(15.0));
    }

    #[test]
    fn contract_line_has_the_four_keys_and_every_metric() {
        let mut r = Report::new("catchup_wide");
        r.e2e("setup_s", Repeats::single(0.5), 3);
        r.e2e("goodput_ops_s", Repeats::single(1e5), 8);
        r.e2e("catchup_s", Repeats::single(0.2), 8);
        r.e2e("peak_rss_mb", Repeats::single(100.0), 1);
        r.count("pool.batches", 7);
        r.finish(10, 0);
        let line = json::parse(&r.contract_line(false)).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap();
        assert_eq!(m.entries().len(), CONTRACT_END_TO_END.len());
        let lat = m.get("latency_p50_us").unwrap().get("value").unwrap();
        assert_eq!(lat.as_f64(), Some(0.2 * 1e6));
        let traced = json::parse(&r.contract_line(true)).unwrap();
        let m = traced.get("metrics").unwrap();
        assert_eq!(m.entries().len(), layer_metrics().len());
        let v = |name: &str| m.get(name).unwrap().get("value").unwrap().as_f64();
        assert_eq!(v("pool.batches"), Some(7.0));
        assert_eq!(v("coord.borrows"), Some(0.0));
        assert_eq!(v("catchup_s"), Some(0.2));
    }
}
