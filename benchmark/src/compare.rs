//! `compare a.json b.json`: per workload and end-to-end metric, the base
//! value, the new value, their ratio, the bound and a verdict. Exits
//! non-zero when anything got worse.

use crate::json::Json;
use crate::metrics::{fmt_value, Better, Bound, EndToEnd, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    /// The repeats inside a run leave the reported value less certain
    /// than the bound is wide: the two runs cannot be told apart at this
    /// resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the reported value, and the quartile
/// spread and count of the repeats behind it (spread only from four).
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub spread: Option<f64>,
    pub repeats: usize,
}

impl Reading {
    /// How far the reported value can be trusted, as a share of it: a
    /// summary of `n` repeats is about `sqrt(n)` times steadier than one
    /// repeat.
    fn resolution(&self) -> f64 {
        self.spread.unwrap_or(0.0) / (self.repeats.max(1) as f64).sqrt()
    }
}

pub fn verdict(def: &EndToEnd, base: Reading, new: Reading) -> Verdict {
    // Positive = worse, in the metric's own unit.
    let worsening = match def.better {
        Better::Lower => new.value - base.value,
        Better::Higher => base.value - new.value,
    };
    let (limit, relative) = match def.bound {
        Bound::Exact => {
            return match worsening {
                w if w > 0.0 => Verdict::Worse,
                w if w < 0.0 => Verdict::Better,
                _ => Verdict::Unchanged,
            }
        }
        Bound::Abs(a) => (a, false),
        Bound::Rel(r) => (r * base.value.abs(), true),
    };
    let spread = base.resolution().max(new.resolution());
    if relative && spread * base.value.abs() > limit {
        // Unless the change clears even that spread on the good side.
        return if -worsening > spread * base.value.abs() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > limit {
        Verdict::Worse
    } else if -worsening > limit {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Json::as_f64),
        repeats: m.get("repeats").and_then(Json::as_f64).unwrap_or(1.0) as usize,
    })
}

fn bound_text(b: Bound) -> String {
    match b {
        Bound::Rel(r) => format!("{:.0}%", r * 100.0),
        Bound::Abs(a) => format!("+{a}"),
        Bound::Exact => "exact".to_string(),
    }
}

/// Print the table; the number of `worse` rows.
pub fn compare(base: &Json, new: &Json) -> Result<usize, String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .ok_or("no \"workloads\" in results file")?
            .entries()
            .to_vec())
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    for (side, doc) in [("base", base), ("new", new)] {
        let field = |k: &str| doc.get("provenance").and_then(|p| p.get(k));
        println!(
            "{side}: commit {} seed {}",
            field("commit").and_then(Json::as_str).unwrap_or("unknown"),
            field("seed").and_then(Json::as_f64).unwrap_or(f64::NAN)
        );
    }
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut worse = 0;
    for (name, b) in &base_w {
        let Some((_, n)) = new_w.iter().find(|(w, _)| w == name) else {
            println!("{name:<16} missing from the new file");
            continue;
        };
        for side in [b, n] {
            if side.get("valid") == Some(&Json::Bool(false)) {
                println!("{name:<16} a side is marked invalid: its numbers are not to be used");
            }
        }
        for def in END_TO_END {
            let (Some(rb), Some(rn)) = (reading(b, def.name), reading(n, def.name)) else {
                continue;
            };
            let v = verdict(def, rb, rn);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:<16} {:<24} {:>14} {:>14} {:>8.3} {:>7}  {}",
                name,
                def.name,
                fmt_value(rb.value),
                fmt_value(rn.value),
                rn.value / rb.value,
                bound_text(def.bound),
                v.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn at(value: f64) -> Reading {
        Reading {
            value,
            spread: Some(0.02),
            repeats: 4,
        }
    }

    #[test]
    fn relative_bounds_follow_the_direction() {
        let goodput = def("goodput_ops_s"); // higher is better, 25%
        assert_eq!(verdict(goodput, at(1000.0), at(1100.0)), Verdict::Unchanged);
        assert_eq!(verdict(goodput, at(1000.0), at(700.0)), Verdict::Worse);
        assert_eq!(verdict(goodput, at(1000.0), at(1300.0)), Verdict::Better);
        let lat = def("write_p50_us"); // lower is better, 25%
        assert_eq!(verdict(lat, at(40.0), at(51.0)), Verdict::Worse);
        assert_eq!(verdict(lat, at(40.0), at(49.0)), Verdict::Unchanged);
        assert_eq!(verdict(lat, at(40.0), at(29.0)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_clearly_better() {
        let lat = def("visible_p99_us");
        // Four repeats spread 80% wide: the value is good to 40%.
        let noisy = |value| Reading {
            value,
            spread: Some(0.8),
            repeats: 4,
        };
        assert_eq!(verdict(lat, noisy(1000.0), at(1300.0)), Verdict::Unresolved);
        assert_eq!(verdict(lat, noisy(1000.0), at(900.0)), Verdict::Unresolved);
        assert_eq!(verdict(lat, noisy(1000.0), at(500.0)), Verdict::Better);
    }

    #[test]
    fn exact_and_absolute_bounds() {
        let v = def("virtual_p99_ms");
        assert_eq!(verdict(v, at(12.5), at(12.5)), Verdict::Unchanged);
        assert_eq!(verdict(v, at(12.5), at(12.500001)), Verdict::Worse);
        assert_eq!(verdict(v, at(12.5), at(12.4)), Verdict::Better);
        let f = def("failed_share");
        assert_eq!(verdict(f, at(0.0), at(0.004)), Verdict::Unchanged);
        assert_eq!(verdict(f, at(0.0), at(0.006)), Verdict::Worse);
    }

    #[test]
    fn compare_counts_worse_rows() {
        let doc = |goodput: f64| {
            crate::json::parse(&format!(
                r#"{{"workloads": {{"hot_large": {{"valid": true, "end_to_end": {{
                    "goodput_ops_s": {{"value": {goodput}, "spread": 0.01}},
                    "write_p50_us": {{"value": 700.0, "spread": null}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&doc(1500.0), &doc(1490.0)), Ok(0));
        assert_eq!(compare(&doc(1500.0), &doc(1000.0)), Ok(1));
        assert!(compare(&Json::Null, &doc(1.0)).is_err());
    }
}
