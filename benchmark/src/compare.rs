//! `--compare A.json B.json`: one row per (workload, metric) of two
//! results files, A the baseline, with a verdict under each metric's
//! bound.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, CATALOG};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The spread between a side's own iterations is wider than the
    /// bound, so a difference of that size cannot be told from noise.
    Unresolved,
    /// A layer timing: reported, not judged.
    NotJudged,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::NotJudged => "-",
        }
    }
}

pub fn verdict(d: &MetricDef, a: &Summary, b: &Summary) -> Verdict {
    let Some(bound) = d.bound else {
        return Verdict::NotJudged;
    };
    if bound > 0.0 && (a.spread() > bound || b.spread() > bound) {
        return Verdict::Unresolved;
    }
    // By how much of the baseline B is worse; negative when better.
    let change = match d.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let worse_by = if a.value == 0.0 {
        change
    } else {
        change / a.value.abs()
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn summary_of(metric: &Json) -> Option<Summary> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    Some(Summary {
        value: num("value")?,
        n: num("n")? as usize,
        q1: num("q1")?,
        median: num("median")?,
        q3: num("q3")?,
    })
}

fn metrics_of<'a>(doc: &'a Json, workload: &str) -> &'a [Json] {
    doc.get("workloads")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
        .and_then(|w| w.get("metrics"))
        .map_or(&[][..], Json::as_arr)
}

/// Prints the table; returns how many rows were `worse`.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let workloads = a
        .get("workloads")
        .ok_or("baseline has no `workloads`")?
        .as_arr();
    let mut worse = 0;
    println!(
        "{:<12} {:<34} {:<6} {:>16} {:>16} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "A", "B", "A iqr", "B iqr", "bound"
    );
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let theirs = metrics_of(b, name);
        for ma in metrics_of(a, name) {
            let metric = ma
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let (Some(d), Some(mb)) = (
                CATALOG.iter().find(|d| d.name == metric),
                theirs
                    .iter()
                    .find(|m| m.get("name").and_then(Json::as_str) == Some(metric)),
            ) else {
                continue;
            };
            let (sa, sb) = (
                summary_of(ma).ok_or_else(|| format!("{name}/{metric}: malformed in A"))?,
                summary_of(mb).ok_or_else(|| format!("{name}/{metric}: malformed in B"))?,
            );
            let v = verdict(d, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            let bound = d.bound.map_or("-".to_string(), |b| b.to_string());
            println!(
                "{name:<12} {metric:<34} {:<6} {:>16.6} {:>16.6} {:>8.4} {:>8.4} {bound:>7}  {}",
                d.unit,
                sa.value,
                sb.value,
                sa.spread(),
                sb.spread(),
                v.label()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            n: 50,
            q1: value * 1.01,
            median: value * 1.02,
            q3: value * 1.03,
        }
    }

    #[test]
    fn timing_within_its_bound_is_the_same() {
        let d = def("wall_s"); // lower is better
        assert_eq!(verdict(d, &tight(1.0), &tight(1.05)), Verdict::Same);
        assert_eq!(verdict(d, &tight(1.0), &tight(1.30)), Verdict::Worse);
        assert_eq!(verdict(d, &tight(1.0), &tight(0.70)), Verdict::Better);
    }

    #[test]
    fn direction_follows_the_metric() {
        let d = def("events_per_s"); // higher is better
        assert_eq!(verdict(d, &tight(100.0), &tight(70.0)), Verdict::Worse);
        assert_eq!(verdict(d, &tight(100.0), &tight(130.0)), Verdict::Better);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let d = def("wall_s");
        let noisy = Summary {
            value: 0.7,
            n: 9,
            q1: 0.8,
            median: 1.0,
            q3: 1.2,
        };
        assert_eq!(verdict(d, &noisy, &tight(1.0)), Verdict::Unresolved);
        assert_eq!(verdict(d, &tight(1.0), &noisy), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let d = def("desim.events");
        let v = |x| Summary::single(x);
        assert_eq!(verdict(d, &v(1000.0), &v(1000.0)), Verdict::Same);
        assert_eq!(verdict(d, &v(1000.0), &v(1001.0)), Verdict::Worse);
        assert_eq!(
            verdict(def("failed_share"), &v(0.0), &v(0.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(def("failed_share"), &v(0.0), &v(0.01)),
            Verdict::Worse
        );
    }

    #[test]
    fn layer_timings_are_not_judged() {
        assert_eq!(
            verdict(def("topology.route_ns"), &tight(5.0), &tight(50.0)),
            Verdict::NotJudged
        );
    }
}
