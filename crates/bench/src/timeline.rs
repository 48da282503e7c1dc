//! ASCII utilization chart from recorded busy spans.

#![allow(
    clippy::needless_range_loop,
    reason = "indexed loops mirror the paper's per-column vector algebra; \
              iterator rewrites would obscure the correspondence"
)]
use rips_desim::{BusySpan, RunStats, WorkKind};

/// Renders the run as one row of `width` buckets per node:
/// `#` mostly user work, `+` mostly system overhead (Table I's `Th`),
/// `.` mostly idle (Table I's `Ti`) — "mostly" meaning the plurality
/// of the bucket's virtual time.
///
/// Requires the engine to have run with timeline recording
/// (`Costs::record_timeline` / `Engine::record_timeline`); returns an
/// explanatory placeholder otherwise.
pub fn utilization_chart(stats: &RunStats, width: usize) -> String {
    assert!(width > 0, "chart width must be positive");
    let Some(timelines) = &stats.timelines else {
        return "(no timeline recorded: enable Costs::record_timeline)".to_string();
    };
    if stats.end_time == 0 {
        return "(empty run)".to_string();
    }
    let end = stats.end_time as f64;
    let mut out = String::new();
    out.push_str(&format!(
        "utilization over {:.3} s  (#: user  +: overhead  .: idle)\n",
        end / 1e6
    ));
    for (node, spans) in timelines.iter().enumerate() {
        let mut user = vec![0.0f64; width];
        let mut over = vec![0.0f64; width];
        for span in spans {
            bucketize(span, end, width, &mut user, &mut over);
        }
        let bucket_len = end / width as f64;
        out.push_str(&format!("{node:4} "));
        for b in 0..width {
            let idle = bucket_len - user[b] - over[b];
            let ch = if user[b] >= over[b] && user[b] >= idle {
                '#'
            } else if over[b] >= idle {
                '+'
            } else {
                '.'
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

/// Distributes one span's duration over the buckets it overlaps.
fn bucketize(span: &BusySpan, end: f64, width: usize, user: &mut [f64], over: &mut [f64]) {
    let bucket_len = end / width as f64;
    let target = match span.kind {
        WorkKind::User => user,
        WorkKind::Overhead => over,
    };
    let (s, e) = (span.start as f64, span.end as f64);
    let first = ((s / bucket_len) as usize).min(width - 1);
    let last = ((e / bucket_len) as usize).min(width - 1);
    for b in first..=last {
        let b_start = b as f64 * bucket_len;
        let b_end = b_start + bucket_len;
        let overlap = (e.min(b_end) - s.max(b_start)).max(0.0);
        target[b] += overlap;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rips_desim::{NetStats, NodeStats};

    fn stats_with(spans: Vec<Vec<BusySpan>>, end: u64) -> RunStats {
        RunStats {
            end_time: end,
            nodes: vec![NodeStats::default(); spans.len()],
            net: NetStats::default(),
            events: 0,
            peak_queue_depth: 0,
            peak_heap_len: 0,
            mem: Default::default(),
            timelines: Some(spans),
        }
    }

    #[test]
    fn fully_busy_node_renders_hashes() {
        let stats = stats_with(
            vec![vec![BusySpan {
                start: 0,
                end: 1000,
                kind: WorkKind::User,
            }]],
            1000,
        );
        let chart = utilization_chart(&stats, 10);
        let row = chart.lines().nth(1).unwrap();
        assert!(row.ends_with("##########"), "{row}");
    }

    #[test]
    fn idle_second_half_renders_dots() {
        let stats = stats_with(
            vec![vec![BusySpan {
                start: 0,
                end: 500,
                kind: WorkKind::User,
            }]],
            1000,
        );
        let chart = utilization_chart(&stats, 10);
        let row = chart.lines().nth(1).unwrap();
        assert!(row.ends_with("#####....."), "{row}");
    }

    #[test]
    fn overhead_renders_plus() {
        let stats = stats_with(
            vec![vec![BusySpan {
                start: 0,
                end: 1000,
                kind: WorkKind::Overhead,
            }]],
            1000,
        );
        let chart = utilization_chart(&stats, 4);
        assert!(chart.lines().nth(1).unwrap().ends_with("++++"));
    }

    #[test]
    fn empty_run_is_explained() {
        // Timelines recorded but nothing ever ran: zero end time must
        // short-circuit before the f64 bucket math divides by it.
        let stats = stats_with(vec![vec![], vec![]], 0);
        assert_eq!(utilization_chart(&stats, 8), "(empty run)");
    }

    #[test]
    fn span_wider_than_bucket_fills_every_covered_bucket() {
        // One span covering buckets 2..=7 of 10 exactly; the buckets it
        // does not touch must stay idle on both sides.
        let stats = stats_with(
            vec![vec![BusySpan {
                start: 200,
                end: 800,
                kind: WorkKind::User,
            }]],
            1000,
        );
        let chart = utilization_chart(&stats, 10);
        let row = chart.lines().nth(1).unwrap();
        assert!(row.ends_with("..######.."), "{row}");
    }

    #[test]
    fn span_on_exact_bucket_boundary_stays_in_its_bucket() {
        // Span [250, 500) with bucket length 250: `last` lands on
        // bucket 2, whose overlap must come out exactly 0 — the span
        // belongs entirely to bucket 1.
        let stats = stats_with(
            vec![vec![BusySpan {
                start: 250,
                end: 500,
                kind: WorkKind::User,
            }]],
            1000,
        );
        let chart = utilization_chart(&stats, 4);
        let row = chart.lines().nth(1).unwrap();
        assert!(row.ends_with(".#.."), "{row}");
    }

    #[test]
    fn missing_timeline_is_explained() {
        let stats = RunStats {
            end_time: 10,
            nodes: vec![],
            net: NetStats::default(),
            events: 0,
            peak_queue_depth: 0,
            peak_heap_len: 0,
            mem: Default::default(),
            timelines: None,
        };
        assert!(utilization_chart(&stats, 5).contains("no timeline"));
    }
}
