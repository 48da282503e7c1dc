//! The metric catalog: every name the benchmark prints, with its unit,
//! direction and regression bound. `BENCHMARK.json` lists the same
//! names (a unit test holds the two together).

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tier {
    /// End-to-end, defined on every workload: `end_to_end` in
    /// `BENCHMARK.json`, printed by `--trace 0`, gated by the driver.
    Gate,
    /// End-to-end, but undefined on some workload or required to
    /// repeat exactly, so the driver's spread test cannot hold it:
    /// printed by `--trace 1`, gated by `--compare`.
    EndToEnd,
    /// A single layer's metric, printed by `--trace 1`.
    Layer,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub tier: Tier,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` calls it `worse`; `Some(0.0)` for a count or
    /// simulated result that must repeat exactly; `None` for a layer
    /// timing, which is reported without a verdict.
    pub bound: Option<f64>,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    tier: Tier,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        tier,
        bound,
    }
}

use Better::{Higher, Lower};
use Tier::{EndToEnd, Gate, Layer};

const EXACT: Option<f64> = Some(0.0);

/// Definitions are in `README.md`, in this order.
pub const CATALOG: &[MetricDef] = &[
    m("wall_s", "s", Lower, Gate, Some(0.25)),
    m("setup_s", "s", Lower, Gate, Some(0.25)),
    m("peak_rss_mb", "MB", Lower, Gate, Some(0.15)),
    // A count over `wall_s`: 0.20 lower is `wall_s` 0.25 higher.
    m("events_per_s", "1/s", Higher, EndToEnd, Some(0.20)),
    m("jobs_per_s", "1/s", Higher, EndToEnd, Some(0.20)),
    m("live_speedup", "ratio", Higher, EndToEnd, Some(0.25)),
    m("sim_efficiency", "ratio", Higher, EndToEnd, EXACT),
    m("sim_makespan_us", "us", Lower, EndToEnd, EXACT),
    m("serve_p99_us", "us", Lower, EndToEnd, EXACT),
    m("failed_share", "ratio", Lower, EndToEnd, EXACT),
    m("tracing_overhead_share", "ratio", Lower, Layer, None),
    m("unattributed_share", "ratio", Lower, Layer, None),
    m("topology.route_ns", "ns", Lower, Layer, None),
    m("desim.events", "count", Lower, Layer, EXACT),
    m("desim.peak_queue_depth", "count", Lower, Layer, EXACT),
    m("desim.modelled_bytes", "bytes", Lower, Layer, EXACT),
    m("desim.bare_ns_per_event.n32", "ns", Lower, Layer, None),
    m("desim.bare_ns_per_event.n250k", "ns", Lower, Layer, None),
    m("desim.engine_new_us.n8", "us", Lower, Layer, None),
    m("desim.engine_new_us.n250k", "us", Lower, Layer, None),
    m("sched.mwa_plan_ms.500x500", "ms", Lower, Layer, None),
    m("sched.tiled_plan_ms.500x500", "ms", Lower, Layer, None),
    m("sched.mwa_plan_us.8x4", "us", Lower, Layer, None),
    m("sched.plan_moves", "count", Lower, Layer, EXACT),
    m("sched.nonlocal_ratio", "ratio", Lower, Layer, EXACT),
    m("balancers.random.ns_per_event", "ns", Lower, Layer, None),
    m("balancers.gradient.ns_per_event", "ns", Lower, Layer, None),
    m("balancers.rid.ns_per_event", "ns", Lower, Layer, None),
    m("balancers.sid.ns_per_event", "ns", Lower, Layer, None),
    m("core.rips.ns_per_event", "ns", Lower, Layer, None),
    m("core.rips-h.ns_per_event", "ns", Lower, Layer, None),
    m("core.system_phases", "count", Lower, Layer, EXACT),
    m("core.migrated_tasks", "count", Lower, Layer, EXACT),
    m("runtime.nonlocal_tasks", "count", Lower, Layer, EXACT),
    m("apps.build_ms.queens10", "ms", Lower, Layer, None),
    m("apps.build_ms.queens13", "ms", Lower, Layer, None),
    m("apps.build_ms.queens15", "ms", Lower, Layer, None),
    m("apps.build_ms.ida3", "ms", Lower, Layer, None),
    m("apps.build_ms.gromos16", "ms", Lower, Layer, None),
    m("apps.static_totals_ms.queens15", "ms", Lower, Layer, None),
    m("taskgraph.skewed_flat_ms", "ms", Lower, Layer, None),
    m("serve.catalog_build_ms", "ms", Lower, Layer, None),
    m("audit.overhead_share.mesh250k", "ratio", Lower, Layer, None),
    m(
        "audit.overhead_share.serve-sim",
        "ratio",
        Lower,
        Layer,
        None,
    ),
    m("trace.buffer_ns_per_event", "ns", Lower, Layer, None),
    m("live.dispatch_rounds", "count", Lower, Layer, None),
    m("live.round_ns_mean", "ns", Lower, Layer, None),
    m("live.grain_setup_ns_mean", "ns", Lower, Layer, None),
    m("live.grain_exec_share", "ratio", Higher, Layer, None),
    m("live.transport_send_ns_mean", "ns", Lower, Layer, None),
    m("live.transport_recv_ns_mean", "ns", Lower, Layer, None),
    m("live.timer_wheel_ns_mean", "ns", Lower, Layer, None),
    m("live.park_count", "count", Lower, Layer, None),
    m("live.park_share", "ratio", Lower, Layer, None),
    m("live.msgs_per_packet", "ratio", Higher, Layer, None),
    m("live.wall_p95_us", "us", Lower, Layer, None),
    m("live.ring_ns_per_msg", "ns", Lower, Layer, None),
    m("live.wheel_ns_per_timer", "ns", Lower, Layer, None),
    m("serve.traffic_gen_ms", "ms", Lower, Layer, None),
    m("serve.admission_ns_per_op", "ns", Lower, Layer, None),
    m("serve.drr_ns_per_pick", "ns", Lower, Layer, None),
    m("serve.backend_service_us_mean", "us", Lower, Layer, None),
    m("serve.loop_self_share", "ratio", Lower, Layer, None),
    m("serve.shed_share.overload", "ratio", Lower, Layer, EXACT),
    m("serve.peak_pending", "count", Lower, Layer, EXACT),
];

/// A metric's place in the catalog, which is the order it prints in.
///
/// # Panics
/// On a name the catalog lacks: a workload printed a metric nobody
/// defined, which is a bug in the benchmark.
pub fn index(name: &str) -> usize {
    CATALOG
        .iter()
        .position(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the catalog"))
}

/// Looks a metric up by name; panics like [`index`].
pub fn def(name: &str) -> &'static MetricDef {
    &CATALOG[index(name)]
}

/// The five workloads and why each was chosen (README has the long
/// form).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "grid32",
        "Table I in miniature: 3 apps x 6 schedulers on 32 simulated nodes; tabled routing and a tiny event heap, so runtime and policy code do the work",
    ),
    (
        "mesh250k",
        "RIPS and RIPS-H audited on a 500x500 mesh: closed-form routing, a 10^6-entry event queue and large-mesh planning; policy code does little",
    ),
    (
        "live-fine",
        "real threads on queens10 (436 tasks, ~1 us grains): transport, timer wheel and park/unpark do all the work and grains none",
    ),
    (
        "live-coarse",
        "real threads on queens15 (15926 tasks, ~100 us grains): grain execution dominates, so a wakeup or transport change should not move it",
    ),
    (
        "serve-sim",
        "5000 + 5000 open-loop jobs (Poisson at rho 0.8, then bursty overload that sheds) over 8-node sims: per-run fixed cost and admission/DRR are the work",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        assert!(valid_name("core.rips-h.ns_per_event"));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name("a/b") && !valid_name(""));
        let mut seen = std::collections::BTreeSet::new();
        for d in CATALOG {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(valid_unit(d.unit), "bad unit {:?} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        for (name, why) in WORKLOADS {
            assert!(valid_name(name), "bad workload name {name:?}");
            assert!(seen.insert(name), "workload {name} reuses a metric name");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}");
        }
    }

    #[test]
    fn bounds_stay_inside_the_contract() {
        for d in CATALOG.iter().filter(|d| d.tier == Gate) {
            let b = d.bound.expect("a gate metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", d.name);
        }
        let largest = CATALOG.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(def("setup_s").bound, Some(largest));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("parse BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .expect(key)
                .as_arr()
                .iter()
                .map(|e| {
                    let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        e.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let catalog = |gate: bool| -> Vec<(String, String, String, Option<f64>)> {
            CATALOG
                .iter()
                .filter(|d| (d.tier == Gate) == gate)
                .map(|d| {
                    let bound = if gate { d.bound } else { None };
                    (d.name.into(), d.unit.into(), d.better.label().into(), bound)
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalog(true));
        assert_eq!(listed("per_layer"), catalog(false));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .expect("workloads")
            .as_arr()
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }
}
