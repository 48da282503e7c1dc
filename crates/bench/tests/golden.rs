//! Bit-for-bit golden outcomes for fixed seeds.
//!
//! The engine hot path is performance-tuned under one invariant: no
//! optimisation may change a simulated result. These tests pin the
//! complete outcome of several scheduler × workload × seed cells —
//! virtual end time, per-node CPU split, network counters, event
//! count, executed-task distribution, nonlocal moves — as a compact
//! string plus an FNV-1a digest of every per-node field. Any engine
//! change that shifts a single microsecond or reorders one delivery
//! shows up here.
//!
//! Three paper-scale Table I cells (13-Queens, IDA\* #2 and GROMOS
//! 8 Å on 32 nodes) are pinned too. IDA\* #2 takes seconds in a debug
//! build, so, like `crates/apps/tests/paper_scale.rs`'s slow pins, it
//! runs only in release; CI's release test step runs it.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! cargo test --release -p rips-bench --test golden -- --ignored --nocapture print_goldens
//! ```
//!
//! and paste the printed constants below, with a justification in the
//! commit message.

use std::sync::Arc;

use rips_apps::{nqueens, NQueensConfig};
use rips_bench::{registry, registry_with, run_cell, App, RegistryTuning, Row};
use rips_core::{GlobalPolicy, LocalPolicy, RipsConfig};
use rips_desim::Time;
use rips_taskgraph::{geometric_tree, Workload};
use rips_topology::NodeId;
use rips_trace::{with_sink, EventKind, Interest, TraceEvent, TraceSink};

/// Messages and payload bytes each node sent, counted from the
/// engine's `MsgSend` events: its stats keep only the network totals.
struct Sent(Vec<(u64, u64)>);

impl TraceSink for Sent {
    fn record(&mut self, _: Time, node: NodeId, event: TraceEvent) {
        if let TraceEvent::MsgSend { bytes, .. } = event {
            self.0[node].0 += 1;
            self.0[node].1 += bytes;
        }
    }

    fn interest(&self) -> Interest {
        Interest::of(&[EventKind::MsgSend])
    }
}

/// Runs `cell` on `nodes` nodes, counting what each node sent.
fn counting_sends(nodes: usize, cell: impl FnOnce() -> Row) -> (Row, Sent) {
    let (sent, row) = with_sink(Sent(vec![(0, 0); nodes]), cell);
    (row, sent)
}

/// FNV-1a over every numeric field of the outcome, in a fixed order.
fn digest(row: &Row, sent: &Sent) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    let out = &row.outcome;
    eat(out.stats.end_time);
    for (n, &(msgs, bytes)) in out.stats.nodes.iter().zip(&sent.0) {
        eat(n.user_us);
        eat(n.overhead_us);
        eat(msgs);
        eat(bytes);
    }
    eat(out.stats.net.msgs);
    eat(out.stats.net.bytes);
    eat(out.stats.net.hops);
    eat(out.stats.events);
    for &e in &out.executed {
        eat(e);
    }
    eat(out.nonlocal);
    eat(out.system_phases as u64);
    for p in &row.phases {
        eat(p.phase as u64);
        eat(p.round as u64);
        eat(p.total_tasks as u64);
        eat(p.migrated as u64);
        eat(p.edge_cost as u64);
    }
    h
}

/// Human-readable summary line; the digest catches the long tail.
fn fingerprint((row, sent): &(Row, Sent)) -> String {
    let s = &row.outcome.stats;
    format!(
        "end={} events={} msgs={} bytes={} hops={} exec={:?} nonlocal={} fnv={:#018x}",
        s.end_time,
        s.events,
        s.net.msgs,
        s.net.bytes,
        s.net.hops,
        row.outcome.executed,
        row.outcome.nonlocal,
        digest(row, sent),
    )
}

fn queens9() -> Arc<Workload> {
    Arc::new(nqueens(NQueensConfig {
        n: 9,
        split_depth: 3,
        root_depth: 2,
        ns_per_node: 1800,
    }))
}

fn tree() -> Arc<Workload> {
    Arc::new(geometric_tree(6, 5, 3, 2500, 5))
}

/// (scheduler, workload, nodes, seed) cells pinned by the goldens.
fn cells() -> Vec<(&'static str, Arc<Workload>, usize, u64)> {
    vec![
        ("Random", queens9(), 8, 1),
        ("Gradient", queens9(), 8, 1),
        ("RID", queens9(), 8, 1),
        ("RIPS", queens9(), 8, 1),
        ("SID", queens9(), 8, 1),
        ("RID", tree(), 9, 3),
        ("RIPS", tree(), 9, 3),
        ("RIPS-H", queens9(), 8, 1),
        ("RIPS-H", tree(), 9, 3),
    ]
}

#[rustfmt::skip]
const GOLDEN: [&str; 9] = [
    "end=24197 events=508 msgs=209 bytes=12576 hops=428 exec=[30, 33, 43, 44, 32, 30, 33, 45] nonlocal=262 fnv=0xa873474ae8354021", // Random
    "end=18761 events=369 msgs=47 bytes=848 hops=47 exec=[38, 38, 34, 35, 36, 34, 37, 38] nonlocal=3 fnv=0x1ac6bb9cf312ae13", // Gradient
    "end=21278 events=516 msgs=217 bytes=3888 hops=217 exec=[37, 35, 36, 38, 37, 34, 35, 38] nonlocal=9 fnv=0x64d08f17305229b7", // RID
    "end=36698 events=598 msgs=305 bytes=5376 hops=602 exec=[39, 36, 35, 35, 35, 35, 36, 39] nonlocal=7 fnv=0xcb3b1779e69bf78b", // RIPS
    "end=49051 events=1101 msgs=802 bytes=31888 hops=802 exec=[38, 45, 24, 13, 39, 33, 51, 47] nonlocal=129 fnv=0x7d9275675c88ed6a", // SID
    "end=30107 events=450 msgs=329 bytes=6080 hops=329 exec=[21, 12, 6, 16, 7, 5, 6, 9, 0] nonlocal=21 fnv=0x265d236cf4288215", // RID
    "end=40607 events=449 msgs=372 bytes=6784 hops=740 exec=[12, 9, 9, 11, 9, 11, 7, 6, 8] nonlocal=24 fnv=0xb2c53342bee47891", // RIPS
    "end=38948 events=598 msgs=305 bytes=5376 hops=602 exec=[39, 36, 35, 35, 35, 35, 36, 39] nonlocal=7 fnv=0x77e9c31cf65924e2", // RIPS-H
    "end=44067 events=417 msgs=355 bytes=6528 hops=703 exec=[11, 10, 10, 12, 9, 10, 7, 5, 8] nonlocal=23 fnv=0x7e10421406286b2f", // RIPS-H
];

#[test]
fn fixed_seed_outcomes_are_bit_for_bit_stable() {
    for (i, (sched, w, nodes, seed)) in cells().into_iter().enumerate() {
        let row = counting_sends(nodes, || run_cell(&registry(), sched, &w, nodes, 0.4, seed));
        let got = fingerprint(&row);
        assert_eq!(
            got, GOLDEN[i],
            "golden mismatch for cell {i} ({sched} on {} / {nodes} nodes / seed {seed})",
            w.name
        );
    }
}

/// RIPS's other local × global policy combinations: the roster runs
/// only the paper's ANY-Lazy, and Eager's RTS queue and ALL's ready
/// tree are per-node state those cells never touch.
fn mode_cells() -> Vec<(&'static str, LocalPolicy, GlobalPolicy)> {
    vec![
        ("Eager-ANY", LocalPolicy::Eager, GlobalPolicy::Any),
        ("Lazy-ALL", LocalPolicy::Lazy, GlobalPolicy::All),
        ("Eager-ALL", LocalPolicy::Eager, GlobalPolicy::All),
        (
            "Lazy-Periodic",
            LocalPolicy::Lazy,
            GlobalPolicy::Periodic(2_000),
        ),
    ]
}

/// One mode cell per workload of the RIPS roster cells: the registry's
/// RIPS row (which runs [`rips_core::rips`]) under the mode's policies.
fn run_mode(
    local: LocalPolicy,
    global: GlobalPolicy,
) -> impl Iterator<Item = (String, (Row, Sent))> {
    let rips = RipsConfig {
        local,
        global,
        ..RipsConfig::default()
    };
    let reg = registry_with(RegistryTuning { rips });
    [(queens9(), 8, 1), (tree(), 9, 3)]
        .into_iter()
        .map(move |(w, nodes, seed)| {
            let row = counting_sends(nodes, || run_cell(&reg, "RIPS", &w, nodes, 0.4, seed));
            (format!("{} / {nodes} nodes", w.name), row)
        })
}

#[rustfmt::skip]
const MODE_GOLDEN: [&str; 8] = [
    "end=30213 events=517 msgs=230 bytes=4016 hops=461 exec=[38, 37, 36, 36, 36, 35, 36, 36] nonlocal=8 fnv=0x4201a9fc1f4806c7", // Eager-ANY
    "end=39691 events=637 msgs=586 bytes=10400 hops=1158 exec=[13, 10, 10, 10, 10, 9, 6, 7, 7] nonlocal=29 fnv=0x2567bc69bd90d3a4", // Eager-ANY
    "end=22468 events=313 msgs=21 bytes=336 hops=44 exec=[38, 39, 34, 34, 34, 34, 39, 38] nonlocal=0 fnv=0x8d2beca37ca68340", // Lazy-ALL
    "end=65536 events=111 msgs=24 bytes=384 hops=52 exec=[42, 2, 1, 17, 14, 6, 0, 0, 0] nonlocal=0 fnv=0xb29393f072fde35b", // Lazy-ALL
    "end=26227 events=332 msgs=47 bytes=1056 hops=94 exec=[37, 37, 36, 36, 36, 36, 36, 36] nonlocal=8 fnv=0xd7a93bd55ece3b07", // Eager-ALL
    "end=37904 events=202 msgs=137 bytes=3072 hops=284 exec=[12, 11, 11, 9, 9, 9, 7, 7, 7] nonlocal=24 fnv=0x6bd88538dadde5d9", // Eager-ALL
    "end=24450 events=336 msgs=33 bytes=688 hops=70 exec=[37, 37, 35, 35, 35, 35, 37, 39] nonlocal=5 fnv=0x74aa7291c20f942a", // Lazy-Periodic
    "end=42244 events=229 msgs=118 bytes=2784 hops=240 exec=[8, 11, 9, 14, 15, 10, 4, 5, 6] nonlocal=26 fnv=0x090c3987f2c5db64", // Lazy-Periodic
];

#[test]
fn rips_policy_modes_are_bit_for_bit_stable() {
    let mut golden = MODE_GOLDEN.iter();
    for (mode, local, global) in mode_cells() {
        for (cell, row) in run_mode(local, global) {
            assert_eq!(
                &fingerprint(&row),
                golden.next().expect("one constant per cell"),
                "golden mismatch for RIPS {mode} on {cell}"
            );
        }
    }
}

/// Table I cells at paper scale, one app per family, as `rips repro
/// table1` runs them: 32 nodes, seed 1, the app's RID factor. RIPS is
/// the paper's subject and Random the baseline every other column is
/// read against; a change that moves any of these numbers moves the
/// published table.
const PAPER_APPS: [App; 3] = [App::Queens(13), App::Ida(2), App::Gromos(8.0)];
const PAPER_SCHEDULERS: [&str; 2] = ["RIPS", "Random"];

/// `app`'s cells under [`PAPER_SCHEDULERS`], in that order.
fn paper_cells(app: App) -> impl Iterator<Item = (&'static str, (Row, Sent))> {
    let w = Arc::new(app.build());
    let reg = registry();
    PAPER_SCHEDULERS.into_iter().map(move |sched| {
        let row = counting_sends(32, || run_cell(&reg, sched, &w, 32, app.rid_u(32), 1));
        (sched, row)
    })
}

#[rustfmt::skip]
const PAPER_GOLDEN: [[&str; 2]; 3] = [
    [
        "end=416755 events=12483 msgs=4909 bytes=92240 hops=19540 exec=[291, 278, 288, 237, 285, 205, 258, 191, 237, 201, 225, 209, 214, 214, 216, 229, 218, 222, 215, 214, 239, 218, 286, 245, 299, 271, 263, 226, 213, 240, 205, 214] nonlocal=255 fnv=0xc1c7d7d180c74232", // RIPS
        "end=456254 events=14295 msgs=6696 bytes=349776 hops=26967 exec=[280, 244, 259, 215, 244, 234, 229, 228, 209, 229, 249, 249, 245, 235, 208, 223, 216, 251, 229, 248, 228, 211, 248, 235, 243, 247, 226, 267, 237, 231, 217, 252] nonlocal=7287 fnv=0x9771d1cb36382925", // Random
    ],
    [
        "end=4071389 events=39618 msgs=34399 bytes=570400 hops=137310 exec=[181, 178, 183, 186, 163, 165, 144, 159, 172, 169, 181, 171, 179, 178, 176, 175, 179, 177, 172, 171, 180, 179, 182, 167, 181, 167, 181, 183, 176, 164, 153, 156] nonlocal=470 fnv=0xc930b4cf32185653", // RIPS
        "end=3893833 events=9478 msgs=3907 bytes=253696 hops=15377 exec=[192, 164, 179, 155, 173, 151, 167, 177, 152, 220, 196, 175, 188, 189, 156, 146, 146, 191, 158, 173, 176, 148, 175, 170, 174, 182, 166, 195, 182, 175, 151, 186] nonlocal=5182 fnv=0x5d9724d044aca625", // Random
    ],
    [
        "end=2181470 events=25715 msgs=10855 bytes=276416 hops=43473 exec=[300, 299, 303, 304, 309, 310, 315, 305, 310, 326, 316, 327, 308, 540, 542, 544, 578, 543, 560, 552, 570, 565, 569, 567, 574, 566, 572, 585, 596, 602, 633, 668] nonlocal=2078 fnv=0xd0a921f711c62f93", // RIPS
        "end=2873038 events=17948 msgs=2955 bytes=679760 hops=11818 exec=[494, 455, 465, 466, 463, 451, 456, 458, 433, 433, 456, 458, 464, 462, 435, 444, 440, 499, 454, 461, 435, 408, 459, 461, 506, 496, 460, 808, 429, 444, 439, 466] nonlocal=14141 fnv=0x193e57dc437e1c21", // Random
    ],
];

/// Runs [`PAPER_APPS`]`[i]`'s cells against [`PAPER_GOLDEN`]`[i]`.
fn paper_cells_are_pinned(i: usize) {
    let app = PAPER_APPS[i];
    for ((sched, row), want) in paper_cells(app).zip(PAPER_GOLDEN[i]) {
        assert_eq!(
            fingerprint(&row),
            want,
            "golden mismatch for {sched} on {app:?} / 32 nodes / seed 1"
        );
    }
}

#[test]
fn queens13_on_32_nodes_is_pinned() {
    paper_cells_are_pinned(0);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: IDA* #2 on 32 nodes")]
fn ida2_on_32_nodes_is_pinned() {
    paper_cells_are_pinned(1);
}

#[test]
fn gromos8_on_32_nodes_is_pinned() {
    paper_cells_are_pinned(2);
}

/// Every scheduler in the canonical registry must be pinned by at
/// least one golden cell — registering a scheduler without freezing
/// its behaviour is how silent drift starts.
#[test]
fn every_registry_entry_has_a_golden_cell() {
    let pinned: Vec<&str> = cells().iter().map(|&(s, ..)| s).collect();
    for name in rips_bench::registry().names() {
        assert!(
            pinned.contains(&name),
            "scheduler {name:?} is registered but has no golden cell"
        );
    }
}

/// The guarantee the simulated serve fleet's run reuse rests on: only
/// Random reads its seed, and a run that never reads it is the same
/// run, outcome and phase log, under another seed.
#[test]
fn only_random_reads_its_seed_and_a_seed_free_run_ignores_it() {
    let reg = registry();
    for name in reg.names() {
        for (w, nodes) in [(queens9(), 8), (tree(), 9)] {
            let [a, b] = [1, 0x5eed_0002].map(|seed| run_cell(&reg, name, &w, nodes, 0.4, seed));
            let cell = format!("{name} on {} / {nodes} nodes", w.name);
            assert_eq!(a.outcome.stats.seed_read, name == "Random", "{cell}");
            assert_eq!(b.outcome.stats.seed_read, name == "Random", "{cell}");
            if !a.outcome.stats.seed_read {
                assert_eq!(a.outcome, b.outcome, "{cell}: the seed moved the outcome");
                assert_eq!(a.phases, b.phases, "{cell}: the seed moved the phase log");
            }
        }
    }
}

/// Regeneration helper — prints the constants for `GOLDEN`,
/// `MODE_GOLDEN` and `PAPER_GOLDEN` (IDA\* #2's cells are quicker with
/// `--release`).
#[test]
#[ignore = "generator: run with --ignored --nocapture to reprint goldens"]
fn print_goldens() {
    for (sched, w, nodes, seed) in cells() {
        let row = counting_sends(nodes, || run_cell(&registry(), sched, &w, nodes, 0.4, seed));
        println!("    \"{}\", // {sched}", fingerprint(&row));
    }
    for (mode, local, global) in mode_cells() {
        for (_, row) in run_mode(local, global) {
            println!("    \"{}\", // {mode}", fingerprint(&row));
        }
    }
    for app in PAPER_APPS {
        println!("{app:?}");
        for (sched, row) in paper_cells(app) {
            println!("    \"{}\", // {sched}", fingerprint(&row));
        }
    }
}
