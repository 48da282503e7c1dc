//! The paper-scale workloads pinned by digest: every round's roots,
//! grains and child lists, plus the grain table's `static_totals()`,
//! folded into one FNV-1a hash per catalog entry.
//!
//! The builders may get faster; what they build may not change. A
//! builder change that alters any task, edge, grain or ground-truth
//! total fails here; for GROMOS that covers the pair search over
//! z-sorted columns at all three of the paper's cutoffs. queens15 and
//! ida2 take seconds even in release, so the debug test run skips
//! them; `cargo test --release` runs them.

use rips_apps::{
    gromos_with_grains, nqueens_with_grains, puzzle_with_grains, GrainTable, GromosConfig,
    NQueensConfig, PuzzleConfig,
};
use rips_taskgraph::Workload;

/// FNV-1a over the little-endian bytes of a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Each round's length, roots, grains and child lists (length-prefixed,
/// so no two shapes share a stream), then the totals.
fn digest((w, table): (Workload, GrainTable)) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(w.rounds.len() as u64);
    for f in &w.rounds {
        h.word(f.len() as u64);
        h.word(f.roots().len() as u64);
        for r in f.roots() {
            h.word(u64::from(r));
        }
        for id in 0..f.len() as u32 {
            h.word(f.grain(id));
            h.word(f.children(id).len() as u64);
            for &c in f.children(id) {
                h.word(u64::from(c));
            }
        }
    }
    let totals = table.static_totals();
    h.word(totals.checksum);
    h.word(totals.solutions);
    h.0
}

/// N-Queens as the catalog splits a paper board (depth 4, roots at 2).
fn queens(n: u32) -> u64 {
    digest(nqueens_with_grains(NQueensConfig::paper(n)))
}

fn ida(config: u32) -> u64 {
    digest(puzzle_with_grains(PuzzleConfig::paper(config)))
}

#[test]
fn queens13_is_pinned() {
    assert_eq!(queens(13), 0xced9_67ab_4c44_9496);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: a 15-queens search")]
fn queens15_is_pinned() {
    assert_eq!(queens(15), 0xedc4_e8a5_171a_c89f);
}

#[test]
fn ida1_is_pinned() {
    assert_eq!(ida(1), 0xa19d_e4d2_47c3_d634);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: IDA* #2's heavy iterations")]
fn ida2_is_pinned() {
    assert_eq!(ida(2), 0xd59c_fc3f_2606_f864);
}

#[test]
fn ida3_is_pinned() {
    assert_eq!(ida(3), 0xdbd3_d829_eb81_91a2);
}

#[test]
fn gromos16_is_pinned() {
    assert_eq!(
        digest(gromos_with_grains(GromosConfig::paper(16.0))),
        0x1ee9_8d32_01b2_1764
    );
}

#[test]
fn gromos8_is_pinned() {
    assert_eq!(
        digest(gromos_with_grains(GromosConfig::paper(8.0))),
        0x824e_06d8_8942_d3d5
    );
}

#[test]
fn gromos12_is_pinned() {
    assert_eq!(
        digest(gromos_with_grains(GromosConfig::paper(12.0))),
        0xec07_d729_5324_4bdb
    );
}
