//! Iterative-deepening A\* on the 15-puzzle (Korf 1985), and its
//! per-iteration task decomposition.
//!
//! Each IDA\* iteration deepens the cost threshold; the paper runs the
//! iterations with a global synchronisation, which is why the 15-puzzle
//! rounds map onto [`Workload`] rounds. Within an iteration, tasks are
//! the frontier states at a small expansion depth; a task's grain is
//! the *measured* node count of its threshold-bounded DFS. "The grain
//! size may vary substantially, since it dynamically depends on the
//! currently estimated cost."

use crate::live::{puzzle_out, GrainOut, GrainSpec, GrainTable};
use crate::{grain_us, host_workers, WorkersFor};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rips_taskgraph::{par_map_with, TaskForest, Workload};

/// Parameters for the 15-puzzle IDA\* workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PuzzleConfig {
    /// Length of the random scramble applied to the goal state
    /// (guarantees solvability); longer ⇒ harder.
    pub scramble_len: u32,
    /// Scramble RNG seed.
    pub seed: u64,
    /// Frontier expansion keeps splitting until at least this many
    /// tasks exist (or the frontier depth cap is hit).
    pub min_tasks: usize,
    /// Virtual nanoseconds per expanded node.
    pub ns_per_node: u64,
    /// Adaptive splitting: within an iteration, any frontier subtree
    /// whose measured node count exceeds
    /// `max(iteration_total / split_divisor, split_floor_nodes)` is
    /// replaced by its children (recursively). Parallel IDA\*
    /// implementations do exactly this with the previous iteration's
    /// counts; without it a single monster subtree gates the whole
    /// machine.
    pub split_divisor: u64,
    /// Absolute node-count floor below which tasks are never split.
    pub split_floor_nodes: u64,
}

impl PuzzleConfig {
    /// The paper's "three different configurations" of increasing
    /// difficulty (config #3 is by far the largest, as in Table I).
    pub fn paper(config: u32) -> Self {
        // Seeds selected in EXPERIMENTS.md. What they build, as
        // `rips run --app ida{1,2,3}` prints it: #1 = 1 940 tasks,
        // Ts 0.02 s; #2 = 5 528 tasks, Ts 67.35 s; #3 = 15 428 tasks,
        // Ts 0.25 s. So #3 has the paper's many-task shape (its
        // config #3 has 29 046) but only ≈ 16 µs of work per task,
        // and #2, not #3, is the heavy instance — unlike the paper,
        // whose #3 dominates Table I's IDA* rows.
        let (seed, min_tasks) = match config {
            1 => (5, 256),
            2 => (10, 256),
            3 => (9, 2048),
            _ => panic!("the paper has configurations 1..=3"),
        };
        PuzzleConfig {
            scramble_len: 100,
            seed,
            min_tasks,
            ns_per_node: 1500,
            split_divisor: 1024,
            split_floor_nodes: 20_000,
        }
    }
}

/// A 15-puzzle position: `cells[i]` is the tile at square `i` (0 =
/// blank). Goal: `1..=15` then blank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Board {
    cells: [u8; 16],
    blank: u8,
}

const GOAL: [u8; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0];

/// `MD[tile][sq]`: Manhattan distance from square `sq` to `tile`'s
/// home square (row 0, the blank, is all zero).
const MD: [[u8; 16]; 16] = {
    let mut md = [[0u8; 16]; 16];
    let mut tile = 1;
    while tile < 16 {
        let home = tile - 1;
        let mut sq = 0;
        while sq < 16 {
            md[tile][sq] = ((sq / 4).abs_diff(home / 4) + (sq % 4).abs_diff(home % 4)) as u8;
            sq += 1;
        }
        tile += 1;
    }
    md
};

/// The four slide directions, encoded as blank-index deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
    Left,
    Right,
}

const DIRS: [Dir; 4] = [Dir::Up, Dir::Down, Dir::Left, Dir::Right];

impl Dir {
    /// Index into [`DIRS`] — the encoding grain specs store.
    fn index(self) -> u8 {
        match self {
            Dir::Up => 0,
            Dir::Down => 1,
            Dir::Left => 2,
            Dir::Right => 3,
        }
    }

    fn opposite(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
            Dir::Left => Dir::Right,
            Dir::Right => Dir::Left,
        }
    }
}

impl Board {
    /// The solved position.
    pub fn goal() -> Self {
        Board {
            cells: GOAL,
            blank: 15,
        }
    }

    /// `true` if solved.
    pub fn is_goal(&self) -> bool {
        self.cells == GOAL
    }

    /// Applies a slide if legal, returning the successor.
    fn slide(&self, dir: Dir) -> Option<Board> {
        let (r, c) = (self.blank / 4, self.blank % 4);
        let target = match dir {
            Dir::Up if r > 0 => self.blank - 4,
            Dir::Down if r < 3 => self.blank + 4,
            Dir::Left if c > 0 => self.blank - 1,
            Dir::Right if c < 3 => self.blank + 1,
            _ => return None,
        };
        let mut next = *self;
        next.cells[next.blank as usize] = next.cells[target as usize];
        next.cells[target as usize] = 0;
        next.blank = target;
        Some(next)
    }

    /// [`slide`](Board::slide) carrying the heuristic along: a slide
    /// moves one tile, so the successor's Manhattan sum is `h` less
    /// that tile's distance where it was plus its distance where it
    /// lands — O(1), not a 16-square rescan. `h` must be this board's
    /// [`manhattan`](Board::manhattan).
    fn slide_h(&self, dir: Dir, h: u32) -> Option<(Board, u32)> {
        let next = self.slide(dir)?;
        // The moved tile went from the new blank square to the old one.
        let md = &MD[next.cells[self.blank as usize] as usize];
        let landed = u32::from(md[self.blank as usize]);
        let left = u32::from(md[next.blank as usize]);
        Some((next, h + landed - left))
    }

    /// Sum of Manhattan distances of all tiles to their home squares —
    /// the admissible heuristic Korf's IDA\* uses.
    pub fn manhattan(&self) -> u32 {
        let mut h = 0u32;
        for (sq, &tile) in self.cells.iter().enumerate() {
            if tile != 0 {
                let home = (tile - 1) as usize;
                let dr = (sq / 4).abs_diff(home / 4);
                let dc = (sq % 4).abs_diff(home % 4);
                h += (dr + dc) as u32;
            }
        }
        h
    }

    /// Scrambles the goal with `len` random moves (never undoing the
    /// previous move), deterministic under `seed`.
    pub fn scrambled(len: u32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = Board::goal();
        let mut last: Option<Dir> = None;
        let mut made = 0;
        while made < len {
            let dir = DIRS[rng.random_range(0..4)];
            if Some(dir.opposite()) == last {
                continue;
            }
            if let Some(next) = b.slide(dir) {
                b = next;
                last = Some(dir);
                made += 1;
            }
        }
        b
    }
}

/// All successor positions of `board` (one slide each). Exposed for
/// cross-validation against reference searches.
pub fn successors(board: &Board) -> Vec<Board> {
    DIRS.iter().filter_map(|&d| board.slide(d)).collect()
}

/// What a recording DFS keeps of one child of a node it expanded:
/// the child's node count and smallest exceeded `f`, and where the
/// child's own children's records start in the arena ([`UNRECORDED`]
/// if the child expanded too few nodes to be kept).
#[derive(Debug, Clone, Copy, Default)]
struct Kid {
    nodes: u64,
    exceed: u32,
    at: u32,
}

/// The arena position of an expansion that was not recorded.
const UNRECORDED: u32 = u32::MAX;

/// A recording DFS's records: for every node whose subtree expanded
/// more than `floor` nodes, its children's [`Kid`]s, in move order, as
/// one contiguous run. A node's run follows its children's (post-order),
/// and the run's length is the node's number of successors.
struct Arena {
    floor: u64,
    kids: Vec<Kid>,
}

impl Arena {
    fn new(floor: u64) -> Arena {
        Arena {
            floor,
            kids: Vec::new(),
        }
    }

    /// Appends one node's children, returning where they start.
    fn push(&mut self, kids: &[Kid]) -> u32 {
        let at = u32::try_from(self.kids.len()).expect("arena too large");
        self.kids.extend_from_slice(kids);
        at
    }
}

/// Bounded DFS of one IDA\* iteration from `board` (whose Manhattan
/// sum is `h`) at depth `g` with the given threshold. Returns
/// `(min_exceeded_f, found, at)` and counts expanded nodes into
/// `nodes`; stops early when the goal is found (like the sequential
/// reference the paper compares against). With `RECORD`, a node that
/// expanded more than `arena.floor` nodes without finding the goal
/// appends its children's records and returns their position as
/// `at`; without, nothing is kept and `at` is [`UNRECORDED`].
fn bounded_dfs<const RECORD: bool>(
    board: &Board,
    g: u32,
    h: u32,
    threshold: u32,
    last: Option<Dir>,
    nodes: &mut u64,
    arena: &mut Arena,
) -> (u32, bool, u32) {
    let f = g + h;
    if f > threshold {
        return (f, false, UNRECORDED);
    }
    // Every tile home puts the blank home too.
    if h == 0 {
        return (f, true, UNRECORDED);
    }
    let before = *nodes;
    *nodes += 1;
    let mut kids = [Kid::default(); 4];
    let mut expanded = 0;
    let mut min_exceed = u32::MAX;
    for dir in DIRS {
        if Some(dir.opposite()) == last {
            continue;
        }
        if let Some((next, h)) = board.slide_h(dir, h) {
            let under = *nodes;
            let (exceed, found, at) =
                bounded_dfs::<RECORD>(&next, g + 1, h, threshold, Some(dir), nodes, arena);
            if found {
                return (exceed, true, UNRECORDED);
            }
            if RECORD {
                kids[expanded] = Kid {
                    nodes: *nodes - under,
                    exceed,
                    at,
                };
                expanded += 1;
            }
            min_exceed = min_exceed.min(exceed);
        }
    }
    let at = if RECORD && *nodes - before > arena.floor {
        arena.push(&kids[..expanded])
    } else {
        UNRECORDED
    };
    (min_exceed, false, at)
}

/// What one threshold-bounded DFS measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Measured {
    /// Nodes expanded: the task's grain.
    pub nodes: u64,
    /// Smallest `f` that exceeded the threshold (the next iteration's
    /// threshold candidate).
    pub exceed: u32,
    /// Whether the goal was reached.
    pub found: bool,
}

/// One bounded DFS from `board` at depth `g`, arriving by `last`;
/// with `RECORD`, into `arena`, returning where the root's children's
/// records start.
fn search<const RECORD: bool>(
    board: &Board,
    g: u32,
    threshold: u32,
    last: Option<Dir>,
    arena: &mut Arena,
) -> (Measured, u32) {
    let mut nodes = 0u64;
    let h = board.manhattan();
    let (exceed, found, at) =
        bounded_dfs::<RECORD>(board, g, h, threshold, last, &mut nodes, arena);
    let m = Measured {
        nodes,
        exceed,
        found,
    };
    (m, at)
}

/// [`search`] with nothing to record.
fn measure(board: &Board, g: u32, threshold: u32, last: Option<Dir>) -> Measured {
    search::<false>(board, g, threshold, last, &mut Arena::new(u64::MAX)).0
}

/// Solves `board` by sequential IDA\*, returning `(optimal_length,
/// thresholds, nodes_per_iteration)`.
pub fn ida_star(board: &Board) -> (u32, Vec<u32>, Vec<u64>) {
    let mut threshold = board.manhattan();
    let mut thresholds = Vec::new();
    let mut nodes_per_iter = Vec::new();
    loop {
        thresholds.push(threshold);
        let m = measure(board, 0, threshold, None);
        nodes_per_iter.push(m.nodes);
        if m.found {
            return (threshold, thresholds, nodes_per_iter);
        }
        assert!(m.exceed > threshold, "IDA* failed to make progress");
        threshold = m.exceed;
    }
}

/// Runs one task's bounded DFS for live execution: `last` is a
/// direction index as stored in [`GrainSpec::PuzzleDfs`].
pub(crate) fn run_bounded(board: &Board, g: u32, threshold: u32, last: Option<u8>) -> Measured {
    measure(board, g, threshold, last.map(|i| DIRS[i as usize]))
}

/// A frontier entry: a state, its depth, and the move that reached it.
#[derive(Clone, Copy)]
struct Frontier {
    board: Board,
    g: u32,
    last: Option<Dir>,
}

impl Frontier {
    /// Legal successors (excluding the reverse of the arriving move).
    fn children(&self) -> Vec<Frontier> {
        let mut out = Vec::with_capacity(3);
        for dir in DIRS {
            if Some(dir.opposite()) == self.last {
                continue;
            }
            if let Some(b) = self.board.slide(dir) {
                out.push(Frontier {
                    board: b,
                    g: self.g + 1,
                    last: Some(dir),
                });
            }
        }
        out
    }
}

/// Expands the root into at least `min_tasks` frontier states (or until
/// depth 12), breadth-first without duplicate detection — the same
/// state tree a parallel IDA\* would partition.
fn expand_frontier(start: &Board, min_tasks: usize) -> Vec<Frontier> {
    let mut frontier = vec![Frontier {
        board: *start,
        g: 0,
        last: None,
    }];
    let mut depth = 0;
    while frontier.len() < min_tasks && depth < 12 {
        frontier = frontier.iter().flat_map(Frontier::children).collect();
        depth += 1;
    }
    frontier
}

/// Below this many nodes an iteration's frontier is searched on the
/// calling thread. The estimate is built from what the builder already
/// holds: the previous iteration's node total times
/// [`ITERATION_GROWTH`] (the first iteration, and every iteration of a
/// catalog-sized scramble, stays inline). 50 000 nodes are about four
/// milliseconds of search (70–90 ns a node, one core of a 2-vCPU x86
/// host).
const SPREAD_MIN_NODES: u64 = 50_000;

/// How much larger an IDA\* iteration's search is than the one before
/// it, roughly: the next iteration's pool is sized for the previous
/// total times this.
const ITERATION_GROWTH: u64 = 6;

/// Builds the IDA\* workload: one round per iteration, flat tasks per
/// frontier subtree (adaptively split so no subtree dominates the
/// iteration), grains measured by the threshold-bounded DFS.
pub fn puzzle(cfg: PuzzleConfig) -> Workload {
    puzzle_with_grains(cfg).0
}

/// Like [`puzzle`], but also returns the [`GrainTable`] mapping each
/// task to its bounded DFS, for live execution.
pub fn puzzle_with_grains(cfg: PuzzleConfig) -> (Workload, GrainTable) {
    build(cfg, &|nodes| host_workers(nodes, SPREAD_MIN_NODES))
}

/// The builder proper; `workers_for` maps an iteration's estimated
/// nodes to the pool size its frontier is searched on.
pub(crate) fn build(cfg: PuzzleConfig, workers_for: WorkersFor) -> (Workload, GrainTable) {
    assert!(cfg.split_divisor > 0, "zero split divisor");
    let start = Board::scrambled(cfg.scramble_len, cfg.seed);
    let frontier = expand_frontier(&start, cfg.min_tasks);
    let mut rounds = Vec::new();
    let mut spec_rounds = Vec::new();
    let mut totals = GrainOut::default();
    let mut threshold = start.manhattan();
    let mut prev_total = 0u64;
    loop {
        // One DFS per frontier subtree, on the pool. Any subtree whose
        // node count exceeds `max(total / split_divisor,
        // split_floor_nodes)` is then replaced by its children,
        // recursively (goal-carrying subtrees are kept whole — they end
        // the search). A split subtree expanded more than the floor,
        // so its DFS recorded its children's counts: the split reads
        // them and searches nothing again.
        let floor = cfg.split_floor_nodes;
        let estimate = prev_total.saturating_mul(ITERATION_GROWTH);
        let base = par_map_with(workers_for(estimate), &frontier, |f| {
            let mut arena = Arena::new(floor);
            let (m, at) = search::<true>(&f.board, f.g, threshold, f.last, &mut arena);
            (m, arena.kids, at)
        });
        let base_nodes: u64 = base.iter().map(|(m, ..)| m.nodes).sum();
        let split_at = (base_nodes / cfg.split_divisor).max(floor);
        // Task order: a stack seeded with the base frontier, a split
        // subtree replaced on the stack by its children.
        let mut forest = TaskForest::new();
        let mut specs = Vec::new();
        let mut next_threshold = u32::MAX;
        let mut found = false;
        let mut stack: Vec<_> = (frontier.iter().zip(&base))
            .map(|(f, (m, arena, at))| (*f, *m, &arena[..], *at))
            .collect();
        while let Some((f, m, arena, at)) = stack.pop() {
            if !m.found && m.nodes > split_at {
                let kids = &arena[at as usize..];
                stack.extend(f.children().into_iter().zip(kids).map(|(c, k)| {
                    let m = Measured {
                        nodes: k.nodes,
                        exceed: k.exceed,
                        found: false,
                    };
                    (c, m, arena, k.at)
                }));
                continue;
            }
            forest.add_root(grain_us(m.nodes, cfg.ns_per_node));
            specs.push(GrainSpec::PuzzleDfs {
                board: f.board,
                g: f.g,
                last: f.last.map(Dir::index),
                threshold,
            });
            totals = totals.plus(puzzle_out(&m));
            if m.found {
                found = true;
            } else {
                next_threshold = next_threshold.min(m.exceed);
            }
        }
        prev_total = base_nodes;
        rounds.push(forest);
        spec_rounds.push(specs);
        if found {
            break;
        }
        assert!(
            next_threshold > threshold && next_threshold != u32::MAX,
            "IDA* stalled"
        );
        threshold = next_threshold;
    }
    let w = Workload {
        name: format!("15-puzzle scramble={} seed={}", cfg.scramble_len, cfg.seed),
        rounds,
    };
    debug_assert!(w.validate().is_ok());
    (w, GrainTable::seeded(spec_rounds, totals))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn goal_has_zero_heuristic() {
        assert_eq!(Board::goal().manhattan(), 0);
        assert!(Board::goal().is_goal());
    }

    #[test]
    fn manhattan_is_admissible_on_scrambles() {
        // h(scramble of length L) ≤ L for all L (each move changes h
        // by exactly 1).
        for len in [1, 5, 12, 20] {
            let b = Board::scrambled(len, 99);
            assert!(b.manhattan() <= len, "h > moves for len={len}");
        }
    }

    #[test]
    fn ida_star_solves_short_scrambles_optimally() {
        // For short scrambles the optimal length has the same parity
        // as, and is at most, the scramble length.
        for (len, seed) in [(6u32, 1), (10, 2), (14, 3)] {
            let b = Board::scrambled(len, seed);
            let (opt, thresholds, nodes) = ida_star(&b);
            assert!(opt <= len);
            assert_eq!(opt % 2, len % 2, "parity must match");
            assert!(thresholds.windows(2).all(|w| w[1] > w[0]));
            assert_eq!(thresholds.len(), nodes.len());
        }
    }

    #[test]
    fn incremental_heuristic_tracks_manhattan_along_random_walks() {
        for seed in 0..32 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut board = Board::scrambled(seed as u32, seed);
            let mut h = board.manhattan();
            for _ in 0..200 {
                let dir = DIRS[rng.random_range(0..4)];
                if let Some((next, next_h)) = board.slide_h(dir, h) {
                    assert_eq!(Some(next), board.slide(dir));
                    assert_eq!(next_h, next.manhattan(), "seed {seed}: {next:?}");
                    (board, h) = (next, next_h);
                }
            }
        }
        // The DFS's goal test is `h == 0`.
        assert_eq!(Board::goal().manhattan(), 0);
        assert!(successors(&Board::goal())
            .iter()
            .all(|b| b.manhattan() == 1));
    }

    #[test]
    fn slide_roundtrip() {
        let b = Board::goal();
        let up = b.slide(Dir::Up).unwrap();
        assert_eq!(up.slide(Dir::Down).unwrap(), b);
        // Blank in the corner: right/down illegal.
        assert!(b.slide(Dir::Right).is_none());
        assert!(b.slide(Dir::Down).is_none());
    }

    #[test]
    fn workload_rounds_match_iterations() {
        let cfg = PuzzleConfig {
            scramble_len: 14,
            seed: 5,
            min_tasks: 16,
            ns_per_node: 1000,
            split_divisor: 1024,
            split_floor_nodes: 20_000,
        };
        let w = puzzle(cfg);
        let start = Board::scrambled(14, 5);
        let (_, thresholds, _) = ida_star(&start);
        assert_eq!(w.rounds.len(), thresholds.len());
        assert!(w.rounds.iter().all(|r| r.len() >= 16));
    }

    #[test]
    fn frontier_tasks_cover_iteration_work() {
        // Σ frontier-task nodes ≈ sequential iteration nodes (small
        // differences: the frontier skips the first few shared levels,
        // and early termination differs) — check the totals are the
        // same order of magnitude for a non-final iteration.
        let b = Board::scrambled(16, 8);
        let (_, thresholds, nodes) = ida_star(&b);
        if thresholds.len() < 2 {
            return; // degenerate scramble; nothing to compare
        }
        let frontier = expand_frontier(&b, 16);
        let t0 = thresholds[0];
        let mut task_total = 0u64;
        for f in &frontier {
            task_total += measure(&f.board, f.g, t0, f.last).nodes;
        }
        // The tree-BFS frontier duplicates transpositions, so the task
        // total can exceed the sequential count; it must be at least
        // the sequential count minus the shared prefix and within a
        // small factor of it.
        assert!(
            task_total + 100 >= nodes[0] / 4,
            "{task_total} vs {}",
            nodes[0]
        );
        assert!(task_total <= nodes[0].max(100) * 10);
    }

    #[test]
    fn adaptive_splitting_bounds_monster_tasks() {
        // With splitting enabled, no task's grain may exceed the split
        // threshold by more than one expansion level (a child can be at
        // most the whole parent).
        let cfg = DEEP_SPLIT;
        let w = puzzle(cfg);
        for (i, round) in w.rounds.iter().enumerate() {
            let total = round.total_work_us();
            let threshold = (total / cfg.split_divisor).max(cfg.split_floor_nodes);
            let max = round.max_grain_us();
            assert!(
                max <= threshold * 4,
                "round {i}: max grain {max} vs threshold {threshold}"
            );
        }
    }

    /// A scramble whose low split floor cuts subtrees up to five
    /// waves below the base frontier.
    pub(crate) const DEEP_SPLIT: PuzzleConfig = PuzzleConfig {
        scramble_len: 30,
        seed: 4,
        min_tasks: 16,
        ns_per_node: 1000, // grain µs == node count
        split_divisor: 64,
        split_floor_nodes: 500,
    };

    #[test]
    fn every_split_grain_is_its_own_specs_dfs() {
        // The builder never searches a split child; its spec, run here,
        // must expand the nodes its parent's DFS recorded for it.
        let cfg = DEEP_SPLIT;
        let (w, table) = puzzle_with_grains(cfg);
        let start = Board::scrambled(cfg.scramble_len, cfg.seed);
        let base_depth = expand_frontier(&start, cfg.min_tasks)[0].g;
        let mut waves = 0;
        for (r, forest) in (0u32..).zip(&w.rounds) {
            for id in 0..forest.len() as u32 {
                let GrainSpec::PuzzleDfs {
                    ref board,
                    g,
                    last,
                    threshold,
                } = *table.spec(r, id)
                else {
                    panic!("round {r} task {id} is not a 15-puzzle DFS");
                };
                let m = run_bounded(board, g, threshold, last);
                assert_eq!(forest.grain(id), m.nodes.max(1), "round {r} task {id}");
                waves = waves.max(g - base_depth);
            }
        }
        assert!(waves >= 3, "split only {waves} waves deep");
    }

    #[test]
    fn splitting_disabled_by_huge_floor() {
        // A floor larger than any subtree disables splitting entirely:
        // the task count per round equals the base frontier size.
        let base = PuzzleConfig {
            scramble_len: 20,
            seed: 3,
            min_tasks: 8,
            ns_per_node: 1000,
            split_divisor: 1024,
            split_floor_nodes: u64::MAX,
        };
        let w = puzzle(base);
        let sizes: Vec<usize> = w.rounds.iter().map(|r| r.len()).collect();
        assert!(sizes.windows(2).all(|p| p[0] == p[1]), "{sizes:?}");
    }

    #[test]
    fn deterministic_workload() {
        let cfg = PuzzleConfig {
            scramble_len: 12,
            seed: 7,
            min_tasks: 8,
            ns_per_node: 500,
            split_divisor: 1024,
            split_floor_nodes: 20_000,
        };
        assert_eq!(puzzle(cfg), puzzle(cfg));
    }
}
