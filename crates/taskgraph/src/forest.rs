//! Task forests and workloads.

/// Index of a task within its [`TaskForest`].
pub type TaskId = u32;

/// A forest of dynamically generated tasks: the roots are available at
/// the start of the round; children appear as their parents complete.
///
/// A task is its id: its grain is one entry of a dense array, and its
/// children ("newly generated" tasks) are a list kept only up to the
/// highest id that has any. The root ids are listed only once some task
/// is not a root. A roots-only forest therefore costs 4 B per task and
/// nothing else: no root list, no child list.
///
/// Grains are stored as `u32` µs (71 minutes; the largest grain any
/// paper application builds is ida2's 1.15 s) and read back as `u64`.
/// A grain past `u32::MAX` panics where it is added, never wraps.
///
/// ```
/// use rips_taskgraph::TaskForest;
///
/// let mut f = TaskForest::new();
/// let root = f.add_root(100);
/// let child = f.add_child(root, 250);
/// assert_eq!(f.children(root), [child]);
/// assert_eq!(f.grain(child), 250);
/// assert_eq!(f.total_work_us(), 350);
/// assert_eq!(f.critical_path_us(), 350); // chain: root then child
/// assert!(f.validate().is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskForest {
    /// Execution time of each task on whichever node runs it (virtual
    /// µs), indexed by id.
    grains: Vec<u32>,
    /// Root ids in the order they were added; empty while every task is
    /// a root, whose ids are then `0..len`.
    roots: Vec<TaskId>,
    /// Tasks released when task `id` completes, for every id up to the
    /// highest parent; ids past the end have none.
    children: Vec<Vec<TaskId>>,
}

impl TaskForest {
    /// Empty forest.
    pub fn new() -> Self {
        TaskForest::default()
    }

    /// A forest of independent root tasks with these grains, in id
    /// order: the forest `add_root` builds from them one by one, its
    /// grains allocated once at their final size. Each grain is
    /// narrowed as it is collected, so no `u64` copy is ever held.
    ///
    /// # Panics
    /// Panics if a grain is past `u32::MAX` µs.
    pub fn flat(grains: impl IntoIterator<Item = u64>) -> Self {
        let grains: Vec<u32> = grains.into_iter().map(narrow_grain).collect();
        assert!(u32::try_from(grains.len()).is_ok(), "forest too large");
        TaskForest {
            grains,
            roots: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds a root task, returning its id.
    ///
    /// # Panics
    /// Panics if `grain_us` is past `u32::MAX`.
    pub fn add_root(&mut self, grain_us: u64) -> TaskId {
        let id = self.push(grain_us);
        if !self.roots.is_empty() {
            self.roots.push(id);
        }
        id
    }

    /// Adds a task released by `parent`'s completion.
    ///
    /// # Panics
    /// Panics if `parent` does not exist or `grain_us` is past
    /// `u32::MAX`.
    pub fn add_child(&mut self, parent: TaskId, grain_us: u64) -> TaskId {
        let parent = parent as usize;
        assert!(parent < self.grains.len(), "no such parent");
        if self.roots.is_empty() {
            // Every task so far is a root; from here on they are listed.
            self.roots = self.ids().collect();
        }
        let id = self.push(grain_us);
        if self.children.len() <= parent {
            self.children.resize_with(parent + 1, Vec::new);
        }
        self.children[parent].push(id);
        id
    }

    fn push(&mut self, grain_us: u64) -> TaskId {
        let id = u32::try_from(self.grains.len()).expect("forest too large");
        self.grains.push(narrow_grain(grain_us));
        id
    }

    /// Execution time of task `id` (virtual µs).
    pub fn grain(&self, id: TaskId) -> u64 {
        u64::from(self.grains[id as usize])
    }

    /// Tasks released when task `id` completes.
    pub fn children(&self, id: TaskId) -> &[TaskId] {
        self.children.get(id as usize).map_or(&[], Vec::as_slice)
    }

    /// Root tasks available at round start, in the order they were
    /// added. Skipping ahead (`nth`, `skip`) costs O(1).
    pub fn roots(&self) -> impl ExactSizeIterator<Item = TaskId> + '_ {
        if self.roots.is_empty() {
            Roots::All(self.ids())
        } else {
            Roots::Listed(self.roots.iter())
        }
    }

    /// Every task id, `0..len`.
    fn ids(&self) -> std::ops::Range<TaskId> {
        0..u32::try_from(self.len()).expect("forest too large")
    }

    /// Number of tasks in the forest.
    pub fn len(&self) -> usize {
        self.grains.len()
    }

    /// `true` when the forest holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.grains.is_empty()
    }

    /// Total work (Σ grains) in µs.
    pub fn total_work_us(&self) -> u64 {
        self.grains.iter().map(|&g| u64::from(g)).sum()
    }

    /// Largest single grain in µs.
    pub fn max_grain_us(&self) -> u64 {
        self.grains.iter().copied().max().map_or(0, u64::from)
    }

    /// Length (in µs) of the longest dependency chain: a lower bound on
    /// any schedule's makespan regardless of processor count.
    pub fn critical_path_us(&self) -> u64 {
        let mut memo = vec![u64::MAX; self.len()];
        fn depth(forest: &TaskForest, id: TaskId, memo: &mut [u64]) -> u64 {
            if memo[id as usize] != u64::MAX {
                return memo[id as usize];
            }
            let below = forest
                .children(id)
                .iter()
                .map(|&c| depth(forest, c, memo))
                .max()
                .unwrap_or(0);
            memo[id as usize] = forest.grain(id) + below;
            memo[id as usize]
        }
        self.roots()
            .map(|r| depth(self, r, &mut memo))
            .max()
            .unwrap_or(0)
    }

    /// Checks the forest is a true forest: every non-root task has
    /// exactly one parent and no task is reachable twice.
    pub fn validate(&self) -> Result<(), String> {
        let mut indegree = vec![0u32; self.len()];
        for &c in self.children.iter().flatten() {
            if c as usize >= self.len() {
                return Err(format!("dangling child id {c}"));
            }
            indegree[c as usize] += 1;
        }
        for r in self.roots() {
            if indegree[r as usize] != 0 {
                return Err(format!("root {r} has a parent"));
            }
        }
        let mut root_set = vec![false; self.len()];
        for r in self.roots() {
            if std::mem::replace(&mut root_set[r as usize], true) {
                return Err(format!("duplicate root {r}"));
            }
        }
        for (id, &deg) in indegree.iter().enumerate() {
            if deg > 1 {
                return Err(format!("task {id} has {deg} parents"));
            }
            if deg == 0 && !root_set[id] {
                return Err(format!("task {id} unreachable"));
            }
        }
        Ok(())
    }
}

/// What [`TaskForest::roots`] walks: the implied `0..len` of a forest
/// whose every task is a root, or its root list.
enum Roots<'a> {
    All(std::ops::Range<TaskId>),
    Listed(std::slice::Iter<'a, TaskId>),
}

impl Iterator for Roots<'_> {
    type Item = TaskId;

    fn next(&mut self) -> Option<TaskId> {
        match self {
            Roots::All(ids) => ids.next(),
            Roots::Listed(ids) => ids.next().copied(),
        }
    }

    fn nth(&mut self, n: usize) -> Option<TaskId> {
        match self {
            Roots::All(ids) => ids.nth(n),
            Roots::Listed(ids) => ids.nth(n).copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Roots::All(ids) => ids.size_hint(),
            Roots::Listed(ids) => ids.size_hint(),
        }
    }
}

impl ExactSizeIterator for Roots<'_> {}

/// A grain as the forest stores it.
fn narrow_grain(grain_us: u64) -> u32 {
    u32::try_from(grain_us)
        .unwrap_or_else(|_| panic!("grain of {grain_us} µs is past the forest's u32::MAX µs"))
}

/// A complete application run: one forest per round, with a global
/// barrier between rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Human-readable name (e.g. `"15-queens"`, `"gromos 16A"`).
    pub name: String,
    /// The rounds, executed in order with a barrier after each.
    pub rounds: Vec<TaskForest>,
}

/// Aggregate statistics over a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Total number of tasks across all rounds.
    pub tasks: usize,
    /// Total work in µs (the sequential execution time `Ts`).
    pub total_work_us: u64,
    /// Largest grain.
    pub max_grain_us: u64,
    /// Sum over rounds of each round's critical path: a lower bound on
    /// infinite-processor makespan.
    pub critical_path_us: u64,
}

impl Workload {
    /// Single-round workload.
    pub fn single(name: impl Into<String>, forest: TaskForest) -> Self {
        Workload {
            name: name.into(),
            rounds: vec![forest],
        }
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> WorkloadStats {
        WorkloadStats {
            tasks: self.rounds.iter().map(|r| r.len()).sum(),
            total_work_us: self.rounds.iter().map(|r| r.total_work_us()).sum(),
            max_grain_us: self
                .rounds
                .iter()
                .map(|r| r.max_grain_us())
                .max()
                .unwrap_or(0),
            critical_path_us: self.rounds.iter().map(|r| r.critical_path_us()).sum(),
        }
    }

    /// Validates every round.
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.rounds.iter().enumerate() {
            r.validate().map_err(|e| format!("round {i}: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamondless_tree() -> TaskForest {
        let mut f = TaskForest::new();
        let root = f.add_root(10);
        let a = f.add_child(root, 20);
        f.add_child(root, 5);
        f.add_child(a, 7);
        f
    }

    #[test]
    fn totals_and_max() {
        let f = diamondless_tree();
        assert_eq!(f.len(), 4);
        assert_eq!(f.total_work_us(), 42);
        assert_eq!(f.max_grain_us(), 20);
    }

    #[test]
    fn critical_path_follows_longest_chain() {
        let f = diamondless_tree();
        // 10 (root) + 20 (a) + 7 (a's child) = 37.
        assert_eq!(f.critical_path_us(), 37);
    }

    #[test]
    fn validate_accepts_forest() {
        assert_eq!(diamondless_tree().validate(), Ok(()));
    }

    /// Corrupts `f` with an edge `add_child` would never make: `child`
    /// (an existing task) is also released by `parent`.
    fn attach(f: &mut TaskForest, parent: TaskId, child: TaskId) {
        let parent = parent as usize;
        if f.children.len() <= parent {
            f.children.resize_with(parent + 1, Vec::new);
        }
        f.children[parent].push(child);
    }

    #[test]
    fn validate_rejects_double_parent() {
        let mut f = TaskForest::new();
        let r1 = f.add_root(1);
        let r2 = f.add_root(1);
        let c = f.add_child(r1, 1);
        // r2 has no child list yet: the corruption grows one for it.
        assert_eq!(f.children(r2), []);
        attach(&mut f, r2, c);
        assert_eq!(f.children(r2), [c]);
        assert!(f.validate().unwrap_err().contains("2 parents"));
    }

    #[test]
    fn empty_forest_is_fine() {
        let f = TaskForest::new();
        assert!(f.is_empty());
        assert_eq!(f.critical_path_us(), 0);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn a_roots_only_forest_allocates_no_child_list() {
        let mut f = TaskForest::new();
        for g in 0..1_000 {
            f.add_root(g);
        }
        assert_eq!(f.children.capacity(), 0);
        assert!(f.roots().all(|r| f.children(r).is_empty()));
        // Child lists reach only as far as the highest parent.
        let parent = f.roots().nth(10).expect("1 000 roots");
        f.add_child(parent, 7);
        assert_eq!(f.children.len(), 11);
    }

    #[test]
    fn a_flat_forest_is_the_one_add_root_builds() {
        for len in [0, 1, 1_000] {
            let grains: Vec<u64> = (0..len).map(|g| g * 7 % 13).collect();
            let mut f = TaskForest::new();
            for &g in &grains {
                f.add_root(g);
            }
            let flat = TaskForest::flat(grains);
            assert_eq!(flat, f);
            assert_eq!(flat.grains.capacity(), len as usize);
            assert_eq!(flat.children.capacity(), 0);
            assert!(flat.roots().eq(0..len as TaskId));
        }
    }

    /// A forest whose every task is a root stores no root list: its
    /// roots are `0..len`. The first child lists them.
    #[test]
    fn a_flat_forest_allocates_no_root_list() {
        let mut f = TaskForest::flat([5, 6, 7]);
        assert_eq!(f.roots.capacity(), 0);
        assert_eq!(f.roots().len(), 3);
        f.add_root(8);
        assert_eq!(f.roots.capacity(), 0);
        let child = f.add_child(2, 9);
        f.add_root(10);
        assert_eq!(f.roots, [0, 1, 2, 3, 5]);
        assert!(f.roots().all(|r| r != child));
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn the_widest_grain_reads_back_whole() {
        let max = u64::from(u32::MAX);
        let mut f = TaskForest::flat([max, 1]);
        let child = f.add_child(0, max);
        assert_eq!(f.grain(0), max);
        assert_eq!(f.grain(child), max);
        assert_eq!(f.total_work_us(), 2 * max + 1);
        assert_eq!(f.max_grain_us(), max);
    }

    #[test]
    #[should_panic(expected = "grain of 4294967296 µs is past the forest's u32::MAX µs")]
    fn add_root_refuses_a_grain_past_u32() {
        TaskForest::new().add_root(u64::from(u32::MAX) + 1);
    }

    #[test]
    #[should_panic(expected = "grain of 4294967296 µs is past the forest's u32::MAX µs")]
    fn flat_refuses_a_grain_past_u32() {
        TaskForest::flat([1, u64::from(u32::MAX) + 1]);
    }

    /// The layout the forest had before grains and child lists were
    /// split: one `Task` per id, each carrying its own child `Vec`. Kept
    /// as the reference the dense layout is held to.
    mod reference {
        use super::TaskId;

        pub struct Task {
            pub grain_us: u64,
            pub children: Vec<TaskId>,
        }

        #[derive(Default)]
        pub struct Forest {
            pub tasks: Vec<Task>,
            pub roots: Vec<TaskId>,
        }

        impl Forest {
            pub fn add_root(&mut self, grain_us: u64) -> TaskId {
                let id = self.push(grain_us);
                self.roots.push(id);
                id
            }

            pub fn add_child(&mut self, parent: TaskId, grain_us: u64) -> TaskId {
                let id = self.push(grain_us);
                self.tasks[parent as usize].children.push(id);
                id
            }

            fn push(&mut self, grain_us: u64) -> TaskId {
                self.tasks.push(Task {
                    grain_us,
                    children: Vec::new(),
                });
                (self.tasks.len() - 1) as TaskId
            }

            pub fn critical_path_us(&self) -> u64 {
                fn depth(f: &Forest, id: TaskId, memo: &mut [u64]) -> u64 {
                    if memo[id as usize] == u64::MAX {
                        let t = &f.tasks[id as usize];
                        let below = t.children.iter().map(|&c| depth(f, c, memo)).max();
                        memo[id as usize] = t.grain_us + below.unwrap_or(0);
                    }
                    memo[id as usize]
                }
                let mut memo = vec![u64::MAX; self.tasks.len()];
                let paths = self.roots.iter().map(|&r| depth(self, r, &mut memo));
                paths.max().unwrap_or(0)
            }

            pub fn validate(&self) -> Result<(), String> {
                let n = self.tasks.len();
                let mut indegree = vec![0u32; n];
                for &c in self.tasks.iter().flat_map(|t| &t.children) {
                    if c as usize >= n {
                        return Err(format!("dangling child id {c}"));
                    }
                    indegree[c as usize] += 1;
                }
                if let Some(r) = self.roots.iter().find(|&&r| indegree[r as usize] != 0) {
                    return Err(format!("root {r} has a parent"));
                }
                let mut root_set = vec![false; n];
                for &r in &self.roots {
                    if std::mem::replace(&mut root_set[r as usize], true) {
                        return Err(format!("duplicate root {r}"));
                    }
                }
                for (id, &deg) in indegree.iter().enumerate() {
                    if deg > 1 {
                        return Err(format!("task {id} has {deg} parents"));
                    }
                    if deg == 0 && !root_set[id] {
                        return Err(format!("task {id} unreachable"));
                    }
                }
                Ok(())
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sequence of `add_root`/`add_child` calls — plus the odd
        /// corruption `validate` must catch (a second parent, a repeated
        /// root) — reads back the same from the dense forest as from the
        /// reference layout.
        #[test]
        fn dense_forest_matches_the_reference_layout(
            ops in collection::vec((0u8..20, 0u32..1_000, 0u32..1_000, 0u64..100), 0..80)
        ) {
            let (mut f, mut r) = (TaskForest::new(), reference::Forest::default());
            for (kind, x, y, grain) in ops {
                let len = f.len() as u32;
                match kind {
                    _ if len == 0 => prop_assert_eq!(f.add_root(grain), r.add_root(grain)),
                    0..=5 => prop_assert_eq!(f.add_root(grain), r.add_root(grain)),
                    6..=17 => {
                        let parent = x % len;
                        prop_assert_eq!(f.add_child(parent, grain), r.add_child(parent, grain));
                    }
                    18 => {
                        let (parent, child) = (x % len, y % len);
                        attach(&mut f, parent, child);
                        r.tasks[parent as usize].children.push(child);
                    }
                    _ => {
                        if f.roots.is_empty() {
                            f.roots = (0..len).collect();
                        }
                        f.roots.push(x % len);
                        r.roots.push(x % len);
                    }
                }
            }
            prop_assert_eq!(f.len(), r.tasks.len());
            prop_assert_eq!(f.roots().collect::<Vec<_>>(), r.roots.clone());
            for (id, t) in r.tasks.iter().enumerate() {
                prop_assert_eq!(f.grain(id as TaskId), t.grain_us);
                prop_assert_eq!(f.children(id as TaskId), &t.children[..]);
            }
            let verdict = f.validate();
            prop_assert_eq!(&verdict, &r.validate());
            // A valid forest has no cycle, so its depth is defined.
            if verdict.is_ok() {
                prop_assert_eq!(f.critical_path_us(), r.critical_path_us());
            }
        }
    }

    #[test]
    fn workload_stats_sum_rounds() {
        let w = Workload {
            name: "w".into(),
            rounds: vec![diamondless_tree(), diamondless_tree()],
        };
        let s = w.stats();
        assert_eq!(s.tasks, 8);
        assert_eq!(s.total_work_us, 84);
        assert_eq!(s.critical_path_us, 74);
        assert!(w.validate().is_ok());
    }
}
