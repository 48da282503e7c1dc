use rips_apps::{puzzle, PuzzleConfig};
fn main() {
    for c in 1..=3u32 {
        let w = puzzle(PuzzleConfig::paper(c));
        for (i, r) in w.rounds.iter().enumerate() {
            let mut g: Vec<u64> = (0..r.len() as u32).map(|id| r.grain(id)).collect();
            g.sort_unstable();
            let total: u64 = g.iter().sum();
            println!(
                "cfg{c} round {i}: tasks={} total={:.2}s max={:.3}s p99={:.3}s median={}us",
                g.len(),
                total as f64 / 1e6,
                *g.last().unwrap() as f64 / 1e6,
                g[g.len() * 99 / 100] as f64 / 1e6,
                g[g.len() / 2]
            );
        }
    }
}
