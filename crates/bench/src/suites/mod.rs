//! The measurement suites behind `rips bench <suite>`.
//!
//! A [`Suite`] times something on this host and records it as one
//! JSON document, checked in at the repo root as `BENCH_*.json`.
//! [`run_suite`] is the one dispatcher: it opens the document, writes
//! the provenance header every file shares — which suite, which seed,
//! how many cores, which revision — hands the open document to the
//! suite for its own members, and writes the result to `--out`.
//!
//! The suites live under `crates/bench/` because they read the wall
//! clock (rips-lint RIPS-L002 allows `Instant` here and nowhere in the
//! simulated crates). The third suite, `serve`, is declared in
//! `rips-serve`, which sits above this crate.

mod live;
mod scale;

use std::process::Command;

use rips_trace::Json;

use crate::args::{synopsis, Args, Flag, Spec};

/// One measurement suite: its usage text (`rips bench <name>`; always
/// with a `--seed` row and an `--out` row defaulting to the checked-in
/// file the suite regenerates) and the function that runs it. The
/// function gets the document open with the header written, appends
/// its members and hands it back; `None` means the run produced no
/// document (`scale`'s one-cell subprocess mode).
pub type Suite = (Spec, fn(&Args, Json) -> Option<Json>);

/// The suites declared in this crate.
pub const SUITES: &[Suite] = &[scale::SUITE, live::SUITE];

/// Object/array levels laid out one member per line; deeper levels
/// (a measured cell, a load point) stay on one line.
const LAYOUT_DEPTH: usize = 4;

const SEED: Flag = "--seed N=1  base seed";

/// Runs `suite` and writes its document to `--out`.
pub fn run_suite(suite: &Suite, args: &Args) -> std::io::Result<()> {
    let mut doc = Json::pretty(LAYOUT_DEPTH);
    doc.obj().key("bench").str(synopsis(suite.0).0);
    doc.key("seed").u64(args.num("--seed"));
    doc.key("host_parallelism").u64(host_parallelism() as u64);
    doc.key("git_rev").str(&git_rev());
    let Some(mut doc) = (suite.1)(args, doc) else {
        return Ok(());
    };
    doc.end();
    let path = args.str("--out");
    std::fs::write(path, doc.finish() + "\n")?;
    println!("wrote {path}");
    Ok(())
}

/// Cores the host offers this process (1 when it cannot be read).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `git rev-parse --short HEAD` of the working directory, or
/// `"unknown"` outside a checkout or without git.
fn git_rev() -> String {
    let rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    match rev {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_suite_here_has_its_own_default_out() {
        let out_row = |s: &Suite| s.0.iter().find(|f| f.starts_with("--out S=BENCH_"));
        let mut outs: Vec<Flag> = SUITES.iter().map(|s| *out_row(s).expect(s.0[0])).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), SUITES.len());
    }
}
