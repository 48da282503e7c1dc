//! The repo's benchmark: five workloads over the simulator, the
//! real-thread backend and the serving layer; end-to-end and per-layer
//! metrics; output checks. See `README.md` beside this crate.
//!
//! ```text
//! rips-benchmark [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//!     every workload, each in its own subprocess (a clean peak RSS),
//!     untraced then traced unless --trace picks one; writes the
//!     results JSON
//! rips-benchmark --workload W [--seed S] [--seconds N] [--trace 0|1] [--quick]
//!     one workload in this process; the last line of standard output
//!     is the result the driver reads (`--detail` adds the line the
//!     parent process above reads)
//! rips-benchmark --compare A.json B.json
//! ```

mod compare;
mod json;
mod live;
mod metrics;
mod run;
mod serve;
mod sim;
mod span;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::{obj, Json};
use metrics::WORKLOADS;
use run::{live_threads, run_workload, Config};

/// Where a run leaves its files: `out/` beside this crate's manifest.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Marks the line on which a subprocess hands its parent everything
/// it measured.
const DETAIL_PREFIX: &str = "#detail ";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    detail: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
        detail: false,
        out: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--detail" => args.detail = true,
            "--out" => args.out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rips-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare_files(a, b)
    } else if let Some(name) = &args.workload {
        one_workload(name, &args)
    } else {
        every_workload(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rips-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn config(args: &Args, trace: bool) -> Config {
    Config {
        seed: args.seed,
        // BENCHMARK.json's `run_seconds`; a toy run only has to start.
        seconds: args.seconds.unwrap_or(if args.quick { 0.3 } else { 15.0 }),
        trace,
        quick: args.quick,
    }
}

/// Runs one workload here. `Ok(false)` when an output check failed.
fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let cfg = config(args, args.trace.unwrap_or(false));
    let (outcome, rec) = run_workload(name, &cfg).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!("no workload {name:?}; there are {names:?}")
    })?;
    outcome.print_human();
    if cfg.trace {
        // The measurement stands without the dump.
        let path = Path::new(OUT_DIR).join(format!("trace-{name}.json"));
        match write_file(&path, &rec.to_json(name).line()) {
            Ok(()) => println!("   spans written to {}", path.display()),
            Err(e) => eprintln!("rips-benchmark: {e}"),
        }
    }
    if args.detail {
        println!("{DETAIL_PREFIX}{}", outcome.detail().line());
    }
    println!("{}", outcome.driver_line().line());
    Ok(outcome.correct())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Runs every workload, each pass in a subprocess of its own so that
/// `VmHWM` is that workload's and no allocator state carries over;
/// merges what they measured into one results file.
fn every_workload(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let passes: &[bool] = match args.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (name, why) in WORKLOADS {
        let mut merged: Option<Json> = None;
        for &trace in passes {
            let cfg = config(args, trace);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--detail"])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().map_err(|e| format!("spawn {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut detail = None;
            let lines: Vec<&str> = stdout.lines().collect();
            // The last line is the driver's; people read the table.
            for line in &lines[..lines.len().saturating_sub(1)] {
                match line.strip_prefix(DETAIL_PREFIX) {
                    Some(d) => detail = Some(Json::parse(d).map_err(|e| format!("{name}: {e}"))?),
                    None => println!("{line}"),
                }
            }
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            all_correct &= out.status.success();
            let detail = detail.ok_or_else(|| {
                format!("{name} (trace {trace}) printed no result; {}", out.status)
            })?;
            merged = Some(match merged {
                None => detail,
                Some(first) => merge(first, detail),
            });
        }
        let mut entry = merged.expect("at least one pass");
        if let Json::Obj(members) = &mut entry {
            members.insert(1, ("why".to_string(), (*why).into()));
        }
        workloads.push(entry);
    }
    let doc = obj([
        (
            "provenance",
            provenance(args, started.elapsed().as_secs_f64()),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    write_file(&path, &doc.pretty())?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// Folds the traced pass into the untraced one: end-to-end values stay
/// those measured with tracing off; the traced pass adds what only it
/// measures.
fn merge(mut untraced: Json, traced: Json) -> Json {
    let (Json::Obj(into), Json::Obj(from)) = (&mut untraced, traced) else {
        return untraced;
    };
    for (key, value) in from {
        let Some((_, mine)) = into.iter_mut().find(|(k, _)| *k == key) else {
            continue;
        };
        match (key.as_str(), mine, value) {
            ("metrics", Json::Arr(mine), Json::Arr(theirs)) => {
                for m in theirs {
                    let name = m.get("name").cloned();
                    if !mine.iter().any(|x| x.get("name").cloned() == name) {
                        mine.push(m);
                    }
                }
            }
            ("errors", Json::Arr(mine), Json::Arr(theirs)) => mine.extend(theirs),
            ("correct", Json::Bool(mine), Json::Bool(theirs)) => *mine &= theirs,
            ("traced_iterations" | "layer_self_times", mine, theirs) => *mine = theirs,
            _ => {}
        }
    }
    untraced
}

fn command_line(program: &str, args: &[&str], dir: Option<&str>) -> String {
    let mut cmd = Command::new(program);
    cmd.args(args);
    if let Some(dir) = dir {
        cmd.current_dir(dir);
    }
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and build a results file came from.
fn provenance(args: &Args, wall_s: f64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let manifest_dir = env!("CARGO_MANIFEST_DIR");
    obj([
        ("nproc", nproc.into()),
        ("cpu_model", cpu.into()),
        ("live_threads", live_threads().into()),
        (
            "git_revision",
            command_line("git", &["rev-parse", "HEAD"], Some(manifest_dir)).into(),
        ),
        ("rustc", command_line("rustc", &["--version"], None).into()),
        ("seed", args.seed.into()),
        ("seconds", config(args, false).seconds.into()),
        ("quick", args.quick.into()),
        ("wall_s", wall_s.into()),
    ])
}

fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let worse = compare::compare(&load(a)?, &load(b)?)?;
    println!("{worse} rows worse");
    Ok(worse == 0)
}
