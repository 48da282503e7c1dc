//! The `rips` command line, driven as a subprocess: the command table,
//! the generated usage, and input validation.

use std::process::{Command, Output};

use rips_repro::bench::args::{synopsis, Spec};
use rips_repro::bench::repro::ARTIFACTS;
use rips_repro::bench::scale;
use rips_repro::trace::metrics_rt;

/// The specs behind `rips repro`, from the library.
fn artifact_specs() -> Vec<Spec> {
    ARTIFACTS.iter().map(|a| a.0).collect()
}

/// Runs `rips` with the whitespace-separated `line` as its arguments.
fn rips(line: &str) -> Output {
    let mut rips = Command::new(env!("CARGO_BIN_EXE_rips"));
    rips.args(line.split_whitespace());
    rips.output().expect("spawn rips")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// First column of a `--list` table.
fn listed(group: &str) -> Vec<String> {
    let out = rips(&format!("{group} --list"));
    assert!(out.status.success(), "{}", stderr(&out));
    let names = stdout(&out)
        .lines()
        .map(|l| {
            l.split_whitespace()
                .next()
                .expect("name column")
                .to_string()
        })
        .collect();
    names
}

#[test]
fn repro_list_is_the_library_table() {
    let names = listed("repro");
    let table: Vec<&str> = artifact_specs()
        .into_iter()
        .map(|s| synopsis(s).0)
        .collect();
    assert_eq!(names, table);
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), 13);
}

/// The fixed commands' flags, pinned: `path: flags`.
const FIXED: &str = "\
run: --all --nodes --seed --policy --audit --trace-out --report --metrics-out
live: --threads --seed --policy --mode --timed-scale --audit --trace-out --metrics-out
serve: --backend --scheduler --nodes --threads --tenants --jobs --mean-interarrival-us \
       --process --max-pending --quota --quantum --seed --tiny --audit --json --out --metrics-out
plan: --rows --cols --loads
apps:
schedulers:
repro: --list";

/// Every command path with the flags it accepts: the fixed rows pinned
/// above, `bench scale` and the artifact rows from the library.
fn surface() -> Vec<(String, Vec<&'static str>)> {
    let fixed = FIXED
        .lines()
        .map(|l| l.split_once(':').expect("path: flags"));
    let mut all: Vec<(String, Vec<&'static str>)> = fixed
        .map(|(path, flags)| (path.to_string(), flags.split_whitespace().collect()))
        .collect();
    let groups = [("repro", artifact_specs()), ("bench", vec![scale::SPEC])];
    for (group, specs) in groups {
        for spec in specs {
            let name = |f: &&'static str| f.split(' ').next().expect("flag row has a name");
            let path = format!("{group} {}", synopsis(spec).0);
            all.push((path, spec[1..].iter().map(name).collect()));
        }
    }
    all
}

#[test]
fn every_usage_is_generated_from_the_flag_table() {
    // An unknown flag is rejected by every command, with exit 2 and
    // the usage naming exactly the flags the command accepts.
    let universe: Vec<&str> = surface().iter().flat_map(|(_, f)| f.clone()).collect();
    for (path, flags) in surface() {
        let out = rips(&format!("{path} --no-such-flag"));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{path}: {err}");
        assert!(
            err.contains("unknown flag '--no-such-flag'"),
            "{path}: {err}"
        );
        assert!(
            err.contains(&format!("usage: rips {path}")),
            "{path}: {err}"
        );
        let mentioned = |flag: &str| {
            err.lines()
                .any(|l| l.split_whitespace().next() == Some(flag))
        };
        for flag in &flags {
            assert!(mentioned(flag), "{path}: usage lacks {flag}:\n{err}");
        }
        for other in universe.iter().filter(|f| !flags.contains(f)) {
            assert!(!mentioned(other), "{path}: usage lists undeclared {other}");
        }
    }
}

#[test]
fn top_level_overview_lists_the_commands() {
    for line in ["", "frobnicate"] {
        let out = rips(line);
        assert_eq!(out.status.code(), Some(2));
        let err = stderr(&out);
        for cmd in ["run", "live", "repro", "bench", "serve"] {
            assert!(err.contains(&format!("\n  {cmd} ")), "{err}");
        }
    }
}

#[test]
fn bad_input_exits_2_naming_the_offending_token() {
    let cases = [
        // Each of these ran with the default before the one parser.
        ("run --nodes 3x2", "'3x2'"),
        ("serve --quota many", "'many'"),
        ("live --thread 4 queens9", "'--thread'"),
        ("run --node 8", "'--node'"),
        ("run --nodes", "--nodes needs a value"),
        ("plan --rows 2 --cols 2 --loads 4,0,0,x", "'4,0,0,x'"),
        // Positionals.
        ("run", "missing <app>"),
        ("live", "missing <app>"),
        ("live a b c", "'c'"),
        ("run --all rips queens9", "--all takes the <app> alone"),
        ("repro", "missing name"),
        ("repro fig9", "unknown name 'fig9'"),
        ("bench transport", "\n  bench scale "),
        // A command that is gone is an unknown command.
        ("lint", "usage: rips <command>"),
        ("trace rips queens9", "usage: rips <command>"),
        ("report rips queens9", "usage: rips <command>"),
        ("audit --all", "usage: rips <command>"),
        ("verify", "usage: rips <command>"),
        // Values only the command can judge.
        ("run queens8", "unknown app 'queens8'"),
        ("run fifo queens9", "unknown scheduler 'fifo'"),
        (
            "run queens9 --policy some-lazy",
            "unknown policy 'some-lazy'",
        ),
        ("run queens9 --report csv", "unknown --report 'csv'"),
        (
            "run --all queens9 --trace-out t.json",
            "--all writes no file",
        ),
        ("run --all queens9 --metrics-out -", "--all writes no file"),
        ("live queens9 --mode fast", "unknown --mode 'fast'"),
        (
            "plan --rows 2 --cols 2 --loads 1,2",
            "--loads needs 4 values",
        ),
        ("plan", "--loads needs 16 values"),
        // rows × cols past usize: named as such, not as a wrapped
        // `--loads needs 0 values`.
        (
            "plan --rows 4294967296 --cols 4294967296 --loads 1",
            "--rows 4294967296 × --cols 4294967296 is more nodes",
        ),
    ];
    for (line, needle) in cases {
        let out = rips(line);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{line}: {err}");
        assert!(err.contains(needle), "{line}: expected {needle} in:\n{err}");
        assert!(err.contains("usage: rips "), "{line}: {err}");
        assert!(stdout(&out).is_empty(), "{line} printed results");
    }
}

#[test]
fn out_of_range_sizes_exit_2_instead_of_panicking() {
    let cases = [
        ("run queens9 --nodes 0", "run"),
        ("run --all queens9 --audit --nodes 0", "run"),
        ("serve --backend sim --tiny --nodes 0", "serve"),
        ("live --threads 0 queens9", "live"),
        ("live --mode timed --timed-scale -1 queens9", "live"),
        ("live --mode timed --timed-scale nan queens9", "live"),
        ("live --mode timed --timed-scale inf queens9", "live"),
        (
            "serve --backend sim --tiny --mean-interarrival-us 0",
            "serve",
        ),
        ("plan --rows 0", "plan"),
        ("repro timeline --width 0", "repro timeline"),
        ("repro scaling --queens 0", "repro scaling"),
    ];
    for (line, path) in cases {
        let out = rips(line);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{line}: {err}");
        assert!(
            err.contains(&format!("usage: rips {path}")),
            "{line}: {err}"
        );
        assert!(!err.contains("panicked"), "{line}: {err}");
    }
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rips-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn positionals_mix_with_flags_on_every_command() {
    // Flags-first used to work for `live` only.
    let out = rips("run --nodes 8 rips --report jsonl queens9");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("\n{\"type\":\"summary\""));
}

/// Whether `json` is one complete value by its brackets: they balance
/// outside strings, as a truncated or half-written document's do not.
fn balanced(json: &str) -> bool {
    let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
    for c in json.trim_end().chars() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') => in_str = false,
            (true, ..) => {}
            (false, _, '"') => in_str = true,
            (false, _, '{' | '[') => depth += 1,
            (false, _, '}' | ']') if depth == 0 => return false,
            (false, _, '}' | ']') => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

/// `run` attaches the auditor, the trace buffer and the phase report
/// in one install and finishes each.
#[test]
fn run_audits_traces_and_reports_from_one_install() {
    let dir = scratch("run-trace");
    let path = dir.join("trace.json");
    let out = rips(&format!(
        "run rips queens9 --nodes 8 --audit --trace-out {} --report jsonl",
        path.display()
    ));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("audit            OK"), "{text}");
    assert!(text.contains("\n{\"type\":\"summary\","), "{text}");
    let json = std::fs::read_to_string(path).expect("trace written");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(balanced(&json), "{json}");
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

#[test]
fn smoke_commands_exit_0() {
    let runs = [
        ("repro fig4 --trials 2", "Figure 4"),
        ("repro sid-vs-rid --nodes 8", "8 processors"),
        (
            "plan --rows 2 --cols 2 --loads 4,0,0,0",
            "final loads: [1, 1, 1, 1]",
        ),
        ("run --all queens9 --nodes 8 --audit", "── RIPS-H · 8 nodes"),
        ("apps", "queens9\nqueens10\n"),
        ("schedulers", "rips-h\n"),
    ];
    for (line, needle) in runs {
        let out = rips(line);
        assert!(out.status.success(), "{line}: {}", stderr(&out));
        assert!(stdout(&out).contains(needle), "{line}: {}", stdout(&out));
    }
}

#[test]
fn run_exports_valid_openmetrics() {
    let dir = scratch("metrics");
    let path = dir.join("metrics.txt");
    let out = rips(&format!(
        "run queens9 --nodes 8 --metrics-out {}",
        path.display()
    ));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(path).expect("metrics written");
    metrics_rt::validate_openmetrics(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    // The families CI's metrics smoke gates on, each with a sample.
    let sampled = |family: &str| {
        let named = |l: &str| l.split([' ', '{']).next() == Some(family);
        text.lines().any(|l| !l.starts_with('#') && named(l))
    };
    for family in [
        "rips_tasks_executed_total",
        "rips_msgs_sent_total",
        "rips_dispatch_rounds_total",
        "rips_dispatch_round_ns_count",
        "rips_grain_exec_ns_sum",
        "rips_trace_events_total",
        "rips_watchdog_trips_total",
        "rips_queue_depth",
        "rips_ring_depth",
    ] {
        assert!(sampled(family), "no {family} sample in:\n{text}");
    }
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

#[test]
fn live_audits_and_exports_its_trace_from_one_install() {
    let dir = scratch("live-trace");
    let path = dir.join("trace.json");
    let out = rips(&format!(
        "live --threads 2 queens9 --audit --trace-out {}",
        path.display()
    ));
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("audit            OK"), "{text}");
    assert!(text.contains("MATCH"), "{text}");
    let json = std::fs::read_to_string(path).expect("trace written");
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(balanced(&json), "{json}");
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

#[test]
fn bench_writes_a_document_with_the_provenance_header() {
    let dir = scratch("bench");
    let path = dir.join("scale.json");
    let out = rips(&format!(
        "bench scale --max-n 1000 --tasks-per-node 1 --out {}",
        path.display()
    ));
    assert!(out.status.success(), "{}", stderr(&out));
    let doc = std::fs::read_to_string(path).expect("document written");
    let header = "{\n  \"bench\": \"scale\",\n  \"seed\": 1,\n  \"host_parallelism\": ";
    assert!(doc.starts_with(header), "{doc}");
    assert!(doc.contains("\n  \"git_rev\": \""), "{doc}");
    assert!(
        doc.contains("{\"scheduler\":\"RIPS-H\",\"nodes\":1000,"),
        "{doc}"
    );
    assert!(doc.ends_with("}\n"));
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}

/// A `bench scale` value no sweep can use exits 2 with the usage and
/// writes nothing over `--out`; scheduler names resolve as everywhere
/// else, whatever their case.
#[test]
fn bench_scale_rejects_what_it_cannot_sweep() {
    let dir = scratch("bench-bad");
    let path = dir.join("scale.json");
    let out_flag = format!("--out {}", path.display());
    for flags in [
        "--one 0",
        "--one 1000 --sched nope",
        "--one 1000 --sched random",
        "--sched rips-hh",
        "--max-n 999",
        "--max-n 0",
    ] {
        let out = rips(&format!("bench scale {flags} {out_flag}"));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{flags}: {err}");
        assert!(err.contains("usage: rips bench scale"), "{flags}: {err}");
        assert!(!err.contains("panicked"), "{flags}: {err}");
        assert!(!path.exists(), "{flags} wrote {}", path.display());
    }
    let out = rips("bench scale --one 1000 --sched rips-h --tasks-per-node 1");
    assert!(out.status.success(), "{}", stderr(&out));
    let cell = stdout(&out);
    assert!(
        cell.starts_with("{\"scheduler\":\"RIPS-H\",\"nodes\":1000,"),
        "{cell}"
    );
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
}
