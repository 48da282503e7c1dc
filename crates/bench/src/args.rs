//! The one flag parser behind every `rips` subcommand.
//!
//! A subcommand is declared as its usage text, a [`Spec`]: a synopsis
//! line, then one [`Flag`] row per flag written the way the usage
//! prints it — `"--nodes N=32  simulated processors"` — so the table
//! *is* the help text and the two cannot drift apart. The `rips`
//! binary hands a command's spec and the command line to
//! [`Args::parse`] once. Unknown flags, missing values and values that
//! do not parse as the declared kind are errors — nothing falls
//! back to a default silently. The type lives in this crate (not in
//! the binary) because the artifact and suite tables below it declare
//! flags and read the parsed values.

use std::fmt::{Debug, Display, Write as _};
use std::ops::RangeBounds;
use std::str::FromStr;

/// One flag row: `--name [KIND[=default]]  help`. `KIND` is one of the
/// letters `N` (non-negative integer), `F` (float), `S` (string) and
/// `N,..` (comma-separated integers); a row without one is a switch. A
/// valued flag without `=default` is optional ([`Args::get`] is `None`).
pub type Flag = &'static str;

/// A command as its usage text. Line 0 is the synopsis, `"name
/// [positionals]  about"` with two spaces before the about; bracketed
/// positionals are optional and come first. Every further line is a
/// [`Flag`] row.
pub type Spec = &'static [&'static str];

/// A spec's synopsis taken apart: `(name, positionals, about)`.
pub fn synopsis(spec: Spec) -> (&'static str, &'static str, &'static str) {
    let (call, about) = spec[0].split_once("  ").unwrap_or((spec[0], ""));
    let (name, positionals) = call.split_once(' ').unwrap_or((call, ""));
    (name, positionals, about.trim_start())
}

/// What a flag's value must parse as, with its letter in a [`Flag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Present or absent; takes no value.
    Switch,
    /// `N`: a non-negative integer.
    Int,
    /// `F`: a float.
    Float,
    /// `S`: any string.
    Text,
    /// `N,..`: comma-separated integers.
    Ints,
}

impl Kind {
    const LETTERS: [(&'static str, Kind); 4] = [
        ("N", Kind::Int),
        ("F", Kind::Float),
        ("S", Kind::Text),
        ("N,..", Kind::Ints),
    ];

    fn check(self, v: &str) -> bool {
        match self {
            Kind::Switch | Kind::Text => true,
            Kind::Int => v.parse::<u64>().is_ok(),
            Kind::Float => v.parse::<f64>().is_ok(),
            Kind::Ints => v.split(',').all(|x| x.trim().parse::<i64>().is_ok()),
        }
    }
}

/// A [`Flag`] row taken apart.
#[derive(Debug, PartialEq)]
struct Row {
    name: &'static str,
    /// The `KIND[=default]` token as written (empty for a switch).
    spec: &'static str,
    kind: Kind,
    default: Option<&'static str>,
    help: &'static str,
}

fn split(row: Flag) -> Row {
    let (name, rest) = row.split_once(' ').unwrap_or((row, ""));
    let rest = rest.trim_start();
    let spec = rest.split(' ').next().unwrap_or_default();
    let (letter, default) = match spec.split_once('=') {
        Some((letter, default)) => (letter, Some(default)),
        None => (spec, None),
    };
    // Only a KIND letter is a kind: a switch's help may start anyhow.
    let kind = Kind::LETTERS.iter().find(|(l, _)| *l == letter);
    let (spec, kind) = kind.map_or(("", Kind::Switch), |&(_, kind)| (spec, kind));
    Row {
        name,
        spec,
        kind,
        default: default.filter(|_| kind != Kind::Switch),
        help: rest[spec.len()..].trim_start(),
    }
}

/// A parsed command line: positionals plus every declared flag's
/// value (given or default).
#[derive(Debug, Clone)]
pub struct Args {
    path: String,
    usage: String,
    pos: Vec<String>,
    vals: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `argv` (the tokens after the subcommand path) against
    /// `spec`; `group` is the path before the spec's own name (`""` or
    /// `"repro "`). Flags and positionals may come in any order. On
    /// bad input, prints what was wrong plus the usage and exits 2.
    pub fn parse(group: &str, spec: Spec, argv: &[String]) -> Args {
        let path = format!("{group}{}", synopsis(spec).0);
        Args::try_parse(group, spec, argv)
            .unwrap_or_else(|msg| exit_usage(&path, &msg, &usage(group, spec)))
    }

    /// Rejects the command line after parsing, the same way a parse
    /// error does: for values only the command can judge (an unknown
    /// scheduler or app name).
    pub fn fail(&self, msg: &str) -> ! {
        exit_usage(&self.path, msg, &self.usage)
    }

    fn try_parse(group: &str, spec: Spec, argv: &[String]) -> Result<Args, String> {
        let (name, positionals, _) = synopsis(spec);
        let rows: Vec<Row> = spec[1..].iter().map(|&row| split(row)).collect();
        let defaults = rows.iter().map(|r| (r.name, r.default.map(str::to_string)));
        let mut vals: Vec<(&'static str, Option<String>)> = defaults.collect();
        let mut pos = Vec::new();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                pos.push(a.clone());
                continue;
            }
            let Some(i) = rows.iter().position(|r| r.name == a) else {
                return Err(format!("unknown flag '{a}'"));
            };
            vals[i].1 = Some(if rows[i].kind == Kind::Switch {
                "true".to_string()
            } else {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                if !rows[i].kind.check(v) {
                    let letter = rows[i].spec.split('=').next().unwrap_or_default();
                    return Err(format!("{a}: cannot parse '{v}' as {letter}"));
                }
                v.clone()
            });
        }
        let names: Vec<&str> = positionals.split_whitespace().collect();
        // Everything up to the last `]` is optional.
        let optional = positionals
            .rfind(']')
            .map_or(0, |end| positionals[..end].split_whitespace().count());
        let required = names.len() - optional;
        if pos.len() < required {
            let missing = &names[names.len() - required + pos.len()..];
            return Err(format!("missing {}", missing.join(" ")));
        }
        if let Some(extra) = pos.get(names.len()) {
            return Err(format!("unexpected argument '{extra}'"));
        }
        Ok(Args {
            path: format!("{group}{name}"),
            usage: usage(group, spec),
            pos,
            vals,
        })
    }

    /// The positional arguments, in order.
    pub fn pos(&self) -> &[String] {
        &self.pos
    }

    /// The flag's value: as given, else its default, else `None`.
    /// `None` too for a flag this command does not declare.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (_, v) = self.vals.iter().find(|(n, _)| *n == name)?;
        v.as_deref()
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A flag that has a default, as text.
    ///
    /// # Panics
    /// If the command declares no such flag or gives it no default
    /// (a bug in the command's table, not in the user's input).
    pub fn str(&self, name: &str) -> &str {
        let v = self.get(name);
        v.unwrap_or_else(|| panic!("flag {name} has no value: declare a default or use get()"))
    }

    /// A flag that has a default, parsed (its kind was checked by
    /// [`Args::parse`]). Panics like [`Args::str`].
    pub fn num<T: FromStr>(&self, name: &str) -> T {
        let v = self.opt(name);
        v.unwrap_or_else(|| panic!("flag {name} has no value: declare a default or use opt()"))
    }

    /// A flag that has a default, parsed and checked against `range`.
    /// A value outside it (a machine of zero nodes, say) is rejected
    /// like a parse error instead of panicking inside the library.
    pub fn num_in<T, R>(&self, name: &str, range: R) -> T
    where
        T: FromStr + PartialOrd + Display,
        R: RangeBounds<T> + Debug,
    {
        let v: T = self.num(name);
        if !range.contains(&v) {
            self.fail(&format!("{name}: {v} is out of range {range:?}"));
        }
        v
    }

    /// An optional flag, parsed.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let v = self.get(name)?.parse().ok();
        Some(v.unwrap_or_else(|| panic!("flag {name}: kind does not match the type read")))
    }

    /// A list flag (`N,..`), split and parsed.
    pub fn list<T: FromStr>(&self, name: &str) -> Option<Vec<T>> {
        let parse = |x: &str| x.trim().parse().ok();
        let items: Option<Vec<T>> = self.get(name)?.split(',').map(parse).collect();
        Some(items.unwrap_or_else(|| panic!("flag {name}: kind does not match the type read")))
    }
}

fn exit_usage(path: &str, msg: &str, usage: &str) -> ! {
    eprint!("rips {path}: {msg}\n{usage}");
    std::process::exit(2)
}

/// Renders the usage text of one command from its spec: the
/// synopsis, then the flag rows with their help aligned.
pub fn usage(group: &str, spec: Spec) -> String {
    let (name, positionals, _) = synopsis(spec);
    let mut out = format!("usage: rips {group}{name}");
    if !positionals.is_empty() {
        write!(out, " {positionals}").expect("write to String");
    }
    out.push_str(if spec.len() == 1 { "\n" } else { " [flags]\n" });
    for &row in &spec[1..] {
        let row = split(row);
        let flag = format!("{} {}", row.name, row.spec);
        writeln!(out, "  {flag:<28} {}", row.help).expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        "--nodes N=32   simulated processors",
        "--scale F=1.0  factor",
        "--audit        check invariants",
        "--out S        output file",
        "--loads N,..   task counts",
        "--bare",
    ];

    fn parse(positionals: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        // Specs are static; a test may leak its handful.
        let synopsis: &str = format!("test {positionals}  a test command").leak();
        let spec: Vec<&str> = [synopsis]
            .into_iter()
            .chain(FLAGS.iter().copied())
            .collect();
        Args::try_parse("", spec.leak(), &argv)
    }

    #[test]
    fn rows_split_into_name_kind_default_help() {
        let row = |name, spec, kind, default, help| Row {
            name,
            spec,
            kind,
            default,
            help,
        };
        let nodes = row(
            "--nodes",
            "N=32",
            Kind::Int,
            Some("32"),
            "simulated processors",
        );
        assert_eq!(split(FLAGS[0]), nodes);
        let audit = row("--audit", "", Kind::Switch, None, "check invariants");
        assert_eq!(split(FLAGS[2]), audit);
        assert_eq!(
            split(FLAGS[3]),
            row("--out", "S", Kind::Text, None, "output file")
        );
        let loads = row("--loads", "N,..", Kind::Ints, None, "task counts");
        assert_eq!(split(FLAGS[4]), loads);
        assert_eq!(split(FLAGS[5]), row("--bare", "", Kind::Switch, None, ""));
        assert_eq!(split("--x Not a kind").kind, Kind::Switch);
        assert_eq!(split("--x Not a kind").help, "Not a kind");
    }

    #[test]
    fn defaults_apply_and_positionals_mix_with_flags() {
        for argv in [
            &["rips", "queens9", "--nodes", "8", "--audit"][..],
            &["--nodes", "8", "rips", "--audit", "queens9"][..],
        ] {
            let a = parse("[<scheduler>] <app>", argv).unwrap();
            assert_eq!(a.pos(), ["rips", "queens9"]);
            assert_eq!(a.num::<usize>("--nodes"), 8);
            assert_eq!(a.num::<f64>("--scale"), 1.0);
            assert!(a.switch("--audit"));
            assert_eq!(a.get("--out"), None);
            assert_eq!(a.get("--undeclared"), None);
        }
        let a = parse("", &["--loads", "5, -2"]).unwrap();
        assert_eq!(a.list::<i64>("--loads"), Some(vec![5, -2]));
        assert_eq!(a.num::<usize>("--nodes"), 32);
        assert!(!a.switch("--audit"));
    }

    #[test]
    fn bad_input_is_an_error_naming_the_token() {
        let err = |positionals, argv: &[&str]| parse(positionals, argv).unwrap_err();
        assert!(err("", &["--node", "8"]).contains("'--node'"));
        assert!(err("", &["--nodes", "3x2"]).contains("'3x2' as N"));
        assert!(err("", &["--nodes", "-1"]).contains("'-1'"));
        assert!(err("", &["--loads", "1,x"]).contains("'1,x' as N,.."));
        assert!(err("", &["--nodes"]).contains("needs a value"));
        assert!(err("<scheduler> <app>", &["rips"]).contains("missing <app>"));
        assert!(err("<app>", &["a", "b"]).contains("'b'"));
        assert!(parse("[<scheduler> <app>]", &[]).is_ok());
        assert!(err("[<scheduler> <app>]", &["a", "b", "c"]).contains("'c'"));
    }

    #[test]
    fn usage_is_the_synopsis_and_the_aligned_rows() {
        const LIVE: Spec = &[
            "live [<scheduler>] <app>  run on real threads",
            "--nodes N=32   simulated processors",
            "--audit        check invariants",
        ];
        assert_eq!(
            synopsis(LIVE),
            ("live", "[<scheduler>] <app>", "run on real threads")
        );
        let u = usage("", LIVE);
        assert!(u.starts_with("usage: rips live [<scheduler>] <app> [flags]\n"));
        assert!(u.contains("\n  --nodes N=32                 simulated processors\n"));
        assert!(u.contains("\n  --audit                      check invariants\n"));
        assert_eq!(u.lines().count(), LIVE.len());
        assert_eq!(
            synopsis(&["apps  list the workloads"]),
            ("apps", "", "list the workloads")
        );
        assert_eq!(
            usage("repro ", &["fig4  Figure 4"]),
            "usage: rips repro fig4\n"
        );
    }
}
