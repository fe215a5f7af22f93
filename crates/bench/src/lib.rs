//! `hpcc-bench` — the evaluation harness: everything needed to regenerate
//! the paper's tables and figures.
//!
//! * [`exhibits`] builds each exhibit's reproduction as a printable
//!   report (used by the `report` binary, the integration tests, and
//!   EXPERIMENTS.md).
//! * [`perf`], [`desperf`], [`netperf`] and [`telemetry`] are the
//!   full-size scale exhibits: wall-clock tables at sizes the repeatable
//!   benchmark (`benchmark/`, the one harness that measures for the
//!   record) does not reach. The gated ones print every gate's verdict
//!   under their tables. They write nothing.
//! * [`ALL`] and [`STANDALONE`] are the `report` binary's command set.

pub mod desperf;
pub mod exhibits;
pub mod netperf;
pub mod perf;
pub mod telemetry;

use std::fmt::Write as _;
use std::time::Instant;

/// Wall seconds of one call of `f` (never zero), with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64().max(1e-9), out)
}

/// Fastest time per side over `reps` rounds. A round calls every side
/// once, starting one side later than the round before, so a slow drift
/// of the host's speed lands on all sides alike. A side returns the
/// seconds it measured ([`timed`] around its work, so set-up such as
/// cloning an input stays untimed). No separate warm-up: a cold first
/// call is just a rep that loses.
pub(crate) fn best_of<const N: usize>(
    reps: usize,
    sides: [&mut dyn FnMut() -> f64; N],
) -> [f64; N] {
    let mut best = [f64::MAX; N];
    for rep in 0..reps {
        for k in rep..rep + N {
            best[k % N] = best[k % N].min(sides[k % N]());
        }
    }
    best
}

/// One gate of a scale exhibit: whether it held, and what it measured
/// against which bound.
pub(crate) type Gate = (bool, String);

/// A gated scale exhibit's output: `tables`, then one `gate …: ok` or
/// `gate …: FAILED` line per gate. When any gate failed it panics
/// (exit 101) with all of that, so a failing run still shows every row
/// and every gate.
pub(crate) fn gated(tables: String, gates: Vec<Gate>) -> String {
    let mut out = tables + "\n";
    for (ok, line) in &gates {
        let _ = writeln!(out, "gate {line}: {}", if *ok { "ok" } else { "FAILED" });
    }
    if gates.iter().all(|(ok, _)| *ok) {
        out
    } else {
        panic!("{out}")
    }
}

/// A `report` command: its name and what it prints.
type Entry = (&'static str, fn() -> String);

/// The commands `report all` concatenates, in order. Each is a function
/// of its seeds and the models alone, so `report all` reproduces the
/// committed `report_all.txt` byte for byte. No file written, minutes in
/// total.
pub const ALL: &[Entry] = &[
    ("index", exhibits::index),
    ("goals", exhibits::goals),
    ("responsibilities", exhibits::responsibilities),
    ("funding", exhibits::funding),
    ("components", exhibits::components),
    ("delta-peak", exhibits::delta_peak),
    ("delta-linpack", exhibits::delta_linpack),
    ("linpack-sweep", exhibits::linpack_sweep),
    ("mpp-series", exhibits::mpp_series),
    ("consortium-net", exhibits::consortium_net),
    ("nren-upgrade", exhibits::nren_upgrade),
    ("casa", exhibits::casa),
    ("cas", exhibits::cas),
    ("fft-scaling", exhibits::fft_scaling),
    ("scheduler", exhibits::scheduler),
    ("sched-service", exhibits::sched_service),
    ("resilience", exhibits::resilience),
    ("ablations", exhibits::ablations),
    ("kernel-profile", exhibits::kernel_profile),
    ("timeline", exhibits::timeline),
];

/// Commands run only by name: `trace` writes `TRACE_*` files into the
/// CWD, `grand-challenges` and the scale exhibits time the host,
/// `prom-sample` is lint input for CI.
pub const STANDALONE: &[Entry] = &[
    ("trace", exhibits::trace),
    ("grand-challenges", exhibits::grand_challenges),
    ("bench-kernels", perf::report),
    ("bench-des", desperf::report),
    ("bench-net", netperf::report),
    ("telemetry", telemetry::report),
    ("prom-sample", telemetry::prom_sample),
];

/// Every `report` subcommand: dispatch and the usage message are both
/// read from these two tables.
fn commands() -> impl Iterator<Item = &'static Entry> {
    ALL.iter().chain(STANDALONE)
}

/// What one `report` invocation runs.
pub enum Command {
    /// Every command of [`ALL`], in order.
    All,
    /// One command of either table.
    One(fn() -> String),
}

/// Parse `report`'s arguments (the program name excluded): none runs
/// `index`, one runs `all` or the command it names. Anything else, an
/// unknown name or a second argument, is `None`.
pub fn parse<S: AsRef<str>>(args: &[S]) -> Option<Command> {
    let name = match args {
        [] => "index",
        [name] => name.as_ref(),
        _ => return None,
    };
    if name == "all" {
        return Some(Command::All);
    }
    commands()
        .find(|(n, _)| *n == name)
        .map(|&(_, f)| Command::One(f))
}

/// The command list as the usage message prints it.
pub fn usage() -> String {
    let names: Vec<&str> = commands().map(|(name, _)| *name).collect();
    format!("all, {}", names.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_exhibit_resolves_to_a_command() {
        for e in hpcc_core::registry() {
            assert!(
                commands().any(|(name, _)| *name == e.report_cmd),
                "{}: no `report {}`",
                e.id,
                e.report_cmd
            );
        }
    }

    #[test]
    fn command_names_are_unique_and_all_reads_no_host_clock() {
        let names: Vec<&str> = commands().map(|(name, _)| *name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "duplicate command {name}");
            assert_ne!(*name, "all", "`all` is the driver, not a command");
        }
        for (name, _) in ALL {
            let host_timed =
                *name == "grand-challenges" || *name == "telemetry" || name.starts_with("bench-");
            assert!(!host_timed, "`report all` runs host-timed `{name}`");
        }
        let usage = usage();
        assert!(names.iter().all(|name| usage.contains(name)), "{usage}");
    }

    #[test]
    fn report_takes_one_command_name_and_nothing_else() {
        let refused: [&[&str]; 5] = [
            &["trace", "--smoke"],
            &["all", "--out", "x"],
            &["--smoke"],
            &["bogus"],
            &["goals", "goals"],
        ];
        for args in refused {
            assert!(parse(args).is_none(), "{args:?} accepted");
        }
        assert!(matches!(parse(&["all"]), Some(Command::All)));
        let runs = |args: &[&str], want: fn() -> String| match parse(args) {
            Some(Command::One(f)) => assert_eq!(f(), want(), "{args:?}"),
            _ => panic!("{args:?} refused"),
        };
        runs(&["goals"], exhibits::goals);
        runs(&[], exhibits::index);
    }

    #[test]
    fn best_of_rotates_the_sides_and_keeps_each_fastest() {
        let order = &std::cell::RefCell::new(String::new());
        let side = |name: char, secs: [f64; 3]| {
            let mut rep = 0;
            move || {
                order.borrow_mut().push(name);
                rep += 1;
                secs[rep - 1]
            }
        };
        let best = best_of(
            3,
            [
                &mut side('a', [3.0, 1.0, 2.0]),
                &mut side('b', [0.5, 4.0, 5.0]),
            ],
        );
        assert_eq!(best, [1.0, 0.5]);
        assert_eq!(*order.borrow(), "abbaab");
    }

    /// What `f` panicked with; fails the test if it returned.
    pub(crate) fn panic_text(f: impl FnOnce() -> String + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("a failed gate must panic");
        *payload
            .downcast::<String>()
            .expect("panic message is a String")
    }

    #[test]
    fn gated_prints_every_gate_and_fails_on_any() {
        let pass = vec![(true, "a 1.0x (>= 1x)".to_string())];
        assert_eq!(
            gated("T\n".into(), pass.clone()),
            "T\n\ngate a 1.0x (>= 1x): ok\n"
        );
        let fail = [pass, vec![(false, "b 0.5x (>= 1x)".to_string())]].concat();
        let text = panic_text(|| gated("T\n".into(), fail));
        assert_eq!(
            text,
            "T\n\ngate a 1.0x (>= 1x): ok\ngate b 0.5x (>= 1x): FAILED\n"
        );
    }
}
