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

/// How a `report` command is produced.
#[derive(Clone, Copy)]
pub enum Run {
    Plain(fn() -> String),
    /// Takes `--smoke`: a CI-sized variant of the same exhibit.
    Sized(fn(smoke: bool) -> String),
}
use Run::{Plain, Sized};

impl Run {
    /// Produce the command's output; `smoke` reaches only the commands
    /// that take it.
    pub fn call(self, smoke: bool) -> String {
        match self {
            Plain(f) => f(),
            Sized(f) => f(smoke),
        }
    }
}

/// The commands `report all` concatenates, in order: deterministic apart
/// from host wall-clock columns, no file written, minutes in total.
pub const ALL: &[(&str, Run)] = &[
    ("index", Plain(exhibits::index)),
    ("goals", Plain(exhibits::goals)),
    ("responsibilities", Plain(exhibits::responsibilities)),
    ("funding", Plain(exhibits::funding)),
    ("components", Plain(exhibits::components)),
    ("delta-peak", Plain(exhibits::delta_peak)),
    ("delta-linpack", Plain(exhibits::delta_linpack)),
    ("linpack-sweep", Plain(exhibits::linpack_sweep)),
    ("mpp-series", Plain(exhibits::mpp_series)),
    ("consortium-net", Plain(exhibits::consortium_net)),
    ("nren-upgrade", Plain(exhibits::nren_upgrade)),
    ("casa", Plain(exhibits::casa)),
    ("cas", Plain(exhibits::cas)),
    ("grand-challenges", Plain(exhibits::grand_challenges)),
    ("fft-scaling", Plain(exhibits::fft_scaling)),
    ("scheduler", Plain(exhibits::scheduler)),
    ("sched-service", Plain(exhibits::sched_service)),
    ("resilience", Sized(exhibits::resilience)),
    ("ablations", Plain(exhibits::ablations)),
    ("kernel-profile", Plain(exhibits::kernel_profile)),
    ("timeline", Plain(exhibits::timeline)),
];

/// Commands run only by name: `trace` writes `TRACE_*` files into the
/// CWD, the scale exhibits take minutes of host-dependent wall clock,
/// `prom-sample` is lint input for CI.
pub const STANDALONE: &[(&str, Run)] = &[
    ("trace", Sized(exhibits::trace)),
    ("bench-kernels", Plain(perf::report)),
    ("bench-des", Plain(desperf::report)),
    ("bench-net", Plain(netperf::report)),
    ("telemetry", Plain(telemetry::report)),
    ("prom-sample", Plain(telemetry::prom_sample)),
];

/// Every `report` subcommand: dispatch, `all` and the usage message are
/// all read from these two tables.
fn commands() -> impl Iterator<Item = &'static (&'static str, Run)> {
    ALL.iter().chain(STANDALONE)
}

/// Run subcommand `name`; `None` if there is no such command or it was
/// given a `--smoke` it does not take.
pub fn run(name: &str, smoke: bool) -> Option<String> {
    match commands().find(|(n, _)| *n == name)?.1 {
        Plain(_) if smoke => None,
        run => Some(run.call(smoke)),
    }
}

/// The command list as the usage message prints it.
pub fn usage() -> String {
    let names: Vec<String> = commands()
        .map(|(name, run)| match run {
            Plain(_) => name.to_string(),
            Sized(_) => format!("{name} [--smoke]"),
        })
        .collect();
    format!("all [--out <path>], {}", names.join(", "))
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
    fn command_names_are_unique_and_only_two_take_smoke() {
        let names: Vec<&str> = commands().map(|(name, _)| *name).collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "duplicate command {name}");
            assert_ne!(*name, "all", "`all` is the driver, not a command");
        }
        let usage = usage();
        assert!(usage.contains("resilience [--smoke]") && usage.contains("trace [--smoke]"));
        assert_eq!(usage.matches("--smoke").count(), 2);
        assert!(run("goals", true).is_none(), "goals took --smoke");
        assert!(run("goals", false).is_some());
        assert!(run("bogus", false).is_none());
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
