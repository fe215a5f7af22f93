//! `hpcc-bench` — the evaluation harness: everything needed to regenerate
//! the paper's tables and figures.
//!
//! * [`exhibits`] builds each exhibit's reproduction as a printable
//!   report (used by the `report` binary, the integration tests, and
//!   EXPERIMENTS.md). Every one is a function of its seeds and the
//!   models; what the host's speed shows is measured by the repeatable
//!   benchmark (`benchmark/`), not here.
//! * [`ALL`] and [`STANDALONE`] are the `report` binary's command set.

pub mod exhibits;

use std::time::Instant;

/// Wall seconds of one call of `f` (never zero), with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64().max(1e-9), out)
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

/// Commands run only by name, each as deterministic as [`ALL`]'s and
/// pinned by its own hash: `trace` writes `TRACE_*` files into the CWD,
/// `prom-sample` is lint input for CI.
pub const STANDALONE: &[Entry] = &[
    ("trace", exhibits::trace),
    ("prom-sample", exhibits::prom_sample),
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

    /// `report` offers `all`, [`ALL`] in order, `trace` and
    /// `prom-sample`, nothing else. The host-timed commands that once
    /// stood beside them are unknown names: `report` prints its usage
    /// and exits 2.
    #[test]
    fn report_command_set_is_pinned() {
        let mut want = vec!["all"];
        want.extend(ALL.iter().map(|(name, _)| *name));
        want.extend(["trace", "prom-sample"]);
        assert_eq!(usage(), want.join(", "));
        for (i, name) in want.iter().enumerate() {
            assert!(!want[..i].contains(name), "duplicate command {name}");
        }
        for gone in [
            "grand-challenges",
            "bench-kernels",
            "bench-des",
            "bench-net",
            "telemetry",
            "bench-sched",
        ] {
            assert!(parse(&[gone]).is_none(), "`report {gone}` still parses");
        }
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
}
