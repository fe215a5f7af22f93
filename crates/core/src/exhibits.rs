//! The exhibit registry: every table and figure in the deck, what kind
//! of content it carries, and which `report` command regenerates it.
//! `hpcc-bench`'s `report` binary walks this registry; DESIGN.md's
//! exhibit table names the modules behind each exhibit.

/// What kind of content the exhibit carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhibitKind {
    /// Numeric table.
    Table,
    /// Figure / chart / network diagram.
    Figure,
    /// Bulleted prose (goals, approach, rosters).
    Narrative,
}

/// One exhibit of the deck.
#[derive(Debug, Clone)]
pub struct Exhibit {
    /// Our identifier (page-based, e.g. "T4-3a").
    pub id: &'static str,
    pub title: &'static str,
    pub kind: ExhibitKind,
    /// `report` subcommand that regenerates it.
    pub report_cmd: &'static str,
}

/// Every exhibit in the deck, in page order, plus the derived series
/// ("F-" ids) the evaluation harness sweeps.
pub fn registry() -> &'static [Exhibit] {
    &[
        Exhibit {
            id: "T4-1a",
            title: "Federal program goal and objectives",
            kind: ExhibitKind::Narrative,
            report_cmd: "goals",
        },
        Exhibit {
            id: "T4-1b",
            title: "Presidential commitment (P.L. 102-194)",
            kind: ExhibitKind::Narrative,
            report_cmd: "goals",
        },
        Exhibit {
            id: "T4-2",
            title: "Federal HPCC program responsibilities (agency × component matrix)",
            kind: ExhibitKind::Figure,
            report_cmd: "responsibilities",
        },
        Exhibit {
            id: "T4-3a",
            title: "Federal HPCC program funding FY 92-93 (dollars in millions)",
            kind: ExhibitKind::Table,
            report_cmd: "funding",
        },
        Exhibit {
            id: "T4-3b",
            title: "Funding by program component (HPCS/ASTA/NREN/BRHR)",
            kind: ExhibitKind::Figure,
            report_cmd: "components",
        },
        Exhibit {
            id: "T4-3c",
            title: "Approach (testbeds, application software teams, technology transfer)",
            kind: ExhibitKind::Narrative,
            report_cmd: "goals",
        },
        Exhibit {
            id: "T4-4a",
            title: "Touchstone Delta: peak 32 GFLOPS from 528 numeric processors",
            kind: ExhibitKind::Table,
            report_cmd: "delta-peak",
        },
        Exhibit {
            id: "T4-4b",
            title: "Touchstone Delta: 13 GFLOPS LINPACK at order 25,000",
            kind: ExhibitKind::Table,
            report_cmd: "delta-linpack",
        },
        Exhibit {
            id: "F-T4-4c",
            title: "LINPACK GFLOPS vs matrix order (derived sweep)",
            kind: ExhibitKind::Figure,
            report_cmd: "linpack-sweep",
        },
        Exhibit {
            id: "F-T4-4d",
            title: "DARPA Touchstone series: iPSC/860 → Delta → Paragon",
            kind: ExhibitKind::Figure,
            report_cmd: "mpp-series",
        },
        Exhibit {
            id: "T4-5a",
            title: "Delta Consortium partners network (6 link classes)",
            kind: ExhibitKind::Figure,
            report_cmd: "consortium-net",
        },
        Exhibit {
            id: "F-T4-5b",
            title: "NREN backbone upgrade: T1 → T3 → gigabit (derived sweep)",
            kind: ExhibitKind::Figure,
            report_cmd: "nren-upgrade",
        },
        Exhibit {
            id: "T4-5c",
            title: "CASA HIPPI/SONET 800 Mb/s gigabit testbed",
            kind: ExhibitKind::Table,
            report_cmd: "casa",
        },
        Exhibit {
            id: "T4-5d",
            title: "Concurrent Supercomputer Consortium membership",
            kind: ExhibitKind::Narrative,
            report_cmd: "consortium-net",
        },
        Exhibit {
            id: "T4-6",
            title: "CAS consortium: purposes and private-sector participants",
            kind: ExhibitKind::Narrative,
            report_cmd: "cas",
        },
        Exhibit {
            id: "T4-4e",
            title: "'Acquire and utilize': space-sharing the Delta (FCFS vs backfill)",
            kind: ExhibitKind::Table,
            report_cmd: "scheduler",
        },
        Exhibit {
            id: "AB-1",
            title: "Ablation: wormhole vs store-and-forward; broadcast algorithms",
            kind: ExhibitKind::Table,
            report_cmd: "ablations",
        },
        Exhibit {
            id: "RES-1",
            title: "Fault injection & recovery: Young's checkpoint optimum, scheduler \
                    crashes, WAN outages",
            kind: ExhibitKind::Table,
            report_cmd: "resilience",
        },
        Exhibit {
            id: "SCHED-1",
            title: "Scheduler as a service: admission control, quotas, shed tiers, \
                    retry/backoff under overload and faults",
            kind: ExhibitKind::Table,
            report_cmd: "sched-service",
        },
        Exhibit {
            id: "NET-1",
            title: "Incremental max-min flow engine: the T1->T3->gigabit upgrade story \
                    at modern tiers, and 1M concurrent flows on fat-tree/dragonfly \
                    fabrics",
            kind: ExhibitKind::Table,
            report_cmd: "bench-net",
        },
        Exhibit {
            id: "OBS-1",
            title: "End-to-end trace: faulted LU-2D, WAN staging, scheduler (Perfetto)",
            kind: ExhibitKind::Figure,
            report_cmd: "trace",
        },
        Exhibit {
            id: "OBS-2",
            title: "Live telemetry service: streaming recorder, Prometheus /metrics and \
                    Chrome-trace chunks over HTTP under concurrent scrapers",
            kind: ExhibitKind::Table,
            report_cmd: "telemetry",
        },
        Exhibit {
            id: "GC-0",
            title: "ASTA kernel profile on the simulated Delta (who scales, who doesn't)",
            kind: ExhibitKind::Figure,
            report_cmd: "kernel-profile",
        },
        Exhibit {
            id: "TL-1",
            title: "Program timeline and out-year gaps (teraops, gigabit)",
            kind: ExhibitKind::Narrative,
            report_cmd: "timeline",
        },
        Exhibit {
            id: "GC-1",
            title: "Grand Challenge kernels: host-parallel speedups (ASTA column)",
            kind: ExhibitKind::Figure,
            report_cmd: "grand-challenges",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_deck_page() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        // One entry minimum per physical page T4-1..T4-6.
        for page in 1..=6 {
            let prefix = format!("T4-{page}");
            assert!(
                ids.iter().any(|i| i.contains(&prefix)),
                "page {prefix} uncovered"
            );
        }
    }

    #[test]
    fn ids_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry().len());
    }

    #[test]
    fn every_table_and_figure_has_a_report_command() {
        for e in registry() {
            assert!(!e.report_cmd.is_empty(), "{}", e.id);
        }
        let t4_4b = registry().iter().find(|e| e.id == "T4-4b").unwrap();
        assert_eq!(t4_4b.report_cmd, "delta-linpack");
    }
}
