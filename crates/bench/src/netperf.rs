//! Exhibit NET-1, the WAN flow-engine scale tables: the incremental
//! max-min solver against the full-recompute baseline up to a million
//! concurrent flows, and the paper's T1→T3→gigabit upgrade story
//! replayed with modern fat-tree/dragonfly fabrics on each coast.
//! `report bench-net` prints both and asserts the headline claims. The
//! engine at thousands of flows, outage included, is the `wan_flows`
//! workload of `benchmark/`.
//!
//! Two scenarios:
//!
//! * `upgrade` — 16 west-fabric hosts each push a file to an east-
//!   fabric host across the consortium WAN, swept over the WAN tier
//!   from T1 to 400G. The fabrics are modern either way; until the
//!   long-haul tier catches up, the WAN is the whole story — the same
//!   shape as the 1992 NREN argument, three decades of tiers later.
//! * `scale` — a 128-host fat-tree fan-out (16 senders, heavy-tailed
//!   Pareto sizes) at 10k/100k/1M concurrent flows. The baseline is a
//!   full max-min re-solve of the whole roster on every event
//!   (`SolverMode::Global`) with the same aggregation config, so the
//!   ratio isolates the incremental solver. The baseline runs at the
//!   scales it can finish; at 1M flows only the incremental engine is
//!   measured, and the speedup column is the events/sec ratio against
//!   the baseline at the same flow count.

use crate::timed;
use des::rng::Rng;
use des::time::SimTime;
use hpcc_core::{fnum, Table};
use nren_netsim::{
    fabric_to_wan, fat_tree, workload, FlowConfig, FlowSim, LinkClass, SolverMode, TransferSpec,
};
use std::collections::HashSet;

/// One measured network-engine configuration.
pub struct NetRow {
    /// WAN tier label, or the solver under test.
    pub label: String,
    /// Concurrent transfers offered.
    pub flows: usize,
    /// Simulator events processed (arrivals batched per instant).
    pub events: u64,
    /// Wall time, milliseconds.
    pub ms: f64,
    /// events / wall second — the figure of merit for `scale`.
    pub events_per_sec: f64,
    /// Virtual time of the last completion.
    pub makespan_s: f64,
    /// Aggregate goodput, MB/s of virtual time — the figure of merit
    /// for `upgrade`.
    pub mbytes_per_sec: f64,
    /// Peak concurrent flows the engine actually held.
    pub peak_flows: u64,
    /// Mean affected-set size per resolve.
    pub mean_dirty: f64,
    /// Resolves that fell back to a full re-solve.
    pub full_resolves: u64,
    /// events/sec over the baseline at the same scale (0 = n/a).
    pub speedup: f64,
}

/// The incremental engine as shipped: affected-set solver plus
/// short-flow aggregation under 16 MiB. `verify` checks every resolve
/// against the reference solver — affordable at unit-test sizes only.
fn incremental_cfg(verify: bool) -> FlowConfig {
    FlowConfig {
        solver: SolverMode::Incremental {
            full_fraction: 0.25,
        },
        aggregate_below: 16 << 20,
        verify,
    }
}

/// The full-recompute baseline: every event re-solves max-min rates
/// for the whole roster (`SolverMode::Global`). Aggregation is kept
/// identical to the incremental config so the events/sec ratio
/// isolates the solver; the legacy engine — global re-solve over every
/// *individual* flow — is strictly slower than this baseline.
fn baseline_cfg() -> FlowConfig {
    FlowConfig {
        solver: SolverMode::Global,
        aggregate_below: 16 << 20,
        verify: false,
    }
}

fn run_once(
    net: &nren_netsim::Net,
    specs: Vec<TransferSpec>,
    cfg: FlowConfig,
    label: String,
) -> NetRow {
    let flows = specs.len();
    let bytes: f64 = specs.iter().map(|s| s.bytes as f64).sum();
    let pairs: HashSet<_> = specs.iter().map(|s| (s.src, s.dst)).collect();
    let sources: HashSet<_> = specs.iter().map(|s| s.src).collect();
    let (wall, run) = timed(|| FlowSim::with_config(net, cfg).run_with_faults(specs, &[]));
    let (outcomes, stats) = run.expect("fault-free run cannot error");
    assert_eq!(outcomes.len(), flows, "{label}: lost flows");
    // Routing is per source, not per flow: with no link transitions the
    // run builds one tree per sender and reads each pair out of it once.
    // A slide back to a Dijkstra per flow fails here, not as a slow row.
    let routing = stats.routing;
    assert!(
        routing.misses <= pairs.len() as u64 && routing.trees <= sources.len() as u64,
        "{label}: {routing:?} for {} pairs from {} sources",
        pairs.len(),
        sources.len()
    );
    let makespan = stats.makespan.as_secs_f64();
    NetRow {
        label,
        flows,
        events: stats.solver.events,
        ms: wall * 1e3,
        events_per_sec: stats.solver.events as f64 / wall,
        makespan_s: makespan,
        mbytes_per_sec: bytes / makespan.max(1e-9) / 1e6,
        peak_flows: stats.solver.peak_flows as u64,
        mean_dirty: stats.solver.mean_dirty(),
        full_resolves: stats.solver.full_resolves,
        speedup: 0.0,
    }
}

/// The upgrade story: coast-to-coast transfers of `bytes` each between
/// modern fabrics, WAN tier swept from the 1992 starting point to 400G.
fn upgrade_rows(bytes: u64, verify: bool) -> Vec<NetRow> {
    let tiers = [
        LinkClass::T1,
        LinkClass::T3,
        LinkClass::Gigabit,
        LinkClass::Gig100,
        LinkClass::Gig400,
    ];
    tiers
        .iter()
        .map(|&wan| {
            let (net, west, east) = fabric_to_wan(4, wan, LinkClass::Gig400);
            let specs: Vec<TransferSpec> = west
                .iter()
                .zip(&east)
                .map(|(&w, &e)| TransferSpec::new(w, e, bytes, SimTime::ZERO))
                .collect();
            run_once(
                &net,
                specs,
                incremental_cfg(verify),
                wan.label().to_string(),
            )
        })
        .collect()
}

/// Fan-out workload on a 128-host fat-tree: heavy-tailed flow sizes,
/// everything arriving at t=0, so `flows` is also the peak concurrency.
fn fan_out(fab: &nren_netsim::Fabric, flows: usize) -> Vec<TransferSpec> {
    let mut rng = Rng::new(0x9e37);
    workload::fan_out_traffic(&fab.hosts, 16, &mut rng, flows, 1e6, SimTime::ZERO)
}

/// The scale sweep: the full-recompute baseline at `baseline_scales`
/// (where it can finish), the incremental engine at `incr_scales`,
/// speedup computed at matched flow counts.
fn scale_rows(baseline_scales: &[usize], incr_scales: &[usize], verify: bool) -> Vec<NetRow> {
    let fab = fat_tree(8, LinkClass::Gigabit, LinkClass::Gig100, "f.");
    let mut rows = Vec::new();
    for &n in baseline_scales {
        rows.push(run_once(
            &fab.net,
            fan_out(&fab, n),
            baseline_cfg(),
            "global (baseline)".into(),
        ));
    }
    for &n in incr_scales {
        let mut r = run_once(
            &fab.net,
            fan_out(&fab, n),
            incremental_cfg(verify),
            "incremental".into(),
        );
        if let Some(base) = rows
            .iter()
            .find(|b| b.flows == n && b.label.starts_with("global"))
        {
            r.speedup = r.events_per_sec / base.events_per_sec;
        }
        assert_eq!(r.peak_flows as usize, n, "engine dropped concurrency");
        rows.push(r);
    }
    rows
}

/// The (upgrade, scale) rows at full size, with the headline claims
/// asserted: 1M concurrent flows held, and ≥10× baseline events/sec at
/// the largest scale the baseline finishes.
pub fn snapshot() -> (Vec<NetRow>, Vec<NetRow>) {
    let scale = scale_rows(&[10_000, 100_000], &[10_000, 100_000, 1_000_000], false);
    let top = scale
        .iter()
        .filter(|r| r.speedup > 0.0)
        .max_by_key(|r| r.flows)
        .expect("scale sweep lost its baseline comparison");
    assert!(
        top.speedup >= 10.0,
        "incremental engine only {:.1}x over full recompute at {} flows",
        top.speedup,
        top.flows
    );
    let million = scale.iter().find(|r| r.flows == 1_000_000).unwrap();
    assert_eq!(million.peak_flows, 1_000_000);
    (upgrade_rows(16 << 20, false), scale)
}

/// The upgrade-story table `report bench-net` prints.
fn upgrade_table(rows: &[NetRow]) -> Table {
    let mut t = Table::new(
        "Exhibit NET-1 — WAN upgrade story (modern fabrics, WAN tier swept)",
        &["WAN tier", "Flows", "Makespan s", "MB/s", "Events"],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.flows.to_string(),
            fnum(r.makespan_s, 2),
            fnum(r.mbytes_per_sec, 2),
            r.events.to_string(),
        ]);
    }
    t
}

/// The scale-sweep table `report bench-net` prints.
fn scale_table(rows: &[NetRow]) -> Table {
    let mut t = Table::new(
        "Exhibit NET-1 — flow-engine scaling (128-host fat-tree fan-out)",
        &[
            "Solver",
            "Flows",
            "Events",
            "ms",
            "events/s",
            "Dirty/ev",
            "Full res.",
            "Speedup",
        ],
    );
    for r in rows {
        t.row(&[
            r.label.clone(),
            r.flows.to_string(),
            r.events.to_string(),
            fnum(r.ms, 1),
            fnum(r.events_per_sec, 0),
            fnum(r.mean_dirty, 1),
            r.full_resolves.to_string(),
            if r.speedup > 0.0 {
                format!("{:.1}x", r.speedup)
            } else {
                "-".into()
            },
        ]);
    }
    t
}

/// `report bench-net`: measure, assert the headline claims, print.
pub fn report() -> String {
    let (upgrade, scale) = snapshot();
    format!("{}\n{}", upgrade_table(&upgrade), scale_table(&scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upgrade_story_monotone_in_wan_tier() {
        let rows = upgrade_rows(1 << 20, true);
        assert_eq!(rows.len(), 5);
        for w in rows.windows(2) {
            assert!(
                w[1].mbytes_per_sec >= w[0].mbytes_per_sec * 0.999,
                "{} slower than {}",
                w[1].label,
                w[0].label
            );
        }
        // T1 cannot move 16 coast-to-coast megabytes quickly; 400G can.
        assert!(rows[0].makespan_s > rows[4].makespan_s * 10.0);
        assert_eq!(upgrade_table(&rows).n_rows(), 5);
    }

    /// Every resolve of the incremental row is checked against the
    /// reference solver (`verify`), then the two engines are compared.
    #[test]
    fn small_scale_rows_verify_and_compare() {
        let rows = scale_rows(&[2_000], &[2_000], true);
        assert_eq!(rows.len(), 2);
        let base = &rows[0];
        let incr = &rows[1];
        assert!(base.label.starts_with("global"));
        assert!(incr.speedup > 0.0, "speedup not computed");
        // Both engines deliver the same bytes in the same virtual time
        // (aggregation and lazy drains are schedule-preserving).
        let rel = (base.makespan_s - incr.makespan_s).abs() / base.makespan_s;
        assert!(rel < 1e-6, "makespans diverged: {rel}");
        assert!(scale_table(&rows).to_string().contains("events/s"));
    }
}
