//! The metric tables: every name, its unit and its direction. They
//! mirror `BENCHMARK.json` (`--describe` prints them in that file's
//! form, and `run_all.sh` diffs the two).

use std::collections::BTreeMap;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        higher_is_better: true,
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload.
pub const END_TO_END: &[Def] = &[
    e2e("wall_s", "s", 0.20),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("allocs_per_pass", "count", 0.05),
];

/// Single layers, from the traced run and the report structs each call
/// returns. `_s` is self time per pass. A workload that does not call a
/// layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[Def] = &[
    lo("des.queue.ns_per_op", "ns"),
    lo("des.exec.ns_per_poll", "ns"),
    lo("mesh.shard.run_s", "s"),
    lo("mesh.shard.events", "count"),
    lo("mesh.shard.ns_per_event", "ns"),
    lo("mesh.shard.rounds", "count"),
    hi("mesh.shard.events_per_round", "count"),
    lo("mesh.shard.mail_msgs", "count"),
    lo("mesh.shard.lane_imbalance", "ratio"),
    hi("mesh.shard.speedup_vs_1lane", "ratio"),
    lo("mesh.sim.run_s", "s"),
    lo("mesh.sim.events", "count"),
    lo("mesh.sim.ns_per_event", "ns"),
    lo("mesh.sim.messages", "count"),
    lo("mesh.sim.bytes", "B"),
    hi("kernels.sim.lu2d.sim_gflops", "GF/s"),
    lo("sched.service.run_s", "s"),
    lo("sched.service.events", "count"),
    lo("sched.service.ns_per_sub", "ns"),
    hi("sched.service.complete_ratio", "ratio"),
    lo("sched.service.shed", "count"),
    lo("sched.service.quota_rejects", "count"),
    lo("sched.service.retries", "count"),
    lo("sched.service.max_pending", "count"),
    lo("netsim.flow.run_s", "s"),
    lo("netsim.fanout_s", "s"),
    lo("netsim.churn_s", "s"),
    lo("netsim.engine.events", "count"),
    lo("netsim.engine.ns_per_event", "ns"),
    lo("netsim.engine.resolves", "count"),
    lo("netsim.engine.full_resolves", "count"),
    lo("netsim.engine.mean_dirty", "count"),
    hi("netsim.engine.aggregated_joins", "count"),
    lo("netsim.engine.peak_entries", "count"),
    hi("kernels.gemm.gflops", "GF/s"),
    hi("kernels.lu.gflops", "GF/s"),
    hi("kernels.lu.frac_of_gemm", "ratio"),
    hi("kernels.fft.gflops", "GF/s"),
    lo("kernels.cg.iters", "count"),
    hi("kernels.spmv.gbytes_per_s", "GB/s"),
    hi("kernels.shallow.mcells_per_s", "Mcell/s"),
    lo("kernels.gemm.s", "s"),
    lo("kernels.lu.s", "s"),
    lo("kernels.fft.s", "s"),
    lo("kernels.cg.s", "s"),
    lo("kernels.shallow.s", "s"),
    lo("trace.stream.ns_per_event", "ns"),
    lo("trace.stream.events", "count"),
    lo("trace.stream.evicted", "count"),
    lo("trace.stream.unaccounted", "count"),
    lo("trace.http.scrape_s", "s"),
    lo("trace.http.chunk_s", "s"),
    lo("trace.http.bytes_per_scrape", "B"),
    lo("trace.lu2d_overhead", "ratio"),
    lo("bench.pass_median_s", "s"),
    lo("bench.pass_p90_s", "s"),
    hi("bench.passes", "count"),
    lo("bench.trace_overhead", "ratio"),
    lo("bench.alloc_bytes_per_pass", "B"),
];

/// Values for a subset of one table; names outside the table are a bug
/// in the benchmark and panic.
pub struct Metrics {
    table: &'static [Def],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(table: &'static [Def]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|d| d.name == name),
            "metric {name} is not in the table"
        );
        self.values
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every metric of the table in table order, unset ones as 0.
    pub fn all(&self) -> impl Iterator<Item = (&'static Def, f64)> + '_ {
        self.table.iter().map(|d| (d, self.get(d.name)))
    }
}
