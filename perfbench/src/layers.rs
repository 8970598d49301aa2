//! The per-layer ledger of a traced run: every `per_layer` metric of
//! `BENCHMARK.json`, emitted by every workload in one fixed order. A layer
//! a workload does not drive reads 0.

use crate::report::Metrics;
use crate::stats::Histogram;
use std::time::Instant;
use warehouse_alloc::tcmalloc::{CycleCategory, CycleStats};

/// Allocator tiers in `AllocPath::ALL` order.
pub const TIERS: [&str; 5] = ["percpu", "transfer", "central", "pageheap", "mmap"];

/// Host time spent in one layer's calls.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timing {
    /// Busy time, ns: the sum of the calls' durations.
    pub busy_ns: u64,
    /// Per-call durations, ns.
    pub hist: Histogram,
}

impl Timing {
    /// Files one call that started at `start`.
    pub fn since(&mut self, start: Instant) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns += ns;
        self.hist.record(ns);
    }

    /// Number of calls.
    pub fn calls(&self) -> u64 {
        self.hist.count()
    }

    /// Busy time, seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9
    }

    fn merge(&mut self, other: &Timing) {
        self.busy_ns += other.busy_ns;
        self.hist.merge(&other.hist);
    }

    fn put(&self, m: &mut Metrics, prefix: &str, with_p50: bool) {
        let p = self.hist.percentiles();
        m.put(format!("{prefix}.calls"), p.n as f64, "count");
        m.put(format!("{prefix}.busy_s"), self.busy_s(), "s");
        if with_p50 {
            m.put(format!("{prefix}.p50_ns"), p.p50 as f64, "ns");
        }
        let (pct, value) = p.tail.unwrap_or((0.0, 0));
        m.put(format!("{prefix}.tail_ns"), value as f64, "ns");
        m.put(format!("{prefix}.tail_pct"), pct, "%");
    }
}

/// Everything a traced run reports.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// `malloc_with_site` calls by deepest tier reached.
    pub malloc: [Timing; 5],
    /// `free` calls by deepest tier reached (an `Mmap` free counts as
    /// pageheap).
    pub free: [Timing; 4],
    /// `resident_bytes` calls (the sim-os page-table residency scan).
    pub resident: Timing,
    /// `maintain` calls.
    pub maintain: Timing,
    /// Traced replay wall time not spent in a timed call, ns.
    pub replay_self_ns: u64,
    /// `SizeClassTable::class_for` over the trace's request sizes.
    pub size_class_ns_per_lookup: f64,
    /// Median `Trace::record` time.
    pub trace_record_s: f64,
    /// Median `Tcmalloc::new` time per fleet platform, µs.
    pub new_us: Vec<(String, f64)>,
    /// Leaves per traced survey pass.
    pub leaf_count: usize,
    /// Busy seconds of every traced survey leaf.
    pub leaf_s: Vec<f64>,
    /// Summed leaf busy time over (threads × untraced wall).
    pub parallel_efficiency: f64,
    /// Median `Population::new` time.
    pub population_build_s: f64,
    /// `CellSummary::{merge, encode, decode}` on a real summary, ns.
    pub summary_ns: [f64; 3],
    /// Encoded summary size.
    pub summary_bytes: usize,
    /// `parallel::proc::{encode_payload, decode_payload}` of that summary, ns.
    pub frame_ns: [f64; 2],
    /// The modelled Figure 6a ledger of the traced replays.
    pub sim: CycleStats,
    /// Malloc plus free calls the ledger covers.
    pub sim_ops: u64,
    /// Median simulated peak resident heap of the traced replays, MiB.
    pub sim_peak_resident_mib: f64,
    /// The traced survey's fleet `Comparison`, % (throughput, memory).
    pub fleet_delta_pct: [f64; 2],
    /// Traced wall time, summed over the traced passes.
    pub traced_wall_s: f64,
    /// Untraced wall time of the same passes.
    pub untraced_wall_s: f64,
}

impl Layers {
    /// Every timed replay layer, in emission order.
    fn timings(&self) -> impl Iterator<Item = (String, &Timing)> {
        let malloc = self
            .malloc
            .iter()
            .zip(TIERS)
            .map(|(t, n)| (format!("tcmalloc.malloc.{n}"), t));
        let free = self
            .free
            .iter()
            .zip(TIERS)
            .map(|(t, n)| (format!("tcmalloc.free.{n}"), t));
        malloc.chain(free).chain([
            ("sim-os.resident_query".to_string(), &self.resident),
            ("tcmalloc.maintain".to_string(), &self.maintain),
        ])
    }

    /// Adds one traced replay pass.
    pub fn merge_replay(&mut self, other: &Layers) {
        for (a, b) in self.malloc.iter_mut().zip(&other.malloc) {
            a.merge(b);
        }
        for (a, b) in self.free.iter_mut().zip(&other.free) {
            a.merge(b);
        }
        self.resident.merge(&other.resident);
        self.maintain.merge(&other.maintain);
        self.replay_self_ns += other.replay_self_ns;
        self.sim.merge(&other.sim);
        self.sim_ops += other.sim_ops;
    }

    /// Call count of every timed replay layer.
    pub fn call_counts(&self) -> Vec<u64> {
        self.timings().map(|(_, t)| t.calls()).collect()
    }

    /// Every timed replay layer with its busy seconds, then
    /// `bench.replay.self_s`. They sum to the traced wall time.
    pub fn replay_parts(&self) -> Vec<(String, f64)> {
        let mut parts: Vec<_> = self.timings().map(|(n, t)| (n, t.busy_s())).collect();
        parts.push((
            "bench.replay.self_s".into(),
            self.replay_self_ns as f64 / 1e9,
        ));
        parts
    }

    /// Emits every per-layer metric.
    pub fn put(&self, m: &mut Metrics) {
        for (name, t) in self.timings() {
            let is_tier = name.starts_with("tcmalloc.malloc") || name.starts_with("tcmalloc.free");
            t.put(m, &name, is_tier);
        }
        m.put(
            "tcmalloc.size_class.ns_per_lookup",
            self.size_class_ns_per_lookup,
            "ns",
        );
        m.put("workload.trace_record_s", self.trace_record_s, "s");
        m.put("bench.replay.self_s", self.replay_self_ns as f64 / 1e9, "s");
        for (platform, us) in &self.new_us {
            m.put(format!("tcmalloc.new_us.{platform}"), *us, "us");
        }
        let leaf_p50 = if self.leaf_s.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.leaf_s)
        };
        m.put("parallel.leaf.count", self.leaf_count as f64, "count");
        m.put("parallel.leaf.p50_s", leaf_p50, "s");
        m.put(
            "parallel.leaf.max_s",
            self.leaf_s.iter().copied().fold(0.0, f64::max),
            "s",
        );
        m.put("parallel.efficiency", self.parallel_efficiency, "ratio");
        m.put("fleet.population_build_s", self.population_build_s, "s");
        for (name, ns) in ["merge_ns", "encode_ns", "decode_ns"]
            .iter()
            .zip(self.summary_ns)
        {
            m.put(format!("fleet.summary.{name}"), ns, "ns");
        }
        m.put("fleet.summary.bytes", self.summary_bytes as f64, "bytes");
        m.put("parallel.proc.frame_encode_ns", self.frame_ns[0], "ns");
        m.put("parallel.proc.frame_decode_ns", self.frame_ns[1], "ns");
        for cat in CycleCategory::ALL {
            m.put(format!("sim.{}.ns", cat.name()), self.sim.ns(cat), "sim-ns");
            m.put(
                format!("sim.{}.ops", cat.name()),
                self.sim.ops(cat) as f64,
                "count",
            );
        }
        let per_op = if self.sim_ops == 0 {
            0.0
        } else {
            self.sim.total_ns() / self.sim_ops as f64
        };
        m.put("sim.alloc_ns_per_op", per_op, "sim-ns");
        m.put("sim.peak_resident_mib", self.sim_peak_resident_mib, "MiB");
        m.put("fleet.throughput_delta_pct", self.fleet_delta_pct[0], "%");
        m.put("fleet.memory_delta_pct", self.fleet_delta_pct[1], "%");
        m.put("bench.traced_wall_s", self.traced_wall_s, "s");
        m.put("bench.untraced_wall_s", self.untraced_wall_s, "s");
        let overhead = 100.0 * (self.traced_wall_s / self.untraced_wall_s - 1.0);
        m.put("trace.overhead_pct", overhead, "%");
    }

    /// Prints the host per-tier table beside the modelled ledger: the
    /// simulator's own cost next to paper Figures 4 and 6a.
    pub fn print_tier_table(&self) {
        let wall = self.traced_wall_s;
        let sim_total = self.sim.total_ns().max(f64::MIN_POSITIVE);
        let host = |tiers: &[usize]| -> (u64, f64) {
            tiers.iter().fold((0, 0.0), |(n, s), &i| {
                let free = self
                    .free
                    .get(i)
                    .map_or((0, 0.0), |f| (f.calls(), f.busy_s()));
                let malloc = &self.malloc[i];
                (n + malloc.calls() + free.0, s + malloc.busy_s() + free.1)
            })
        };
        let sim_cell = |cat: CycleCategory| {
            let ns = self.sim.ns(cat);
            let share = 100.0 * ns / sim_total;
            format!(
                "{:<16} {ns:>14.0} {share:>6.1}% {:>10}",
                cat.name(),
                self.sim.ops(cat)
            )
        };
        let host_cell = |name: &str, calls: u64, busy: f64| {
            let share = 100.0 * busy / wall;
            format!("{name:<28} {calls:>10} {busy:>10.4} {share:>6.1}%")
        };
        println!();
        println!(
            "{:<28} {:>10} {:>10} {:>7} | {:<16} {:>14} {:>7} {:>10}",
            "host layer", "calls", "busy_s", "share", "sim category", "sim_ns", "share", "ops"
        );
        let tiers: [(&str, &[usize], CycleCategory); 4] = [
            ("tcmalloc.percpu", &[0], CycleCategory::CpuCache),
            ("tcmalloc.transfer", &[1], CycleCategory::TransferCache),
            ("tcmalloc.central", &[2], CycleCategory::CentralFreeList),
            ("tcmalloc.pageheap+mmap", &[3, 4], CycleCategory::PageHeap),
        ];
        for (name, idx, cat) in tiers {
            let (calls, busy) = host(idx);
            println!("{} | {}", host_cell(name, calls, busy), sim_cell(cat));
        }
        let rest = [
            host_cell(
                "sim-os.resident_query",
                self.resident.calls(),
                self.resident.busy_s(),
            ),
            host_cell(
                "tcmalloc.maintain",
                self.maintain.calls(),
                self.maintain.busy_s(),
            ),
            host_cell("bench.replay.self_s", 0, self.replay_self_ns as f64 / 1e9),
            String::new(),
        ];
        let extra_sim = [
            CycleCategory::Sampled,
            CycleCategory::Prefetch,
            CycleCategory::Other,
            CycleCategory::Contention,
        ];
        for (left, cat) in rest.iter().zip(extra_sim) {
            println!("{left:<58} | {}", sim_cell(cat));
        }
        println!("traced wall {wall:.4} s; simulated total {sim_total:.0} sim-ns");
        println!();
    }
}
