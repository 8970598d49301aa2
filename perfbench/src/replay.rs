//! The replay workloads: recorded traces, a new one each round, replayed by
//! `Trace::replay` into a fresh optimized allocator on the 64-core chiplet
//! platform.

use crate::layers::Layers;
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::stats::median;
use crate::{new_us_per_platform, traced_rounds, Args, Mode, MIN_ROUNDS};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;
use warehouse_alloc::fleet::experiment::default_platform_mix;
use warehouse_alloc::sim_hw::cost::AllocPath;
use warehouse_alloc::sim_hw::topology::{CpuId, Platform};
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{CycleStats, Tcmalloc, TcmallocConfig};
use warehouse_alloc::workload::trace::{ReplayStats, Trace, TraceEvent};
use warehouse_alloc::workload::{profiles, WorkloadSpec};

/// A replay workload's shape.
#[derive(Debug)]
pub struct ReplaySpec {
    /// Workload model the traces are recorded from.
    pub profile: fn() -> WorkloadSpec,
    /// Allocations per recorded trace.
    pub allocs: u64,
    /// Allocations in the held-out-seed gate trace.
    pub gate_allocs: u64,
    /// The layer predicted to dominate traced host time, if any.
    pub predicted_dominant: Option<&'static str>,
    /// Host seconds one traced round takes on a 2-core 2.1 GHz Xeon; sets
    /// the traced run's fixed round count.
    pub traced_round_s: f64,
}

/// Front-end bound: ~95% of calls hit the per-CPU tier, heap stays small.
pub const FLEET: ReplaySpec = ReplaySpec {
    profile: profiles::fleet_mix,
    allocs: 500_000,
    gate_allocs: 50_000,
    predicted_dominant: None,
    traced_round_s: 2.4,
};

/// Back-end bound: large requests grow the simulated heap to GiBs. Replay
/// cost grows faster than trace length (residency scans a growing page
/// table), so the trace is kept short.
pub const BIGHEAP: ReplaySpec = ReplaySpec {
    profile: profiles::image_processing,
    allocs: 30_000,
    gate_allocs: 5_000,
    predicted_dominant: Some("sim-os.resident_query"),
    traced_round_s: 1.1,
};

/// Passes over the trace's sizes for `tcmalloc.size_class.ns_per_lookup`.
const LOOKUP_PASSES: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

/// The replay platform: the fleet mix's 64-core chiplet machine.
fn platform() -> Platform {
    default_platform_mix()
        .into_iter()
        .map(|(_, p)| p)
        .find(|p| p.name() == "chiplet-64c")
        .expect("the fleet platform mix has a chiplet-64c machine")
}

fn fresh() -> (Tcmalloc, Clock) {
    let clock = Clock::new();
    let tcm = Tcmalloc::new(TcmallocConfig::optimized(), platform(), clock.clone());
    (tcm, clock)
}

fn record(spec: &ReplaySpec, seed: u64) -> Trace {
    Trace::record(&(spec.profile)(), spec.allocs, seed)
}

/// What one replay pass produced.
#[derive(Debug)]
struct Pass {
    stats: ReplayStats,
    cycles: CycleStats,
    wall_s: f64,
}

impl Pass {
    fn ops(&self) -> u64 {
        self.stats.allocs + self.stats.frees
    }

    /// The deterministic outputs must repeat exactly.
    fn same_outputs(&self, other: &Pass, what: &str) -> Result<(), String> {
        if self.stats != other.stats || self.cycles != other.cycles {
            return Err(format!(
                "{what}: replay outputs differ ({:?} vs {:?})",
                self.stats, other.stats
            ));
        }
        Ok(())
    }
}

fn drained(tcm: &Tcmalloc) -> Result<(), String> {
    match tcm.live_bytes() {
        0 => Ok(()),
        n => Err(format!("replay ended with {n} live bytes")),
    }
}

/// One untraced `Trace::replay` into the allocator `(tcm, clock)`.
fn replay(trace: &Trace, (mut tcm, clock): (Tcmalloc, Clock)) -> Result<Pass, String> {
    let t = Instant::now();
    let stats = trace.replay(&mut tcm, &clock);
    let wall_s = t.elapsed().as_secs_f64();
    drained(&tcm)?;
    Ok(Pass {
        stats,
        cycles: tcm.cycles().clone(),
        wall_s,
    })
}

/// Re-drives the trace through the calls `Trace::replay` makes, timing
/// each one and filing it under the layer it reached.
fn replay_traced(trace: &Trace) -> Result<(Pass, Layers), String> {
    let (mut tcm, clock) = fresh();
    let mut layers = Layers::default();
    let tier = |path: AllocPath| {
        AllocPath::ALL
            .iter()
            .position(|&p| p == path)
            .expect("AllocPath::ALL lists every path")
    };
    let mut stats = ReplayStats::default();
    let mut live: HashMap<u64, (u64, u64)> = HashMap::new();
    let start = Instant::now();
    for ev in &trace.events {
        match *ev {
            TraceEvent::Alloc {
                id,
                size,
                site,
                cpu,
            } => {
                let t = Instant::now();
                let out = tcm.malloc_with_site(size, CpuId(cpu), u64::from(site));
                layers.malloc[tier(out.path)].since(t);
                if live.insert(id, (out.addr, size)).is_some() {
                    return Err(format!("trace reuses live id {id}"));
                }
                stats.allocs += 1;
                stats.malloc_ns += out.ns;
            }
            TraceEvent::Free { id, cpu } => {
                let (addr, size) = live
                    .remove(&id)
                    .ok_or_else(|| format!("trace frees unknown id {id}"))?;
                let t = Instant::now();
                let out = tcm.free(addr, size, CpuId(cpu));
                layers.free[tier(out.path).min(3)].since(t);
                stats.frees += 1;
                stats.malloc_ns += out.ns;
            }
            TraceEvent::Advance { ns } => {
                clock.advance(ns);
                let t = Instant::now();
                tcm.maintain();
                layers.maintain.since(t);
            }
        }
        let t = Instant::now();
        let resident = tcm.resident_bytes();
        layers.resident.since(t);
        stats.peak_resident_bytes = stats.peak_resident_bytes.max(resident);
    }
    let wall = start.elapsed();
    drained(&tcm)?;
    let timed: u64 = layers
        .malloc
        .iter()
        .chain(&layers.free)
        .map(|t| t.busy_ns)
        .sum::<u64>()
        + layers.resident.busy_ns
        + layers.maintain.busy_ns;
    layers.replay_self_ns = u64::try_from(wall.as_nanos())
        .unwrap_or(u64::MAX)
        .saturating_sub(timed);
    layers.sim = tcm.cycles().clone();
    layers.sim_ops = stats.allocs + stats.frees;
    let pass = Pass {
        stats,
        cycles: tcm.cycles().clone(),
        wall_s: wall.as_secs_f64(),
    };
    Ok((pass, layers))
}

/// The correctness gate at one seed: the traced replay must reproduce
/// `Trace::replay` exactly, and both must drain the heap.
fn gate(spec: &ReplaySpec, seed: u64) -> Result<(), String> {
    let trace = Trace::record(&(spec.profile)(), spec.gate_allocs, seed);
    let plain = replay(&trace, fresh())?;
    let (traced, _) = replay_traced(&trace)?;
    traced.same_outputs(&plain, &format!("traced vs untraced replay, seed {seed}"))
}

/// Runs a replay workload in the requested mode.
pub fn run(spec: &ReplaySpec, args: &Args) -> Result<Outcome, String> {
    println!(
        "size: {} allocations per trace, a new trace each round ({} for the held-out gate), \
         platform chiplet-64c, config optimized, 1 thread",
        spec.allocs, spec.gate_allocs
    );
    let mut metrics = Metrics::default();
    let ops = match args.mode {
        Mode::Untraced => untraced(spec, args, &mut metrics)?,
        Mode::Traced => traced(spec, args, &mut metrics)?,
    };
    gate(spec, args.held_out_seed())?;
    Ok(Outcome {
        attempted: ops,
        failed: 0,
        metrics,
    })
}

/// The end-to-end run: a new trace every round until the budget is spent.
fn untraced(spec: &ReplaySpec, args: &Args, metrics: &mut Metrics) -> Result<u64, String> {
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut first = Vec::new();
    let mut ops = 0;
    let start = Instant::now();
    while rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let t = Instant::now();
        let trace = record(spec, args.round_seed(rates.len()));
        let allocator = black_box(fresh());
        setup_s.push(t.elapsed().as_secs_f64());
        let pass = replay(&trace, allocator)?;
        ops += pass.ops();
        rates.push(pass.ops() as f64 / pass.wall_s);
        if first.len() < MIN_ROUNDS {
            first.push(pass);
        }
    }
    replay(&record(spec, args.round_seed(0)), fresh())?.same_outputs(&first[0], "round 0 again")?;
    let sim_ns: f64 = first.iter().map(|p| p.cycles.total_ns()).sum();
    let sim_ops: u64 = first.iter().map(Pass::ops).sum();
    let peaks: Vec<f64> = first
        .iter()
        .map(|p| p.stats.peak_resident_bytes as f64 / MIB)
        .collect();
    metrics.show("rounds", rates.len() as f64, "count");
    metrics.show("replay_ops_per_s", median(&rates), "1/s");
    metrics.show("failed_frac", 0.0, "ratio");
    metrics.show("sim_alloc_ns_per_op", sim_ns / sim_ops as f64, "sim-ns");
    metrics.show("sim_peak_resident_mib", median(&peaks), "MiB");
    metrics.put("throughput_per_s", median(&rates), "1/s");
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(ops)
}

/// The traced run: a fixed number of rounds, each replaying its trace once
/// untraced and once traced.
fn traced(spec: &ReplaySpec, args: &Args, metrics: &mut Metrics) -> Result<u64, String> {
    let rounds = traced_rounds(args.seconds, spec.traced_round_s);
    let mut layers = Layers::default();
    let (mut record_s, mut peaks) = (Vec::new(), Vec::new());
    let mut round0 = None;
    for r in 0..rounds {
        let t = Instant::now();
        let trace = record(spec, args.round_seed(r));
        record_s.push(t.elapsed().as_secs_f64());
        let plain = replay(&trace, fresh())?;
        let (pass, round) = replay_traced(&trace)?;
        pass.same_outputs(&plain, "traced vs untraced replay")?;
        layers.merge_replay(&round);
        layers.untraced_wall_s += plain.wall_s;
        layers.traced_wall_s += pass.wall_s;
        peaks.push(pass.stats.peak_resident_bytes as f64 / MIB);
        if r == 0 {
            round0 = Some((pass, round.call_counts()));
        }
    }
    let (pass0, counts0) = round0.expect("at least one traced round");
    let trace0 = record(spec, args.round_seed(0));
    let (again, round) = replay_traced(&trace0)?;
    again.same_outputs(&pass0, "round 0 traced again")?;
    if round.call_counts() != counts0 {
        return Err("call counts differ between two traced passes of one trace".into());
    }
    let parts: f64 = layers.replay_parts().iter().map(|p| p.1).sum();
    if (parts - layers.traced_wall_s).abs() > 1e-6 * layers.traced_wall_s.max(1.0) {
        return Err(format!(
            "layers sum to {parts} s, traced wall is {} s",
            layers.traced_wall_s
        ));
    }
    layers.trace_record_s = median(&record_s);
    layers.sim_peak_resident_mib = median(&peaks);
    layers.size_class_ns_per_lookup = size_class_ns(&trace0);
    layers.new_us = new_us_per_platform();
    metrics.show("rounds", rounds as f64, "count");
    layers.put(metrics);
    layers.print_tier_table();
    report_dominant(spec, &layers);
    Ok(layers.sim_ops)
}

/// Median ns per `class_for` lookup over the trace's request sizes.
fn size_class_ns(trace: &Trace) -> f64 {
    let sizes: Vec<u64> = trace
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Alloc { size, .. } => Some(size),
            _ => None,
        })
        .collect();
    let (tcm, _) = fresh();
    let table = tcm.table();
    let per_pass: Vec<f64> = (0..LOOKUP_PASSES)
        .map(|_| {
            let t = Instant::now();
            let hits = sizes
                .iter()
                .filter(|&&s| table.class_for(black_box(s)).is_some())
                .count();
            black_box(hits);
            t.elapsed().as_nanos() as f64 / sizes.len().max(1) as f64
        })
        .collect();
    median(&per_pass)
}

/// Names the layer with the most traced host time and checks it against
/// the workload's prediction.
fn report_dominant(spec: &ReplaySpec, layers: &Layers) {
    let parts = layers.replay_parts();
    let (name, busy) = parts
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a replay has timed layers");
    let share = 100.0 * busy / layers.traced_wall_s;
    println!("dominant host layer: {name} ({share:.1}% of traced wall time)");
    if let Some(predicted) = spec.predicted_dominant {
        let verdict = if predicted == name {
            "confirmed"
        } else {
            "NOT confirmed"
        };
        println!("prediction {predicted}: {verdict}");
    }
}
