//! The survey workload: `try_run_fleet_survey` at the default-scale shape,
//! baseline vs optimized, folded across the engine's leaf tree.

use crate::layers::Layers;
use crate::report::{peak_rss_mib, Metrics, Outcome};
use crate::stats::median;
use crate::{new_us_per_platform, traced_rounds, Args, Mode, MIN_ROUNDS};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use warehouse_alloc::fleet::experiment::{
    default_platform_mix, try_run_fleet_survey, try_run_fleet_survey_span, CellSummary,
    FleetSurveyConfig,
};
use warehouse_alloc::fleet::population::Population;
use warehouse_alloc::parallel::proc::{decode_payload, encode_payload};
use warehouse_alloc::parallel::{fold_leaf_bounds, fold_leaf_count, Engine, FoldSpan};
use warehouse_alloc::tcmalloc::TcmallocConfig;

/// Machines surveyed per round; an untraced run makes as many rounds as
/// fit in its seconds.
const MACHINES: usize = 512;
/// Machines in the held-out-seed gate survey.
const GATE_MACHINES: usize = 64;
/// Host seconds one traced round takes on a 2-core 2.1 GHz Xeon; sets
/// the traced run's fixed round count.
const TRACED_ROUND_S: f64 = 1.1;
/// Target length of one timing batch for the summary and frame codecs.
const CODEC_BATCH_NS: u128 = 20_000_000;

/// The default-scale survey shape with `machines` machines.
fn config(seed: u64, machines: usize) -> FleetSurveyConfig {
    FleetSurveyConfig {
        machines,
        requests_per_machine: 48,
        seed,
        platform_mix: default_platform_mix(),
        population: 2000,
        diurnal_period_ns: 1_000_000,
        rollout_stage: 2,
    }
}

/// Every planned machine must have folded.
fn check_coverage(summary: &CellSummary, machines: usize) -> Result<(), String> {
    let cov = summary.coverage;
    if cov.planned() != machines as u64 || !cov.complete() || summary.cells != machines as u64 {
        return Err(format!(
            "survey folded {} of {} planned machines ({} configured)",
            cov.folded(),
            cov.planned(),
            machines
        ));
    }
    Ok(())
}

/// One untraced threaded survey: its summary and wall seconds.
fn survey(threads: usize, cfg: &FleetSurveyConfig) -> Result<(CellSummary, f64), String> {
    let t = Instant::now();
    let r = try_run_fleet_survey(
        &Engine::new(threads),
        TcmallocConfig::baseline(),
        TcmallocConfig::optimized(),
        cfg,
    )
    .map_err(|e| format!("survey failed: {e}"))?;
    let wall = t.elapsed().as_secs_f64();
    check_coverage(&r.summary, cfg.machines)?;
    Ok((r.summary, wall))
}

/// The same survey, one serial `try_run_fleet_survey_span` per leaf of the
/// engine's fold tree, leaves shared among `threads` workers and merged in
/// leaf order. Returns the merged summary, per-leaf seconds and wall time.
fn survey_traced(
    threads: usize,
    cfg: &FleetSurveyConfig,
) -> Result<(CellSummary, Vec<f64>, f64), String> {
    let leaves = fold_leaf_count(cfg.machines);
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let worker = || -> Result<Vec<(usize, CellSummary, f64)>, String> {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out distinct leaf indices.
            let leaf = cursor.fetch_add(1, Ordering::Relaxed);
            if leaf >= leaves {
                return Ok(done);
            }
            let (lo, hi) = fold_leaf_bounds(cfg.machines, leaf);
            let span = FoldSpan {
                total: cfg.machines,
                lo,
                hi,
            };
            let t = Instant::now();
            let summary = try_run_fleet_survey_span(
                &Engine::serial(),
                TcmallocConfig::baseline(),
                TcmallocConfig::optimized(),
                cfg,
                span,
            )
            .map_err(|e| format!("survey leaf {leaf} failed: {e}"))?;
            done.push((leaf, summary, t.elapsed().as_secs_f64()));
        }
    };
    let mut results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("survey worker panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?
    .concat();
    let wall = start.elapsed().as_secs_f64();
    results.sort_by_key(|r| r.0);
    let mut merged = CellSummary::new();
    for (_, summary, _) in &results {
        merged.merge(summary);
    }
    check_coverage(&merged, cfg.machines)?;
    Ok((merged, results.iter().map(|r| r.2).collect(), wall))
}

/// The correctness gate at one seed: the per-leaf survey merged in leaf
/// order must encode to the threaded survey's bytes.
fn gate(threads: usize, seed: u64, machines: usize) -> Result<(), String> {
    let cfg = config(seed, machines);
    let (plain, _) = survey(threads, &cfg)?;
    let (traced, _, _) = survey_traced(threads, &cfg)?;
    if plain.encode() != traced.encode() {
        return Err(format!(
            "per-leaf survey differs from the threaded fold, seed {seed}"
        ));
    }
    Ok(())
}

/// Median ns per call of `f`, over batches sized to take about
/// [`CODEC_BATCH_NS`] each.
fn ns_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    let calls = (CODEC_BATCH_NS / t.elapsed().as_nanos().max(1)).clamp(1, 100_000);
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// Runs the survey workload in the requested mode.
pub fn run(args: &Args) -> Result<Outcome, String> {
    println!(
        "size: {MACHINES} machines per round, a new fleet each round ({GATE_MACHINES} for \
         the held-out gate), 48 requests/machine, population 2000, rollout stage 2, {} threads",
        args.threads
    );
    let mut metrics = Metrics::default();
    let rounds = match args.mode {
        Mode::Untraced => untraced(args, &mut metrics)?,
        Mode::Traced => traced(args, &mut metrics)?,
    };
    gate(args.threads, args.held_out_seed(), GATE_MACHINES)?;
    Ok(Outcome {
        attempted: (rounds * MACHINES) as u64,
        failed: 0,
        metrics,
    })
}

/// One round's set-up: the survey config and its binary population (the
/// survey builds its own copy; this one only times the build).
fn setup(seed: u64) -> (FleetSurveyConfig, f64, f64) {
    let t = Instant::now();
    let cfg = config(seed, MACHINES);
    let p = Instant::now();
    black_box(Population::new(cfg.population, cfg.seed));
    let population_s = p.elapsed().as_secs_f64();
    (cfg, t.elapsed().as_secs_f64(), population_s)
}

/// The end-to-end run: a new fleet every round until the budget is spent.
fn untraced(args: &Args, metrics: &mut Metrics) -> Result<usize, String> {
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut first = CellSummary::new();
    let mut round0 = Vec::new();
    let start = Instant::now();
    while rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let (cfg, setup, _) = setup(args.round_seed(rates.len()));
        setup_s.push(setup);
        let (summary, wall) = survey(args.threads, &cfg)?;
        if rates.len() < MIN_ROUNDS {
            first.merge(&summary);
        }
        if rates.is_empty() {
            round0 = summary.encode();
        }
        rates.push(MACHINES as f64 / wall);
    }
    let (again, _) = survey(args.threads, &config(args.round_seed(0), MACHINES))?;
    if again.encode() != round0 {
        return Err("round 0 surveyed again folds to different bytes".into());
    }
    let fleet = first.fleet();
    metrics.show("rounds", rates.len() as f64, "count");
    metrics.show("survey_machines_per_s", median(&rates), "1/s");
    metrics.show("failed_frac", 0.0, "ratio");
    metrics.show("fleet_throughput_delta_pct", fleet.throughput_pct(), "%");
    metrics.show("fleet_memory_delta_pct", fleet.memory_pct(), "%");
    metrics.put("throughput_per_s", median(&rates), "1/s");
    metrics.put("setup_s", median(&setup_s), "s");
    metrics.put("peak_rss_mib", peak_rss_mib()?, "MiB");
    Ok(rates.len())
}

/// The traced run: a fixed number of rounds, each surveying its fleet once
/// threaded and once leaf by leaf.
fn traced(args: &Args, metrics: &mut Metrics) -> Result<usize, String> {
    let threads = args.threads;
    let rounds = traced_rounds(args.seconds, TRACED_ROUND_S);
    let mut layers = Layers {
        leaf_count: fold_leaf_count(MACHINES),
        ..Layers::default()
    };
    let mut population_s = Vec::new();
    let mut merged = CellSummary::new();
    let mut round0 = None;
    for r in 0..rounds {
        let (cfg, _, population) = setup(args.round_seed(r));
        population_s.push(population);
        let (plain, wall) = survey(threads, &cfg)?;
        let (traced, leaf_s, traced_wall) = survey_traced(threads, &cfg)?;
        if traced.encode() != plain.encode() {
            return Err(format!(
                "round {r}: per-leaf survey differs from the threaded fold"
            ));
        }
        layers.untraced_wall_s += wall;
        layers.traced_wall_s += traced_wall;
        layers.leaf_s.extend(leaf_s);
        merged.merge(&plain);
        round0.get_or_insert(plain);
    }
    let summary = round0.expect("at least one traced round");
    let bytes = summary.encode();
    let frame = encode_payload(&bytes);
    if decode_payload(&frame).as_deref() != Ok(bytes.as_slice())
        || CellSummary::decode(&bytes).as_ref() != Ok(&summary)
    {
        return Err("summary codec does not round-trip".into());
    }
    let mut acc = CellSummary::new();
    layers.summary_ns = [
        ns_per_call(|| acc.merge(&summary)),
        ns_per_call(|| summary.encode()),
        ns_per_call(|| CellSummary::decode(&bytes)),
    ];
    layers.summary_bytes = bytes.len();
    layers.frame_ns = [
        ns_per_call(|| encode_payload(&bytes)),
        ns_per_call(|| decode_payload(&frame)),
    ];
    let busy: f64 = layers.leaf_s.iter().sum();
    layers.parallel_efficiency = busy / (threads as f64 * layers.untraced_wall_s);
    layers.population_build_s = median(&population_s);
    layers.new_us = new_us_per_platform();
    let fleet = merged.fleet();
    layers.fleet_delta_pct = [fleet.throughput_pct(), fleet.memory_pct()];
    metrics.show("rounds", rounds as f64, "count");
    layers.put(metrics);
    Ok(rounds)
}
