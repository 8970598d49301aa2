//! The warehouse-alloc benchmark.
//!
//! ```text
//! perfbench --workload <replay-fleet|replay-bigheap|survey> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing. `--trace 1`
//! is a separate run that times the calls into each layer from here and
//! prints the per-layer ledger. Either way the last line of stdout is one
//! JSON object; the exit status is non-zero when a correctness gate fails.
//! `perfbench/README.md` lists the workloads and what each layer moves.

mod layers;
mod replay;
mod report;
mod stats;
mod survey;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use warehouse_alloc::fleet::experiment::default_platform_mix;
use warehouse_alloc::prng::derive_seed;
use warehouse_alloc::sim_os::clock::Clock;
use warehouse_alloc::tcmalloc::{Tcmalloc, TcmallocConfig};

/// The workloads, as named on the command line.
const WORKLOADS: [&str; 3] = ["replay-fleet", "replay-bigheap", "survey"];
/// Upper bound on the survey's worker threads.
const MAX_THREADS: usize = 2;
/// Rounds every untraced run makes at least; the simulated figures it
/// prints cover exactly these, so they repeat for a given seed.
pub const MIN_ROUNDS: usize = 3;

/// Untraced end-to-end run or traced per-layer run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`.
    Untraced,
    /// `--trace 1`.
    Traced,
}

/// Checked command line.
#[derive(Debug)]
pub struct Args {
    /// Index into [`WORKLOADS`].
    workload: usize,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Run mode.
    pub mode: Mode,
    /// Worker threads for the survey: `min(2, cores)`.
    pub threads: usize,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut mode = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let i = WORKLOADS.iter().position(|w| w == value);
                    workload = Some(i.ok_or_else(|| format!("unknown workload {value:?}"))?);
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => match num()? {
                    s @ 1..=600 => seconds = Some(s),
                    s => return Err(format!("--seconds must be 1..=600, got {s}")),
                },
                "--trace" => {
                    mode = Some(match value.as_str() {
                        "0" => Mode::Untraced,
                        "1" => Mode::Traced,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            mode: mode.ok_or("--trace is required")?,
            threads: cores.clamp(1, MAX_THREADS),
        })
    }

    /// Input seed of round `r`: every round measures new inputs.
    pub fn round_seed(&self, r: usize) -> u64 {
        derive_seed(self.seed, r as u64)
    }

    /// A second seed, never the measured one, for the held-out gate.
    pub fn held_out_seed(&self) -> u64 {
        self.seed ^ 0x9e37_79b9_7f4a_7c15
    }
}

/// Round count of a traced run: fixed by the arguments, so its call counts
/// and simulated ledger repeat exactly, and about `seconds` long when a
/// round takes `round_s`.
pub fn traced_rounds(seconds: u64, round_s: f64) -> usize {
    ((seconds as f64 / round_s).round() as usize).max(2)
}

/// Median `Tcmalloc::new` time in µs on each platform of the fleet mix,
/// over 64 constructions.
pub fn new_us_per_platform() -> Vec<(String, f64)> {
    default_platform_mix()
        .into_iter()
        .map(|(_, platform)| {
            let times: Vec<f64> = (0..64)
                .map(|_| {
                    let clock = Clock::new();
                    let p = platform.clone();
                    let t = Instant::now();
                    let tcm = black_box(Tcmalloc::new(TcmallocConfig::optimized(), p, clock));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    drop(tcm);
                    us
                })
                .collect();
            (platform.name().to_string(), stats::median(&times))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let name = WORKLOADS[args.workload];
    println!(
        "perfbench workload={name} seed={} held_out_seed={} seconds={} trace={} nproc={} threads={}",
        args.seed,
        args.held_out_seed(),
        args.seconds,
        u8::from(args.mode == Mode::Traced),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.threads,
    );
    let outcome = match name {
        "replay-fleet" => replay::run(&replay::FLEET, &args),
        "replay-bigheap" => replay::run(&replay::BIGHEAP, &args),
        _ => survey::run(&args),
    };
    match outcome.and_then(|o| o.json(true)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload survey --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (WORKLOADS[a.workload], a.seed, a.seconds, a.mode),
            ("survey", 7, 10, Mode::Traced)
        );
        assert_ne!(a.held_out_seed(), a.seed);
    }

    #[test]
    fn refuses_bad_input() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload survey --seed x --seconds 1 --trace 0",
            "--workload survey --seed 1 --seconds 0 --trace 0",
            "--workload survey --seed 1 --seconds 1 --trace 2",
            "--workload survey --seed 1 --seconds 1",
            "--workload survey --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
