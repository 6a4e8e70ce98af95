//! Benchmark of the split extraction pipeline: four workloads, each in
//! its own process, reporting end-to-end metrics (untraced runs) or
//! per-layer metrics (traced runs). See `README.md` for the metric and
//! layer definitions; `run.py` builds this binary and invokes it.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`

mod common;
mod edit_stream;
mod fleet_requery;
mod layers;
mod serve_mix;
mod wiki_extract;

use common::{Outcome, Tracer};
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Length of one timed loop. A traced run splits its time between
    /// an untraced loop and a traced one, so the two can be compared.
    pub fn loop_time(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "wiki_extract" => wiki_extract::run(&args, &mut tracer),
        "fleet_requery" => fleet_requery::run(&args, &mut tracer),
        "edit_stream" => edit_stream::run(&args, &mut tracer),
        "serve_mix" => serve_mix::run(&args, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    if args.trace {
        layers::report_self_times(&tracer, &mut out);
        layers::probe_all(args.seed, &mut out);
        let run_id = format!(
            "{:x}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64)
        );
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-traces")
            .join(format!(
                "{}-seed{}-{run_id}.jsonl",
                args.workload, args.seed
            ));
        match tracer.write(&path, &args.workload, &run_id) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => out.fail(format!("writing trace {}: {e}", path.display())),
        }
    } else {
        let ok = 1.0 - out.failures() as f64 / out.attempted.max(1) as f64;
        out.metric("ok_ratio", ok, "ratio");
        out.metric("peak_rss_mb", common::peak_rss_mb(), "MB");
    }
    println!("{}", out.json());
}

/// Records `setup_s` (the median of at least [`common::SETUP_REPS`]
/// set-ups; one in a traced run) and returns the last set-up's state.
pub fn repeated_setup<S>(
    out: &mut Outcome,
    tracer: &mut Tracer,
    mut setup: impl FnMut(&mut Tracer, &mut Outcome) -> S,
) -> S {
    let mut times = Vec::new();
    let mut state = None;
    // Cheap set-ups repeat until they have used about a second, so the
    // median of a millisecond-scale set-up is not one noisy sample.
    let (min_reps, max_reps) = if tracer.enabled {
        (1, 1)
    } else {
        (common::SETUP_REPS, 25)
    };
    let t0 = std::time::Instant::now();
    while times.len() < min_reps || (times.len() < max_reps && t0.elapsed().as_secs_f64() < 1.0) {
        drop(state.take());
        let t = std::time::Instant::now();
        state = Some(setup(tracer, out));
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "setup: {} reps, median {:.4} s",
        times.len(),
        common::median(&times)
    );
    if !tracer.enabled {
        out.metric("setup_s", common::median(&times), "s");
    }
    state.expect("at least one set-up")
}
