//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's inputs from the seed, computes the references,
//! sets up, measures for about `--seconds`, checks every output, and
//! prints one JSON result object as the last line of stdout.
//!
//! `--rates r1,r2,...` replaces `serve`'s fixed offered rates for a
//! one-off capacity probe; runs of record never pass it.

use std::process::ExitCode;
use std::time::Instant;

use perfbench::closed::{self, Closed};
use perfbench::jobs::{self, Sizes};
use perfbench::serve;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rates: Vec<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut rates = serve::RATES.to_vec();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--rates" => {
                rates = value()?
                    .split(',')
                    .map(|r| r.trim().parse::<f64>().map_err(|e| format!("--rates: {e}")))
                    .collect::<Result<_, _>>()?;
                if rates.iter().any(|r| !(*r > 0.0 && r.is_finite())) {
                    return Err("--rates must be positive".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (kernels | bulk | iterative | serve)")?,
        seed,
        seconds,
        trace,
        rates,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Simulator host threads = nproc: on a shared 2-vCPU host a launch
    // spread over both vCPUs was faster than `host_threads = 1` in each
    // of 13 interleaved pairs, with run-to-run spread neither clearly
    // better nor worse. Counts are identical at any setting; the
    // self-tests pin that.
    let host_threads = perfbench::nproc();
    let t = Instant::now();
    let report = match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, args.trace, &args.rates),
        name => {
            let s = Sizes::full();
            let (jobs, warmup) = match name {
                "kernels" => {
                    let jobs = jobs::kernels(args.seed, s);
                    let last = jobs.len() - 1;
                    (jobs, vec![0, last])
                }
                "bulk" => (jobs::bulk(args.seed, s), vec![0, 1]),
                "iterative" => (jobs::iterative(args.seed, s), vec![0, 1, 2]),
                other => {
                    eprintln!(
                        "perfbench: unknown workload {other} (kernels | bulk | iterative | serve)"
                    );
                    return ExitCode::from(2);
                }
            };
            println!(
                "# inputs + references for seed {}: {:.3} s (not part of setup_s)",
                args.seed,
                t.elapsed().as_secs_f64()
            );
            let w = Closed {
                name: match name {
                    "kernels" => "kernels",
                    "bulk" => "bulk",
                    _ => "iterative",
                },
                jobs,
                warmup,
            };
            closed::run(&w, args.seconds, args.trace, host_threads)
        }
    };
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}
