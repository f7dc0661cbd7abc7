//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <droplet|service|cluster> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke]
//! ```
//!
//! `--smoke` runs the self-test sizes with one repetition at least.
//!
//! Prints a table of the metrics by name and unit, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when an output check failed and 2 when
//! the run could not be measured or the arguments are wrong.

use std::process::ExitCode;

use perfbench::{expected, nproc, result_json, run, Opts, E2E};

fn parse() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 0, seconds: 10.0, trace: false, smoke: false, workers: nproc() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err(format!("--seconds {} is not a duration", opts.seconds));
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    if report.attempted == 0 {
        eprintln!("perfbench: {workload}: no operation was checked");
        return ExitCode::from(2);
    }
    let defs = expected(opts.trace);
    let line = match result_json(&report, defs) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let run_kind = if opts.trace { "traced" } else { "untraced" };
    println!(
        "{workload}: seed {}, {} workers, 1 closed-loop client, {run_kind}; {}",
        opts.seed, opts.workers, report.size
    );
    for d in defs {
        println!("  {:<34} {:>18.6} {}", d.name, report.metrics[d.name], d.unit);
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>18.6} failed/attempted ({} of {})",
        "error_rate", error_rate, report.failed, report.attempted
    );
    for (name, v, unit) in &report.named {
        println!("  {name:<34} {v:>18.6} {unit}");
    }
    if defs.len() == E2E.len() {
        println!("  (work = leaf-steps for droplet and cluster, commands for service)");
    }
    for f in &report.failures {
        println!("  FAILED: {f}");
    }
    println!("{line}");
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
