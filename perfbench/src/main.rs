//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the root of a checkout and prints, as its last
//! line, one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). Images and traces go to
//! `.bench_out/` in the current directory.

use perfbench::fixture::Workload;
use perfbench::run::Config;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <topk_large|full_small|churn> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        out_dir: PathBuf::from(".bench_out"),
    };
    Ok((cfg, trace.unwrap_or(false)))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome =
        if trace { perfbench::layers::run(&cfg) } else { perfbench::run::run(&cfg) };
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
