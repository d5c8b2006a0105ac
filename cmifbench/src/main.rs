//! Command-line entry point:
//!
//! ```text
//! cmifbench --workload <broadcast_ingest|cluster_reads|live_edit>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Prints a human-readable report (traced runs) and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. A failed output check exits with status 2, naming the
//! check, the seed and the op; bad arguments exit with status 64.

use std::path::PathBuf;
use std::process::ExitCode;

use cmifbench::{run, Config, Workload};

fn usage(problem: &str) -> ExitCode {
    eprintln!("cmifbench: {problem}");
    eprintln!(
        "usage: cmifbench --workload <broadcast_ingest|cluster_reads|live_edit> --seed <n> \
         --seconds <s> --trace <0|1> [--spans <path>]"
    );
    ExitCode::from(64)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut config = Config::new(Workload::BroadcastIngest, 1);
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => config.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                config.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !config.seconds.is_finite() || config.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                config.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    config.workload = workload.ok_or("--workload is required")?;
    if config.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("cmifbench/target"));
        config.spans_out = Some(spans.unwrap_or_else(|| {
            dir.join("cmifbench-spans").join(format!(
                "{}-{}.tsv",
                config.workload.name(),
                config.seed
            ))
        }));
    }
    Ok(config)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(problem) => return usage(&problem),
    };
    match run(&config) {
        Ok(outcome) => {
            for line in &outcome.report {
                println!("{line}");
            }
            println!("{}", outcome.json(true));
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!(
                "cmifbench: {failure} (workload {}, seed {})",
                config.workload.name(),
                config.seed
            );
            ExitCode::from(2)
        }
    }
}
