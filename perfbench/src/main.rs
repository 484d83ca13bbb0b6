//! Command-line entry point: `perfbench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>`. Prints notes, then one JSON result
//! line. Exit code 2 on bad arguments.

use std::time::Instant;

use cais_perfbench::analyst::AnalystSearch;
use cais_perfbench::harness::{self, Config, Outcome, Sizing};
use cais_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use cais_perfbench::osint::OsintIngest;
use cais_perfbench::partner::PartnerPull;

fn sizing(setup_repeats: usize, sample_capacity: usize, rss_after_ops: Option<u64>) -> Sizing {
    Sizing {
        setup_repeats,
        sample_capacity,
        rss_after_ops,
    }
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <osint-ingest|partner-pull|analyst-search> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])));
        match args[i].as_str() {
            "--workload" => config.workload = value.clone(),
            "--seed" => config.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                config.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    if !config.seconds.is_finite() || config.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    config
}

/// Writes the traced run's spans next to the build output (the
/// `CARGO_TARGET_DIR` the benchmark was built into, else
/// `perfbench/target`), returning a note naming the file.
fn write_trace(config: &Config, chrome: &str) -> String {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")),
            std::path::PathBuf::from,
        )
        .join("perfbench-traces");
    let path = dir.join(format!("{}-seed{}.json", config.workload, config.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, chrome)) {
        Ok(()) => format!("chrome trace written to {}", path.display()),
        Err(e) => format!("chrome trace not written ({}): {e}", path.display()),
    }
}

fn main() {
    let process_start = Instant::now();
    let config = parse_args();
    let outcome: Outcome = match config.workload.as_str() {
        "osint-ingest" => harness::run(
            &config,
            process_start,
            &sizing(5, 1 << 14, Some(OsintIngest::FIRST_EPOCH_OPS)),
            || OsintIngest::setup(config.seed),
        ),
        "partner-pull" => harness::run(&config, process_start, &sizing(3, 1 << 18, None), || {
            PartnerPull::setup(config.seed)
        }),
        "analyst-search" => harness::run(&config, process_start, &sizing(3, 1 << 20, None), || {
            AnalystSearch::setup(config.seed)
        }),
        other => usage(&format!("unknown workload {other:?}")),
    };
    let mut notes = outcome.notes;
    if let Some(chrome) = &outcome.chrome {
        notes.push(write_trace(&config, chrome));
    }
    for note in &notes {
        println!("# {note}");
    }
    let declared = if config.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{}",
        result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            declared,
            &outcome.values
        )
    );
}
