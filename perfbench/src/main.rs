//! `clare-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload against the CLARE serving stack and prints a
//! human-readable report followed by one JSON result line. Exits 1 when an
//! answer check fails (after printing the result line) and 2 when the run
//! cannot be carried out.

use clare_perfbench::gen::{Scale, Workload};
use clare_perfbench::{report, run, Config};
use std::path::PathBuf;

fn parse() -> Result<Config, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(1..=600).contains(&seconds) {
                    return Err("--seconds must be 1..=600".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::standard(),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("clare-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match run(cfg) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("clare-perfbench: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", report::human(&run));
    let correct = report::correct(&run);
    let (attempted, failed) = report::attempted_failed(&run);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &report::result_metrics(&run))
    );
    if !correct {
        std::process::exit(1);
    }
}
