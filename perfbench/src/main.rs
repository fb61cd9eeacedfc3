//! `apgre-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints execution facts, then one JSON result line last on stdout; exits
//! non-zero when any correctness check fails. `--calibrate 1` instead
//! measures the costs the query phase's request rates are derived from.

use std::path::PathBuf;
use std::process::ExitCode;

use apgre_perfbench::{run, Config, WORKLOADS};
use apgre_workloads::Scale;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "error: {msg}\nusage: apgre-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-dir DIR] [--calibrate 1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Small,
        trace_dir: Some(PathBuf::from("perfbench/out")),
    };
    let mut calibrate = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value `{value}` for {flag}"));
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => match value.parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => cfg.seconds = s,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => cfg.trace = false,
                "1" => cfg.trace = true,
                _ => return bad(),
            },
            "--trace-dir" => cfg.trace_dir = Some(PathBuf::from(&value)),
            "--calibrate" => match value.as_str() {
                "0" => calibrate = false,
                "1" => calibrate = true,
                _ => return bad(),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    if calibrate {
        return match apgre_perfbench::calibrate(&cfg) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    println!("{}", outcome.facts_json());
    println!("{}", outcome.json(cfg.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
