//! `framebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a summary line, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` with every end-to-end
//! metric (`--trace 0`) or every per-layer metric (`--trace 1`). A traced
//! run also writes a Chrome trace to `framebench/out/`.

use framebench::report::{self, END_TO_END, PER_LAYER};
use framebench::{host, run, RunSpec, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: framebench --workload <dense-orbit|fov-gaze|served-stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunSpec, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad(&"expected a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{USAGE}");
    Ok(RunSpec {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main_result() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = parse_args(&args)?;
    host::check_env()?;
    let (cores, calib_ms) = (host::cores(), host::calib_ms());
    let mut outcome = run(&spec, &Scale::FULL)?;

    let name = spec.workload.name();
    let mut trace_file = String::new();
    if let Some(tracer) = &outcome.tracer {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
        trace_file = format!("{dir}/{name}-seed{}.trace.json", spec.seed);
        std::fs::write(&trace_file, tracer.chrome_json(name))
            .map_err(|e| format!("writing {trace_file}: {e}"))?;
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.values.insert("failed_frac", failed_frac);
    outcome.values.insert("host.calib_ms", calib_ms);
    outcome.values.insert("host.cores", cores as f64);
    println!(
        "framebench workload={name} seed={} trace={} host.cores={cores} host.calib_ms={calib_ms:.3} \
         attempted={} failed={} failed_frac={failed_frac} trace_file={trace_file}",
        spec.seed,
        u8::from(spec.trace),
        outcome.attempted,
        outcome.failed,
    );
    let (defs, required) = if spec.trace {
        (PER_LAYER, false)
    } else {
        (END_TO_END, true)
    };
    report::result_line(
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        defs,
        &outcome.values,
        required,
    )
}

fn main() -> ExitCode {
    match main_result() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("framebench: {e}");
            ExitCode::from(2)
        }
    }
}
