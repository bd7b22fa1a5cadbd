//! The repository benchmark: three seeded workloads against the public
//! APIs of `fsim-core`, `fsim-labels`, `fsim-serve` and the FSNP
//! snapshot path. See `README.md` in this directory.
//!
//! Usage: `perfbench --workload <batch_score|edit_stream|serve_mixed>
//! --seed <n> --seconds <s> --trace <0|1>`. Report lines come first; the
//! last line of standard output is the JSON result.

mod batch_score;
mod edit_stream;
mod layers;
mod report;
mod serve_mixed;
mod stats;
mod trace;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// A validated command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: &[&str] = &["batch_score", "edit_stream", "serve_mixed"];

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark keeps its working files: under this package's
/// `target/`, inside the checkout it runs from.
pub fn work_dir() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| "perfbench".into());
    PathBuf::from(manifest).join("target").join("work")
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let mut out = match args.workload.as_str() {
        "batch_score" => batch_score::run(&args, origin),
        "edit_stream" => edit_stream::run(&args, origin),
        _ => serve_mixed::run(&args, origin),
    };
    out.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.put("failed_frac", failed_frac, "ratio");
    if args.trace {
        record_trace(&args, &mut out);
    }
    print_report(&args, &out);
    println!("{}", report::result_line(&out, args.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}

/// Adds the traced run's layer self times and writes the spans out.
fn record_trace(args: &Args, out: &mut Outcome) {
    for (layer, secs) in trace::layer_self_seconds(&out.spans) {
        out.metrics.put(&format!("{layer}.self_s"), secs, "s");
    }
    out.metrics
        .put("trace.spans", out.spans.len() as f64, "count");
    let dir = work_dir().join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(&out.spans)))
    {
        Ok(()) => println!(
            "trace   {} spans written to {}",
            out.spans.len(),
            path.display()
        ),
        Err(e) => println!("trace   could not write {}: {e}", path.display()),
    }
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in &out.inputs {
        println!("input   {k} = {v}");
    }
    for (name, ok) in &out.checks {
        println!("check   {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("ops     attempted {} failed {}", out.attempted, out.failed);
    for (name, value, unit) in out.metrics.iter() {
        println!("metric  {name} = {value} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let a = parse_args(&argv(
            "--workload edit_stream --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("edit_stream", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch_score --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload batch_score --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload batch_score --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
