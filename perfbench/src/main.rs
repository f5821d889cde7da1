//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the seed, checks its outputs, prints a report
//! and, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Untraced runs report the end-to-end metrics;
//! traced runs (`--trace 1`) report the per-layer metrics and write their
//! spans to `perfbench/out/<workload>-seed<n>.trace.jsonl`.

use std::process::ExitCode;

use perfbench::metrics::result_line;
use perfbench::provenance::{self, repo_root};
use perfbench::spans::Spans;
use perfbench::{peak_rss_mb, run, Scale, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper_regular|figures_n150|city_10k|rt_echo> --seed <n> \
     --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let mut spans = Spans::new(args.trace);
    let mut out = run(
        args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
        &mut spans,
    );
    if !args.trace && out.metrics.get("peak_rss_mb").is_none() {
        out.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    let prov = provenance::record(name, args.seed, args.trace, &out.params);
    println!("perfbench: provenance {prov}");
    for line in &out.notes {
        println!("perfbench: {name}: {line}");
    }
    for e in &out.errors {
        println!("perfbench: {name}: INCORRECT: {e}");
    }
    for f in &out.findings {
        println!("perfbench: {name}: INVARIANT VIOLATION (reported, not gated): {f}");
    }
    println!(
        "perfbench: {name}: failed_frac {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    if args.trace {
        let path = repo_root()
            .join("perfbench")
            .join("out")
            .join(format!("{name}-seed{}.trace.jsonl", args.seed));
        match spans.write_jsonl(&path, &prov) {
            Ok(()) => println!("perfbench: {name}: spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let entries = match out.metrics.entries(args.trace) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (metric, value, unit) in &entries {
        println!("perfbench: {name}: {metric} = {value} {unit}");
    }
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &entries)
    );
    ExitCode::SUCCESS
}
