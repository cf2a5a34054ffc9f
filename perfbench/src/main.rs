//! Command-line entry point; see the library docs for the interface.

use std::process::ExitCode;

use goldfish_perfbench::common::{Args, Outcome};
use goldfish_perfbench::{distill, fleet, heap, metrics, shard};

#[global_allocator]
static ALLOC: heap::PeakAlloc = heap::PeakAlloc;

const USAGE: &str = "usage: goldfish-perfbench --workload <distill-lenet|fleet-tcp|shard-durable> \
                     --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    for (name, passed, detail) in &out.gates {
        let verdict = if *passed { "PASS" } else { "FAIL" };
        println!("gate {verdict} {name}: {detail}");
    }
    for (name, m) in &out.metrics {
        println!("metric {name} = {} {}", m.value, m.unit);
    }
    for (name, why) in &out.missing {
        println!("metric {name} not reported: {why}");
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) if !a.workload.is_empty() => a,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "distill-lenet" => distill::run,
        "fleet-tcp" => fleet::run,
        "shard-durable" => shard::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(1);
        }
    };
    let names = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    if !args.trace {
        // A declared end-to-end metric the run could not measure means the
        // workload did not do its work (a per-layer one may lack /proc).
        let missing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !out.metrics.contains_key(*n))
            .collect();
        out.gate(
            "end_to_end_metrics_measured",
            missing.is_empty(),
            format!("missing: {missing:?}"),
        );
    }
    print_report(&args, &out);
    println!("{}", metrics::result_line(&out, names));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness gate failed");
        ExitCode::from(1)
    }
}
