//! The repository benchmark: end-to-end and per-layer timings of the
//! sort-last-sparse rendering stack, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload orbit|composite|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! line before it holds the provenance and the labels that qualify the
//! numbers. A traced run also writes its spans as Chrome trace-event
//! JSON under `.bench_out/`.

mod json;
mod layers;
mod loadgen;
mod oracle;
mod probe;
mod provenance;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use json::Json;
use report::{Report, END_TO_END};
use trace::Tracer;
use workloads::Args;

/// A run that has not finished by then is stopped (the contract allows
/// 180 s).
const WATCHDOG: Duration = Duration::from_secs(170);

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok((
        workload,
        Args {
            seed,
            seconds,
            trace,
        },
    ))
}

fn metrics(report: &Report, trace: bool) -> Result<Json, String> {
    let names = if trace {
        report::per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let values = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let mut out = Vec::new();
    for (name, unit) in names {
        let value = values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        out.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::Obj(out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (workload, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });

    let tracer = Tracer::new(args.trace);
    let report = match workload.as_str() {
        "orbit" => workloads::orbit::run(args, &tracer),
        "composite" => workloads::composite::run(args, &tracer),
        "serve" => workloads::serve::run(args, &tracer),
        other => {
            eprintln!("perfbench: unknown workload {other} (orbit, composite, serve)");
            return ExitCode::from(2);
        }
    };
    for v in &report.violations {
        eprintln!("perfbench: wrong output: {v}");
    }

    let provenance = provenance::collect(&workload, args.seed, args.seconds, args.trace);
    let labels = Json::Obj(report.labels.clone());
    if args.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{workload}-seed{}-trace.json", args.seed));
        let meta = Json::obj([
            ("provenance", provenance.clone()),
            ("labels", labels.clone()),
        ]);
        let written = std::fs::create_dir_all(dir).and_then(|_| {
            std::fs::write(&path, trace::chrome_json(&tracer.spans(), meta).render())
        });
        match written {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    let metrics = match metrics(&report, args.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "{}",
        Json::obj([("provenance", provenance), ("labels", labels)]).render()
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.correct())),
            ("attempted", Json::Int(report.attempted as i64)),
            ("failed", Json::Int(report.failed as i64)),
            ("metrics", metrics),
        ])
        .render()
    );
    ExitCode::SUCCESS
}
