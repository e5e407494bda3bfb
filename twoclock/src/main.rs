//! `twoclock --workload <oltp_wal|htap_scan|open_knee|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs the named workload for `--seconds` of measured host time and
//! prints a human-readable report followed, as the last line, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the recorded host spans are written
//! as a Chrome trace under `out/`. Exits 1 if any answer check failed,
//! 2 on a usage error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use twoclock::{Metric, Outcome, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value}"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let clock = if m.exact { "sim/count" } else { "host" };
        println!(
            "    {:<34} {:>18.6} {:<8} [{clock}]",
            m.name, m.value, m.unit
        );
    }
}

fn report(o: &Outcome, trace: bool) {
    println!(
        "workload {}: {} passes, attempted {}, failed {}, correct {}",
        o.workload.name(),
        o.passes,
        o.attempted,
        o.failed,
        o.correct()
    );
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
    print_metrics("end to end", &o.end_to_end);
    if trace {
        print_metrics("per layer", &o.per_layer);
        println!("  host self time by span:");
        println!(
            "    {:<16} {:>8} {:>12} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms", "self us/call"
        );
        for l in &o.layer_times {
            println!(
                "    {:<16} {:>8} {:>12.3} {:>12.3} {:>12.3}",
                l.name,
                l.calls,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                l.self_ns as f64 / 1e3 / l.calls as f64
            );
        }
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, &Metric)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Validates the run's Chrome trace and writes it under `out/`; a trace
/// that fails validation is a failed check.
fn write_trace(o: &mut Outcome, stem: &str) {
    let Some(chrome) = &o.chrome else { return };
    match pushtap_trace::chrome::validate(chrome) {
        Ok(stats) => {
            let path = out_dir().join(format!("{stem}.chrome.json"));
            let _ = std::fs::write(&path, chrome);
            println!(
                "  chrome trace: {} events, valid, written to {}",
                stats.events,
                path.display()
            );
        }
        Err(e) => {
            o.failed += 1;
            o.failures.push(format!("chrome trace invalid: {e}"));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: twoclock --workload <oltp_wal|htap_scan|open_knee|all> --seed <n> --seconds <s> --trace <0|1>\nerror: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes = Vec::new();
    let _ = std::fs::create_dir_all(out_dir());
    for &w in &args.workloads {
        let mut o = twoclock::run(w, args.seed, args.seconds, args.trace);
        let stem = format!(
            "{}-seed{}-trace{}",
            w.name(),
            args.seed,
            u8::from(args.trace)
        );
        write_trace(&mut o, &stem);
        let metrics = if args.trace {
            &o.per_layer
        } else {
            &o.end_to_end
        };
        let named: Vec<(String, &Metric)> =
            metrics.iter().map(|m| (m.name.to_string(), m)).collect();
        let line = json_line(o.correct(), o.attempted, o.failed, &named);
        let _ = std::fs::write(out_dir().join(format!("{stem}.result.json")), line + "\n");
        report(&o, args.trace);
        outcomes.push(o);
    }
    let correct = outcomes.iter().all(Outcome::correct);
    let attempted = outcomes.iter().map(|o| o.attempted).sum();
    let failed = outcomes.iter().map(|o| o.failed).sum();
    let single = outcomes.len() == 1;
    let named: Vec<(String, &Metric)> = outcomes
        .iter()
        .flat_map(|o| {
            let metrics = if args.trace {
                &o.per_layer
            } else {
                &o.end_to_end
            };
            metrics.iter().map(move |m| {
                let name = if single {
                    m.name.to_string()
                } else {
                    format!("{}.{}", o.workload.name(), m.name)
                };
                (name, m)
            })
        })
        .collect();
    println!("{}", json_line(correct, attempted, failed, &named));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
