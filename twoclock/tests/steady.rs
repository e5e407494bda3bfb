//! Steadiness self-check: each workload twice at one seed.
//!
//! Every simulated metric and every count must repeat bit for bit; the
//! host metrics are printed with their run-to-run spread beside the
//! bounds `BENCHMARK.json` gates them with. Run with
//! `cargo test --release --offline --manifest-path twoclock/Cargo.toml -- --nocapture`.

use twoclock::{run, Metric, Workload};

const SEED: u64 = 11;
/// The shortest run: the minimum number of passes.
const SECONDS: f64 = 1.0;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// The `bound` of end-to-end metric `name` in `BENCHMARK.json`, if any.
fn bound(name: &str) -> Option<f64> {
    let at = BENCHMARK.find(&format!("\"name\": \"{name}\""))?;
    let entry = &BENCHMARK[at..BENCHMARK[at..].find('}')? + at];
    let value = entry.split("\"bound\":").nth(1)?;
    value.trim().trim_end_matches(',').trim().parse().ok()
}

/// One traced run: checks pass, and every gated metric has a bound and
/// reads above zero.
fn metrics(w: Workload) -> Vec<Metric> {
    let o = run(w, SEED, SECONDS, true);
    assert!(o.correct(), "{}: checks failed: {:?}", w.name(), o.failures);
    assert_eq!(o.failed, 0);
    assert_eq!(
        BENCHMARK.matches("\"bound\"").count(),
        o.end_to_end.len(),
        "BENCHMARK.json gates exactly the end-to-end metrics"
    );
    for m in &o.end_to_end {
        assert!(bound(m.name).is_some(), "{} has no bound", m.name);
        assert!(m.value > 0.0, "{}: {} reads 0", w.name(), m.name);
    }
    o.end_to_end.into_iter().chain(o.per_layer).collect()
}

#[test]
fn simulated_figures_repeat_and_host_spread_is_reported() {
    for w in Workload::ALL {
        let (a, b) = (metrics(w), metrics(w));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            if x.exact {
                assert_eq!(
                    x.value.to_bits(),
                    y.value.to_bits(),
                    "{}: {} differs between two runs at seed {SEED}",
                    w.name(),
                    x.name
                );
            } else if let Some(bound) = bound(x.name) {
                let spread = (x.value - y.value).abs() / ((x.value + y.value) / 2.0);
                println!(
                    "{:<10} {:<20} {:>14.4} {:>14.4} spread {:>6.3} bound {bound}",
                    w.name(),
                    x.name,
                    x.value,
                    y.value,
                    spread
                );
            }
        }
    }
}
