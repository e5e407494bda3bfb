//! The host clocks: wall- and CPU-time spans around calls into the repository's
//! public API, their Chrome-trace export and self-time table, and the
//! small statistics the benchmark reports.
//!
//! Every timing here is taken *outside* the simulator, around a public
//! call. Nothing in this module touches simulated time.
//!
//! Calls into a deployment are timed on two host clocks: wall time and
//! process CPU time (all threads). The coordinator and the query
//! scatter spawn a thread per shard per wave or query, so their wall
//! time includes thread wake-up latency, which on a shared machine
//! varies far more from run to run than the CPU work does. The gated
//! host metrics therefore use CPU time; wall time is reported beside
//! them.

use std::fmt::Write as _;
use std::time::Instant;

/// One metric as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (`BENCHMARK.json` lists the gated ones).
    pub name: &'static str,
    /// Unit, e.g. `txn/s`, `ms`, `count`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// True for simulated-clock figures and counts: these must repeat
    /// bit for bit at a given seed. False for host-clock figures.
    pub exact: bool,
}

impl Metric {
    /// A host-clock metric (varies run to run).
    pub fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            exact: false,
        }
    }

    /// A simulated-clock metric or a count (repeats exactly per seed).
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            exact: true,
        }
    }
}

/// Host cost of one timed call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds, summed over every thread.
    pub cpu: f64,
}

/// Process CPU time in seconds (all threads, live and finished).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout of
    // 64-bit Linux (two 64-bit fields), and the clock id is valid.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process CPU time is unavailable here: fall back to wall time since
/// the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// One recorded host-time span.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// The layer call the span wraps (e.g. `run_txns`).
    pub name: &'static str,
    /// The batch the call belongs to; spans of one batch share it.
    pub batch: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Process CPU time in nanoseconds.
    pub cpu_ns: u64,
}

/// An open span: its wall and CPU start.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start: Instant,
    cpu: f64,
}

/// Times calls and, while recording, keeps one [`HostSpan`] per call in
/// memory. Timing always happens (the host metrics need it); recording
/// only adds a `Vec` push per call, which is the tracing overhead the
/// traced run reports.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    batch: u64,
    spans: Vec<HostSpan>,
}

impl Tracer {
    /// A tracer that times but does not record.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording: false,
            batch: 0,
            spans: Vec::new(),
        }
    }

    /// Turns span recording on or off.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Starts a new batch: later spans carry the new id.
    pub fn next_batch(&mut self) {
        self.batch += 1;
    }

    /// Opens a span; [`Tracer::end`] closes it.
    pub fn begin(&self) -> Open {
        Open {
            start: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Closes `open` as a span named `name` (recorded when recording is
    /// on) and returns its host [`Cost`].
    pub fn end(&mut self, name: &'static str, open: Open) -> Cost {
        let dur = open.start.elapsed();
        let cost = Cost {
            wall: dur.as_secs_f64(),
            cpu: cpu_seconds() - open.cpu,
        };
        if self.recording {
            self.spans.push(HostSpan {
                name,
                batch: self.batch,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
                cpu_ns: (cost.cpu * 1e9) as u64,
            });
        }
        cost
    }

    /// Runs `f` inside a span named `name`, returning its result and its
    /// host [`Cost`].
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Cost) {
        let open = self.begin();
        let out = f();
        (out, self.end(name, open))
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[HostSpan] {
        &self.spans
    }
}

/// Spans in export order: by start, the enclosing (longer) span first.
fn ordered(spans: &[HostSpan]) -> Vec<HostSpan> {
    let mut out = spans.to_vec();
    out.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    out
}

fn push_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1000, ns % 1000);
}

/// Renders spans as a Chrome-trace document (one process, one thread,
/// complete events carrying their batch id) that
/// `pushtap_trace::chrome::validate` accepts.
pub fn chrome_json(spans: &[HostSpan]) -> String {
    let mut out = String::from(
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"twoclock host\"}}",
    );
    for s in ordered(spans) {
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"host\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":",
            s.name
        );
        push_us(&mut out, s.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, s.dur_ns);
        let _ = write!(
            out,
            ",\"args\":{{\"batch\":{},\"cpu_us\":{}}}}}",
            s.batch,
            s.cpu_ns / 1000
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Host time of one layer call site, summed over its spans.
#[derive(Debug, Clone)]
pub struct LayerTime {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed durations minus the time of directly nested spans.
    pub self_ns: u64,
    /// Summed process CPU time, nanoseconds.
    pub cpu_ns: u64,
}

/// Per-name self time: each span's duration minus its direct
/// children's, summed by name (largest self time first).
pub fn self_times(spans: &[HostSpan]) -> Vec<LayerTime> {
    let spans = ordered(spans);
    let mut child_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.start_ns + t.dur_ns <= s.start_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&top) = stack.last() {
            child_ns[top] += s.dur_ns;
        }
        stack.push(i);
    }
    let mut by_name: Vec<LayerTime> = Vec::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let own = s.dur_ns.saturating_sub(child);
        match by_name.iter_mut().find(|l| l.name == s.name) {
            Some(l) => {
                l.calls += 1;
                l.total_ns += s.dur_ns;
                l.self_ns += own;
                l.cpu_ns += s.cpu_ns;
            }
            None => by_name.push(LayerTime {
                name: s.name,
                calls: 1,
                total_ns: s.dur_ns,
                self_ns: own,
                cpu_ns: s.cpu_ns,
            }),
        }
    }
    by_name.sort_by_key(|l| std::cmp::Reverse(l.self_ns));
    by_name
}

/// Median of `v` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> HostSpan {
        HostSpan {
            name,
            batch: 1,
            start_ns,
            dur_ns,
            cpu_ns: dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("pass", 0, 100),
            span("run_txns", 10, 30),
            span("run_query", 50, 20),
            span("scan", 55, 5),
        ];
        let t = self_times(&spans);
        let get = |n: &str| t.iter().find(|l| l.name == n).unwrap().clone();
        assert_eq!(get("pass").self_ns, 50);
        assert_eq!(get("run_query").self_ns, 15);
        assert_eq!(get("scan").self_ns, 5);
        assert_eq!(get("run_txns").total_ns, 30);
    }

    #[test]
    fn chrome_export_validates() {
        let spans = [span("b", 2000, 10), span("a", 1000, 5000)];
        let json = chrome_json(&spans);
        let stats = pushtap_trace::chrome::validate(&json).expect("valid trace");
        assert_eq!(stats.complete, 2);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
