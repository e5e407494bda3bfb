//! Two-clock HTAP benchmark over the public `pushtap_shard::ShardedHtap`
//! API.
//!
//! Every number carries one of two clocks. *Host* numbers are what the
//! simulator costs to run on this machine (wall time, memory); a
//! performance change to the Rust code moves them. *Simulated* numbers
//! (`sim_*`) are the paper's quantities from the cost model — tpmC,
//! QphH, commit latency, freshness tax, sojourn — and a host-only change
//! must leave them bit-identical.
//!
//! Three workloads ([`Workload`]) each load a different set of layers;
//! `README.md` documents why each exists and which metric each layer
//! should move. [`run`] measures one workload; the `twoclock` binary
//! wraps it in the command-line contract.

// The one `unsafe` block reads the process CPU clock (`host::cpu_seconds`).
#![deny(unsafe_code)]

mod host;
mod probes;
mod workloads;

pub use host::{LayerTime, Metric};
pub use workloads::{run, Outcome, Workload};
