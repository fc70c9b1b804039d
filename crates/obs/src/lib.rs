//! # co-obs — the observability core
//!
//! A dependency-light (std-only) metrics and structured-trace layer
//! shared by every crate in the workspace. Two halves:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) in a named
//!   [`Registry`]: every mutation is a relaxed atomic — no locks on any
//!   hot path — and the whole registry exports as a typed, mergeable,
//!   diffable [`Snapshot`]. Histograms are HDR-style log-bucketed
//!   (exact below 32, 32 sub-buckets per octave above, ≈3.2% relative
//!   quantile error, exact `min`/`max`/`sum`/`count`).
//! - **Tracing** ([`emit`], [`warn`]): a JSON-lines span/event emitter
//!   gated by `CO_TRACE`. Off (the default) it costs one relaxed load;
//!   on, each event is one JSON object per line to stderr or a file.
//!
//! Instruments always record. The one knob of its own is `CO_TRACE`
//! (unset/`0` off, `1`/`stderr` to stderr, anything else an append-mode
//! file path).
//!
//! [`config`] is the workspace's one reader of `CO_*` variables: every
//! crate reads its knobs through [`config::var`] and parses them with
//! [`config::Knob`], so a bad value is treated the same everywhere — it
//! keeps the default and is warned about once.
//!
//! Hot-path pattern — resolve instruments once, mutate through `Arc`s:
//!
//! ```
//! use co_obs::{Counter, Histogram};
//! use std::sync::{Arc, OnceLock};
//!
//! struct Instruments {
//!     requests: Arc<Counter>,
//!     latency_ns: Arc<Histogram>,
//! }
//!
//! fn instruments() -> &'static Instruments {
//!     static CELL: OnceLock<Instruments> = OnceLock::new();
//!     CELL.get_or_init(|| Instruments {
//!         requests: co_obs::counter("doc.requests"),
//!         latency_ns: co_obs::histogram("doc.latency_ns"),
//!     })
//! }
//!
//! instruments().requests.inc();
//! instruments().latency_ns.record(1_500);
//! let snap = co_obs::global().snapshot();
//! assert_eq!(snap.counter("doc.requests"), Some(1));
//! assert_eq!(snap.histogram("doc.latency_ns").unwrap().quantile(1.0), 1_500);
//! ```

pub mod config;
pub mod json;
mod metrics;
mod registry;
mod trace;

pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, NUM_BUCKETS,
    SUB_BUCKET_BITS,
};
pub use registry::{counter, gauge, global, histogram, Registry, Snapshot};
pub use trace::{emit, set_trace_output, trace_enabled, warn, FieldValue, TraceOutput};
