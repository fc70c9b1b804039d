//! # co-server — a multi-client serving layer with snapshot-isolated reads
//!
//! A TCP front-end over one shared
//! [`SharedEngine`] — many concurrent sessions
//! submit programs and queries against a single hash-consed object store,
//! and every read runs against a *pinned snapshot* — frozen, GC-protected,
//! bit-identical to a single-threaded run quiesced at that version — while
//! writers advance the head underneath (see `co_engine::shared` for why
//! the store's immutable, never-recycled-id design makes this MVCC for
//! free).
//!
//! ## Serving core
//!
//! A readiness-driven reactor drives the application layer
//! ([`protocol::handle`]): one thread `poll(2)`s the whole session fd set
//! (nonblocking sockets, the vendored `polling` shim — no async runtime),
//! reassembles frames incrementally, and feeds bounded per-session queues
//! drained by a fixed worker pool. Full queues pause the socket (TCP
//! pushes back to the client); a server-wide in-flight cap answers excess
//! requests with typed [`ErrorCode::Overloaded`] rejections instead of
//! collapsing. Shutdown wakes and drains idle sessions
//! (`active_sessions` reaches zero).
//!
//! ## Protocol
//!
//! Length-prefixed, checksummed [`frame`]s carry [`Request`]/[`Response`]
//! messages; results ship back as co-wire snapshot payloads (the same
//! hash-cons-aware encoding checkpoints use). Corruption anywhere —
//! truncation at any byte, any single bit flip, frames fragmented across
//! readiness wakeups — yields a typed [`ProtocolError`], never a panic
//! and never a silently-wrong reply (`tests/protocol_adversarial.rs`
//! proves this exhaustively).
//!
//! ## Serving a store
//!
//! ```no_run
//! use co_engine::{Engine, SharedEngine};
//! use co_parser::parse_object;
//! use co_server::{Client, Server, ServerConfig};
//!
//! let db = parse_object("[edge: {[s: a, t: b]}]").unwrap();
//! let shared = SharedEngine::new(Engine::new(Default::default()), db);
//! let handle = Server::bind(shared, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client.snapshot().unwrap(); // pin: reads now snapshot-isolated
//! let (_version, result) = client.query("[edge: {[s: X, t: Y]}]").unwrap();
//! assert!(result.dot("edge").as_set().is_some());
//! handle.shutdown();
//! ```
//!
//! ## Knobs
//!
//! | env | default | meaning |
//! |---|---|---|
//! | `CO_SERVER_ADDR` | `127.0.0.1:0` | listen address (`:0` = ephemeral port) |
//! | `CO_SERVER_WORKERS` | `0` (auto) | worker threads; `0` = `max(2 × available_parallelism, 4)` (workers can park on the engine's writer mutex, so the pool oversubscribes the cores) |
//! | `CO_SERVER_SESSION_QUEUE` | `16` | per-session queued-request bound; at the bound the socket stops being read (backpressure) |
//! | `CO_SERVER_MAX_INFLIGHT` | `1024` | server-wide admitted-request cap; beyond it requests get a typed `Overloaded` rejection |
//! | `CO_SERVER_MAX_SESSIONS` | `1024` | concurrent sessions before new connections are rejected with a typed `SessionLimit` error |
//! | `CO_SERVER_MAX_FRAME` | 16 MiB | per-frame body cap, enforced before allocation ([`Client::connect`] assumes the default; pass another cap to [`Client::connect_with`]) |
//! | `CO_TRACE` | off | `1`/`stderr` emit JSON-lines spans to stderr; any other value is an append-mode file path |
//!
//! Every variable is read through the co-obs reader
//! ([`co_obs::config`]), once per process. A set-but-unparsable or
//! out-of-range value keeps the default **and emits one structured
//! warning line** (JSON through the co-obs event emitter — stderr unless
//! `CO_TRACE` routes it to a file) naming the variable and the rejected
//! value. Engine and store knobs (`CO_ENGINE_THREADS`,
//! `CO_GC_EVERY_ROUND`, `CO_MEMO_SHARD_CAP`, `CO_GC_HIGH_WATER`) apply
//! unchanged — the serving layer adds no semantics of its own.
//!
//! ## Observability
//!
//! Every request is stamped through its lifecycle
//! (decoded → enqueued → dequeued → handled → written) into the global
//! [`co_obs`] registry: `server.queue_wait_ns` / `server.handle_ns` /
//! `server.write_ns` histograms plus the decode/handle/reject ledger
//! counters (see the `obs` module docs for the exact invariants). The
//! [`Request::Metrics`] frame returns the whole registry as a typed
//! [`co_obs::Snapshot`]; [`Client::metrics`] fetches it.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod error;
pub mod frame;
pub(crate) mod obs;
mod pool;
pub mod protocol;
mod reactor;

pub use client::{Advanced, Client, ClientError};
pub use co_obs::config::ConfigWarning;
pub use error::ProtocolError;
pub use frame::{FrameDecoder, DEFAULT_MAX_FRAME_LEN, FRAME_HEADER_LEN};
pub use protocol::{handle, ErrorCode, Request, Response, SessionState, StatsDigest};

use co_engine::SharedEngine;
use co_obs::config::Knob;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Listener configuration. [`ServerConfig::from_env`] reads the knobs
/// documented at the crate root.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind (default `127.0.0.1:0` — an ephemeral port,
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Concurrent-session cap; further connections get a typed
    /// [`ErrorCode::SessionLimit`] rejection and are closed.
    pub max_sessions: usize,
    /// Per-frame body cap in bytes, enforced before allocation.
    pub max_frame_len: u64,
    /// Worker threads; `0` = auto
    /// (`max(2 × available_parallelism, 4)` — oversubscribed because a
    /// worker running an `advance` parks on the engine's writer mutex,
    /// and writers must never be able to occupy the whole pool).
    pub workers: usize,
    /// Per-session queued-request bound. At the bound the reactor stops
    /// reading that socket: kernel buffer + TCP window push back to the
    /// client instead of the server buffering unboundedly.
    pub session_queue: usize,
    /// Server-wide admitted-request cap; requests arriving beyond it get
    /// a typed [`ErrorCode::Overloaded`] rejection (no engine work).
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    /// The same as [`ServerConfig::from_env`]: the baseline knob values
    /// with the `CO_SERVER_*` environment applied on top. Reading the
    /// environment here mirrors the engine's `Default` honoring
    /// `CO_ENGINE_THREADS`, and lets a whole test suite be re-run under
    /// any knob setting without code changes.
    fn default() -> ServerConfig {
        ServerConfig::from_env()
    }
}

/// The default listen address.
const DEFAULT_ADDR: &str = "127.0.0.1:0";
const MAX_SESSIONS: Knob<usize> = Knob {
    name: "CO_SERVER_MAX_SESSIONS",
    default: 1024,
    min: 1,
};
const MAX_FRAME: Knob<u64> = Knob {
    name: "CO_SERVER_MAX_FRAME",
    default: DEFAULT_MAX_FRAME_LEN,
    min: 1,
};
const WORKERS: Knob<usize> = Knob {
    name: "CO_SERVER_WORKERS",
    default: 0,
    min: 0,
};
const SESSION_QUEUE: Knob<usize> = Knob {
    name: "CO_SERVER_SESSION_QUEUE",
    default: 16,
    min: 1,
};
const MAX_INFLIGHT: Knob<usize> = Knob {
    name: "CO_SERVER_MAX_INFLIGHT",
    default: 1024,
    min: 1,
};

impl ServerConfig {
    /// Configuration from the `CO_SERVER_*` environment, read through
    /// the co-obs reader ([`co_obs::config::var`]). A variable that is
    /// set but unparsable or out of range keeps its default and is
    /// warned about once per process, as one structured line naming the
    /// variable and the rejected value — silent fallback hides typos like
    /// `CO_SERVER_MAX_SESSIONS=1k` until the cap bites in production.
    pub fn from_env() -> ServerConfig {
        let (config, warnings) = ServerConfig::from_vars(co_obs::config::var);
        warnings.iter().for_each(ConfigWarning::emit);
        config
    }

    /// [`ServerConfig::from_env`] with the variable source injected —
    /// the testable core. Returns the configuration plus the warnings
    /// for set-but-rejected values.
    pub fn from_vars(get: impl Fn(&str) -> Option<String>) -> (ServerConfig, Vec<ConfigWarning>) {
        let mut warnings = Vec::new();
        let addr = match get("CO_SERVER_ADDR") {
            Some(addr) if !addr.trim().is_empty() => addr.trim().to_owned(),
            Some(raw) => {
                warnings.push(ConfigWarning::new(
                    "CO_SERVER_ADDR",
                    &raw,
                    format!("empty address; keeping \"{DEFAULT_ADDR}\""),
                ));
                DEFAULT_ADDR.to_owned()
            }
            None => DEFAULT_ADDR.to_owned(),
        };
        let config = ServerConfig {
            addr,
            max_sessions: MAX_SESSIONS.resolve(&get, &mut warnings),
            max_frame_len: MAX_FRAME.resolve(&get, &mut warnings),
            workers: WORKERS.resolve(&get, &mut warnings),
            session_queue: SESSION_QUEUE.resolve(&get, &mut warnings),
            max_inflight: MAX_INFLIGHT.resolve(&get, &mut warnings),
        };
        (config, warnings)
    }

    /// The worker count the server actually spawns: `workers`, or —
    /// when `0` (auto) — `max(2 × available_parallelism, 4)`. Workers
    /// are not purely CPU-bound: an `advance` parks its worker on the
    /// engine's writer mutex for the whole fixpoint, so a pool sized
    /// exactly to the cores would let a few concurrent writers stall
    /// every read; modest oversubscription keeps readers flowing (and
    /// measurably halves the open-loop p99 on small machines).
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
            (cores * 2).max(4)
        }
    }
}

/// What an accept-loop error means for the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AcceptDisposition {
    /// Nothing queued (`WouldBlock`): go back to polling.
    Idle,
    /// A per-connection failure (the peer reset mid-handshake, a stray
    /// signal, fd pressure that may clear): skip it, keep accepting.
    Transient,
    /// The listener itself is broken: log and stop accepting — retrying
    /// at poll frequency would spin forever on a dead socket.
    Fatal,
}

pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptDisposition {
    match e.kind() {
        io::ErrorKind::WouldBlock => AcceptDisposition::Idle,
        // Peer-side failures surfaced through accept, and resource
        // pressure that backing off can relieve.
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::Interrupted
        | io::ErrorKind::TimedOut => AcceptDisposition::Transient,
        _ => AcceptDisposition::Fatal,
    }
}

/// The serving front-end. [`Server::bind`] starts the reactor and its
/// worker pool and returns a [`ServerHandle`]; there is no long-lived
/// `Server` value.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts serving sessions against `shared`.
    /// Reads are snapshot-isolated per the [`co_engine::shared`]
    /// contract.
    pub fn bind(shared: SharedEngine, config: ServerConfig) -> io::Result<ServerHandle> {
        // With automatic collection armed, start the GC collector thread
        // before any session exists: it is otherwise spawned by the first
        // high-water nudge, which would put a thread-spawn syscall on a
        // request's intern path.
        if co_object::store::gc_high_water() != 0 {
            co_object::store::start_gc_collector();
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let pool_shared = Arc::new(pool::PoolShared::new(
            config.max_inflight,
            config.session_queue,
            polling::Waker::new()?,
        ));
        let thread = {
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let pool_shared = Arc::clone(&pool_shared);
            thread::Builder::new()
                .name("co-server-reactor".to_owned())
                .spawn(move || {
                    reactor::run(listener, shared, &config, pool_shared, &shutdown, &active)
                })?
        };
        Ok(ServerHandle {
            addr,
            shutdown,
            active,
            thread: Some(thread),
            pool_shared,
        })
    }
}

/// Releases one claimed session slot on drop — even when a worker
/// unwinds from a panic mid-request.
pub(crate) struct SlotGuard(pub(crate) Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A running server: its bound address and its shutdown lever. Dropping
/// the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    thread: Option<thread::JoinHandle<()>>,
    /// Shared with the reactor; its self-pipe wakes the reactor to stop.
    pool_shared: Arc<pool::PoolShared>,
}

impl ServerHandle {
    /// The bound listen address (the real port when `addr` asked for
    /// `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Stops accepting and wakes the reactor, which closes every session
    /// socket (idle sessions included — none is abandoned until process
    /// exit) and joins the worker pool once in-flight requests finish.
    /// Returns the sessions still undrained afterwards — `0` on a clean
    /// shutdown, which tests assert.
    pub fn shutdown(mut self) -> usize {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> usize {
        self.shutdown.store(true, Ordering::Release);
        self.pool_shared.waker.wake();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        self.active.load(Ordering::Acquire)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.shutdown_impl();
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;
    use std::collections::HashMap;

    fn vars(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        move |key| map.get(key).cloned()
    }

    #[test]
    fn parsable_values_override_defaults_without_warnings() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "7"),
            ("CO_SERVER_MAX_FRAME", "4096"),
            ("CO_SERVER_WORKERS", "3"),
            ("CO_SERVER_SESSION_QUEUE", "2"),
            ("CO_SERVER_MAX_INFLIGHT", "9"),
            ("CO_SERVER_ADDR", "127.0.0.1:0"),
        ]));
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(cfg.max_sessions, 7);
        assert_eq!(cfg.max_frame_len, 4096);
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.session_queue, 2);
        assert_eq!(cfg.max_inflight, 9);
    }

    #[test]
    fn unparsable_values_keep_defaults_and_warn_naming_the_variable() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "1k"),
            ("CO_SERVER_MAX_FRAME", "-5"),
        ]));
        let defaults = ServerConfig::default();
        assert_eq!(cfg.max_sessions, defaults.max_sessions);
        assert_eq!(cfg.max_frame_len, defaults.max_frame_len);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        for (warning, var, rejected) in [
            (&warnings[0], "CO_SERVER_MAX_SESSIONS", "1k"),
            (&warnings[1], "CO_SERVER_MAX_FRAME", "-5"),
        ] {
            assert_eq!(warning.variable, var);
            assert_eq!(warning.rejected, rejected);
            let rendered = warning.to_string();
            assert!(rendered.contains(var), "{rendered}");
            assert!(rendered.contains(rejected), "{rendered}");
            assert!(rendered.starts_with("ignoring "), "{rendered}");
        }
    }

    #[test]
    fn zero_caps_are_rejected_but_zero_workers_means_auto() {
        let (cfg, warnings) = ServerConfig::from_vars(vars(&[
            ("CO_SERVER_MAX_SESSIONS", "0"),
            ("CO_SERVER_SESSION_QUEUE", "0"),
            ("CO_SERVER_MAX_INFLIGHT", "0"),
            ("CO_SERVER_WORKERS", "0"),
        ]));
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert_eq!(cfg.max_sessions, 1024);
        assert_eq!(cfg.session_queue, 16);
        assert_eq!(cfg.max_inflight, 1024);
        assert_eq!(cfg.workers, 0);
        assert!(cfg.resolved_workers() >= 4, "auto floors at four workers");
    }

    #[test]
    fn unset_environment_is_silent_defaults() {
        let (cfg, warnings) = ServerConfig::from_vars(|_| None);
        assert!(warnings.is_empty());
        assert_eq!(cfg.max_sessions, 1024);
    }

    #[test]
    fn accept_errors_classify_idle_transient_fatal() {
        use std::io::{Error, ErrorKind};
        assert_eq!(
            classify_accept_error(&Error::from(ErrorKind::WouldBlock)),
            AcceptDisposition::Idle
        );
        for transient in [
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::Interrupted,
            ErrorKind::TimedOut,
        ] {
            assert_eq!(
                classify_accept_error(&Error::from(transient)),
                AcceptDisposition::Transient,
                "{transient:?}"
            );
        }
        for fatal in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::InvalidInput,
        ] {
            assert_eq!(
                classify_accept_error(&Error::from(fatal)),
                AcceptDisposition::Fatal,
                "{fatal:?}"
            );
        }
    }
}
