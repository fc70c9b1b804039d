//! The traced run: the generated requests of a phase replayed in-process
//! through the layers' public functions, with a span around each call.
//!
//! Each request goes `frame::decode_frame` → `Request::decode` →
//! `parse_formula`/`parse_program` → `SharedEngine::head` →
//! `co_calculus::interpret` | `SharedEngine::eval_db` | `SharedEngine::advance`
//! → `co_wire::write_snapshot` → `Response::encode` → `frame::encode_frame`.
//! The same replay times `co_server::handle` on each read request in a
//! session of its own, alternating which of the two runs first, so the sum of
//! the stage self times can be set against the untraced handler. Commits are
//! not repeated: even-numbered commits take the traced path and odd-numbered
//! ones go through `handle`, so the history is the one the server would make.

use crate::workload::{Kind, Name, Scheduled, Workload, CONNS};
use co_engine::{EvalStats, PinnedDb, SharedEngine};
use co_server::frame::{decode_frame, encode_frame};
use co_server::{Request, Response, SessionState, DEFAULT_MAX_FRAME_LEN};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u32,
    /// `0` for a request's root span.
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Stages that run inside `co_server::handle`; the rest (framing and the
/// message codec) run around it in the serving core.
pub const HANDLE_STAGES: [&str; 7] = [
    "parser.formula",
    "parser.program",
    "shared.pin",
    "interp.query",
    "engine.run",
    "shared.advance",
    "wire.encode",
];

struct Tracer {
    t0: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn record(
        &mut self,
        request: u32,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            request,
            name,
            start_ns,
            end_ns,
        });
        self.next_id
    }

    fn time<R>(
        &mut self,
        request: u32,
        parent: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(request, parent, name, start, end);
        r
    }
}

/// One replayed request.
pub struct Replayed {
    pub kind: Option<Kind>,
    /// Untraced `co_server::handle` time, when it was measured.
    pub handle_ns: Option<u64>,
    pub reply_frame_bytes: u64,
    pub payload_bytes: Option<u64>,
    pub eval: Option<EvalStats>,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub requests: BTreeMap<u32, Replayed>,
    pub store_before: co_object::store::StoreStats,
    pub store_after: co_object::store::StoreStats,
}

struct Session {
    shared: SharedEngine,
    pinned: Option<PinnedDb>,
    handle_state: SessionState,
}

fn expect_ok<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("replayed {what} failed: {e}"),
    }
}

impl Session {
    fn new(shared: &SharedEngine) -> Session {
        Session {
            shared: shared.clone(),
            pinned: None,
            handle_state: SessionState::new(shared.clone()),
        }
    }

    fn view(&self, tr: &mut Tracer, id: u32, root: u32) -> PinnedDb {
        match &self.pinned {
            Some(p) => p.clone(),
            None => tr.time(id, root, "shared.pin", || self.shared.head()),
        }
    }

    fn objects(
        tr: &mut Tracer,
        id: u32,
        root: u32,
        version: u64,
        result: &co_object::Object,
    ) -> (Response, u64) {
        let mut payload = Vec::new();
        tr.time(id, root, "wire.encode", || {
            co_wire::write_snapshot(
                &mut payload,
                std::slice::from_ref(result),
                b"co-server result",
            )
        })
        .expect("encoding to a Vec cannot fail");
        let bytes = payload.len() as u64;
        (Response::Objects { version, payload }, bytes)
    }

    /// The traced path of one request.
    fn traced(&mut self, tr: &mut Tracer, id: u32, frame: &[u8]) -> Replayed {
        let start = tr.now();
        let root = tr.record(id, 0, "request", start, start);
        let body = tr.time(id, root, "frame.decode", || {
            decode_frame(frame, DEFAULT_MAX_FRAME_LEN).map(<[u8]>::to_vec)
        });
        let body = expect_ok(body, "frame decode");
        let req = expect_ok(
            tr.time(id, root, "protocol.decode", || Request::decode(&body)),
            "request decode",
        );
        let mut payload_bytes = None;
        let mut eval = None;
        let (kind, resp) = match req {
            Request::Snapshot => {
                let pinned = tr.time(id, root, "shared.pin", || self.shared.head());
                let resp = Response::Snapshot {
                    version: pinned.version(),
                    root: pinned.root_id().map(co_object::NodeId::get),
                };
                self.pinned = Some(pinned);
                (None, resp)
            }
            Request::Query { formula } => {
                let f = expect_ok(
                    tr.time(id, root, "parser.formula", || {
                        co_parser::parse_formula(&formula)
                    }),
                    "parse",
                );
                let view = self.view(tr, id, root);
                let policy = self.shared.policy();
                let result = tr.time(id, root, "interp.query", || {
                    co_calculus::interpret(&f, view.object(), policy)
                });
                let (resp, bytes) = Session::objects(tr, id, root, view.version(), &result);
                payload_bytes = Some(bytes);
                (Some(Kind::Query), resp)
            }
            Request::Eval { program } => {
                let p = expect_ok(
                    tr.time(id, root, "parser.program", || {
                        co_parser::parse_program(&program)
                    }),
                    "parse",
                );
                let view = self.view(tr, id, root);
                let (db, stats) = expect_ok(
                    tr.time(id, root, "engine.run", || self.shared.eval_db(&p, &view)),
                    "eval",
                );
                let (resp, bytes) = Session::objects(tr, id, root, view.version(), &db);
                payload_bytes = Some(bytes);
                eval = Some(stats);
                (Some(Kind::Eval), resp)
            }
            Request::Advance { program } => {
                let p = expect_ok(
                    tr.time(id, root, "parser.program", || {
                        co_parser::parse_program(&program)
                    }),
                    "parse",
                );
                let start = tr.now();
                let out = expect_ok(self.shared.advance(&p), "advance");
                let end = tr.now();
                let adv = tr.record(id, root, "shared.advance", start, end);
                // The fixpoint's own time, as the engine reports it; the rest of
                // the advance is writer-mutex wait, pinning and the commit.
                let run_ns = (out.stats.elapsed.as_nanos() as u64).min(end - start);
                tr.record(id, adv, "engine.advance_run", end - run_ns, end);
                let resp = Response::Advanced {
                    version: out.version,
                    root: out.database.node_id().map(co_object::NodeId::get),
                    iterations: out.stats.iterations,
                };
                eval = Some(out.stats);
                (Some(Kind::Advance), resp)
            }
            other => panic!("the workloads send no {other:?}"),
        };
        let out = tr.time(id, root, "protocol.encode", || resp.encode());
        let frame_out = tr.time(id, root, "frame.encode", || encode_frame(&out));
        let end = tr.now();
        let span = tr
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == root)
            .expect("root span recorded");
        span.end_ns = end;
        Replayed {
            kind,
            handle_ns: None,
            reply_frame_bytes: frame_out.len() as u64,
            payload_bytes,
            eval,
        }
    }

    fn handled(&mut self, frame: &[u8]) -> u64 {
        let body = expect_ok(decode_frame(frame, DEFAULT_MAX_FRAME_LEN), "frame decode");
        let req = expect_ok(Request::decode(body), "request decode");
        let start = Instant::now();
        let resp = expect_ok(co_server::handle(&mut self.handle_state, req), "handle");
        let ns = start.elapsed().as_nanos() as u64;
        if let Response::Error { message, .. } = resp {
            panic!("replayed request failed: {message}");
        }
        ns
    }
}

/// Replays `sched` in order, each request in the session of its connection.
fn replay(
    sessions: &mut [Session],
    tr: &mut Tracer,
    sched: &[(usize, &Scheduled)],
    until: Instant,
) -> BTreeMap<u32, Replayed> {
    let mut out = BTreeMap::new();
    let mut commits = 0usize;
    for &(i, s) in sched {
        if Instant::now() >= until {
            break;
        }
        let session = &mut sessions[s.conn];
        let id = i as u32 + 1;
        let frame = encode_frame(&s.body);
        let r = if s.kind == Some(Kind::Advance) {
            commits += 1;
            if commits % 2 == 1 {
                session.traced(tr, id, &frame)
            } else {
                Replayed {
                    kind: s.kind,
                    handle_ns: Some(session.handled(&frame)),
                    reply_frame_bytes: 0,
                    payload_bytes: None,
                    eval: None,
                }
            }
        } else if i % 2 == 0 {
            let mut r = session.traced(tr, id, &frame);
            r.handle_ns = Some(session.handled(&frame));
            r
        } else {
            let handle_ns = session.handled(&frame);
            let mut r = session.traced(tr, id, &frame);
            r.handle_ns = Some(handle_ns);
            r
        };
        out.insert(id, r);
    }
    out
}

/// Replays `sched` against a `SharedEngine` restored from the workload's
/// snapshot, for at most `budget`. write_mix runs its writer connection on a
/// second thread, so the writer waits on real contention.
pub fn run(wl: &Workload, sched: &[Scheduled], budget: Duration) -> Replay {
    let snap = co_wire::read_snapshot(wl.snapshot.as_slice()).expect("the seed snapshot decodes");
    let seed = snap
        .roots
        .into_iter()
        .next()
        .expect("the seed snapshot has a root");
    let shared = SharedEngine::new(co_engine::Engine::new(Default::default()), seed);
    let until = Instant::now() + budget;
    let t0 = Instant::now();
    let sessions = || -> Vec<Session> { (0..CONNS).map(|_| Session::new(&shared)).collect() };
    let store_before = co_object::store::stats();
    let mut spans = Vec::new();
    let mut requests = BTreeMap::new();
    let all: Vec<(usize, &Scheduled)> = sched.iter().enumerate().collect();
    if wl.name == Name::WriteMix {
        // Connection 0 is the writer, connection 1 the reader.
        let (writer_sched, reader_sched): (Vec<_>, Vec<_>) =
            all.into_iter().partition(|(_, s)| s.conn == 0);
        let (w, r) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut tr = Tracer {
                    t0,
                    next_id: 1 << 30,
                    spans: Vec::new(),
                };
                let r = replay(&mut sessions(), &mut tr, &writer_sched, until);
                (tr.spans, r)
            });
            let mut tr = Tracer {
                t0,
                next_id: 0,
                spans: Vec::new(),
            };
            let r = replay(&mut sessions(), &mut tr, &reader_sched, until);
            (
                writer.join().expect("writer replay panicked"),
                (tr.spans, r),
            )
        });
        for (s, r) in [w, r] {
            spans.extend(s);
            requests.extend(r);
        }
    } else {
        let mut tr = Tracer {
            t0,
            next_id: 0,
            spans: Vec::new(),
        };
        requests = replay(&mut sessions(), &mut tr, &all, until);
        spans = tr.spans;
    }
    Replay {
        spans,
        requests,
        store_before,
        store_after: co_object::store::stats(),
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}
