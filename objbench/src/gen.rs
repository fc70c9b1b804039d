//! One phase of open-loop load: a fresh server process, the workload's
//! connections, and a schedule of requests sent at their intended times.
//!
//! The generator is one process with two threads: this one sends and
//! receives on every connection (nonblocking sockets, `ppoll` with a
//! nanosecond timeout), and a checker thread decodes and checks replies.
//! Requests are pipelined: the pool core answers each session in order, so
//! the n-th reply on a connection belongs to its n-th request. Latency runs
//! from a request's intended send time, so a stall also charges the requests
//! queued behind it (coordinated omission is not hidden).

use crate::serve::ServerProc;
use crate::sys;
use crate::workload::{
    Checker, Fail, Kind, Name, Oracle, Scheduled, Workload, CONNS, SEED_VERSION,
};
use co_server::frame::{encode_frame, read_frame, write_frame};
use co_server::{FrameDecoder, Request, Response, StatsDigest, DEFAULT_MAX_FRAME_LEN};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A phase whose late sends exceed this share is invalid.
pub const MAX_LATE_FRAC: f64 = 0.01;
/// How long replies may trail the last intended send before the rest fail.
const DRAIN: Duration = Duration::from_secs(2);
/// Latency recorded for a request that failed or was never answered.
pub const FAILED: u64 = u64::MAX;

pub struct PhaseConfig<'a> {
    pub rate: f64,
    pub secs: f64,
    pub seed: u64,
    /// Take `Request::Metrics`/`Stats` around the window.
    pub registry: bool,
    /// Equal slices of the window, by intended send time, judged apart.
    pub windows: usize,
    pub server_cpus: Option<&'a str>,
}

/// One slice of a phase's window.
#[derive(Default)]
pub struct Window {
    pub latency: [Vec<u64>; 3],
    pub sent: u64,
    pub late: u64,
}

impl Window {
    pub fn late_frac(&self) -> f64 {
        self.late as f64 / self.sent.max(1) as f64
    }
}

pub struct Phase {
    pub rate: f64,
    pub setup_s: f64,
    pub restore_ns: u64,
    pub rss_peak_mb: f64,
    /// CPU time the server spent while the window's requests were served.
    pub server_cpu_ns: u64,
    /// Per kind (`Kind::index`), the latency of every timed request in ns,
    /// `FAILED` for failures.
    pub latency: [Vec<u64>; 3],
    pub attempted: u64,
    /// Typed error replies (refused or failed requests).
    pub error_replies: u64,
    /// Replies that were malformed or differ from the reference.
    pub wrong: u64,
    /// Requests without a reply when the phase ended.
    pub unanswered: u64,
    pub sent: u64,
    pub late: u64,
    pub lag_ns: Vec<u64>,
    /// Requests due but unanswered at the end of each quarter of the window.
    pub backlog: [u64; 4],
    pub windows: Vec<Window>,
    pub errors: Vec<String>,
    /// write_mix's final head: its version and `[doa: {X}]`, for [`verify`].
    pub final_head: Option<(u64, co_object::Object)>,
    pub metrics: Option<(co_obs::Snapshot, StatsDigest, StatsDigest)>,
}

impl Phase {
    pub fn late_frac(&self) -> f64 {
        self.late as f64 / self.sent.max(1) as f64
    }

    /// Completions fell steadily behind the schedule across the window.
    pub fn backlog_growing(&self) -> bool {
        let b = self.backlog;
        let timed: usize = self.latency.iter().map(Vec::len).sum();
        let margin = 16u64.max(timed as u64 / 50);
        b[1] < b[2] && b[2] < b[3] && b[3] > b[0] + margin
    }

    /// Valid: the generator kept its schedule and no backlog grew.
    pub fn valid(&self) -> bool {
        self.late_frac() <= MAX_LATE_FRAC && !self.backlog_growing()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Unanswered,
    Ok,
    Error,
    Wrong,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    decoder: FrameDecoder,
    /// Schedule indices awaiting their reply, in send order.
    pending: VecDeque<usize>,
    closed: bool,
}

/// How long a settling connection waits for the replies still owed to it.
const SETTLE: Duration = Duration::from_secs(10);

impl Conn {
    /// Returns the connection to blocking mode with nothing in flight: the
    /// rest of its output is sent and the replies still owed — to requests
    /// the phase already counts as unanswered — are read and dropped, so the
    /// next reply on it answers the next request.
    fn settle(&mut self) -> io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(&self.out[self.out_pos..])?;
        self.out.clear();
        self.out_pos = 0;
        self.stream.set_read_timeout(Some(SETTLE))?;
        let mut buf = vec![0u8; 64 * 1024];
        while !self.pending.is_empty() {
            if self
                .decoder
                .next_frame()
                .map_err(io::Error::other)?
                .is_some()
            {
                self.pending.pop_front();
                continue;
            }
            match self.stream.read(&mut buf)? {
                0 => {
                    return Err(io::Error::other(
                        "server closed a connection with replies owed",
                    ))
                }
                k => self.decoder.push(&buf[..k]),
            }
        }
        self.stream.set_read_timeout(None)
    }
}

fn request(stream: &mut TcpStream, req: &Request) -> io::Result<Response> {
    write_frame(&mut *stream, &req.encode()).map_err(io::Error::other)?;
    let body = read_frame(&mut *stream, DEFAULT_MAX_FRAME_LEN)
        .map_err(io::Error::other)?
        .ok_or_else(|| io::Error::other("server closed the connection"))?;
    Response::decode(&body).map_err(io::Error::other)
}

fn stats(stream: &mut TcpStream) -> io::Result<StatsDigest> {
    match request(stream, &Request::Stats)? {
        Response::Stats(d) => Ok(d),
        _ => Err(io::Error::other("unexpected reply to Stats")),
    }
}

fn metrics(stream: &mut TcpStream) -> io::Result<co_obs::Snapshot> {
    match request(stream, &Request::Metrics)? {
        Response::Metrics(m) => Ok(m),
        _ => Err(io::Error::other("unexpected reply to Metrics")),
    }
}

/// Runs one phase against a fresh server.
pub fn run_phase(wl: &Workload, cfg: &PhaseConfig<'_>) -> io::Result<Phase> {
    let sched = wl.schedule(cfg.seed, cfg.rate, cfg.secs);
    let server = ServerProc::spawn(&wl.snapshot, &wl.server_env, cfg.server_cpus)?;
    let mut streams = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let mut s = TcpStream::connect(server.addr)?;
        s.set_nodelay(true)?;
        if i == 0 {
            match request(&mut s, &Request::Ping)? {
                Response::Pong => {}
                _ => return Err(io::Error::other("unexpected reply to Ping")),
            }
        }
        streams.push(s);
    }
    let setup_s = server.spawned.elapsed().as_secs_f64();
    let before = if cfg.registry {
        Some((metrics(&mut streams[0])?, stats(&mut streams[0])?))
    } else {
        None
    };

    let mut conns: Vec<Conn> = streams
        .into_iter()
        .map(|stream| {
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                decoder: FrameDecoder::new(DEFAULT_MAX_FRAME_LEN),
                pending: VecDeque::new(),
                closed: false,
            })
        })
        .collect::<io::Result<_>>()?;

    let n = sched.len();
    let mut sent_ns = vec![0u64; n];
    let mut done_ns = vec![FAILED; n];
    let (tx, rx) = mpsc::channel::<(usize, Vec<u8>)>();
    let cpu_before = server.cpu_ns()?;
    let (status, mut errors) = std::thread::scope(|scope| -> io::Result<_> {
        let checking = scope.spawn(|| {
            let mut checker = Checker::new(wl);
            let mut status = vec![Status::Unanswered; n];
            let mut errors = Vec::new();
            for (i, body) in rx {
                status[i] = match checker.check(sched[i].check, &body) {
                    Ok(()) => Status::Ok,
                    Err(Fail::Error(e)) => {
                        errors.push(format!("request {i}: {e}"));
                        Status::Error
                    }
                    Err(Fail::Wrong(e)) => {
                        errors.push(format!("request {i}: {e}"));
                        Status::Wrong
                    }
                };
            }
            (status, errors)
        });
        let io = drive(&sched, &mut conns, &mut sent_ns, &mut done_ns, tx);
        let (status, errors) = checking.join().expect("checker thread panicked");
        io?;
        Ok((status, errors))
    })?;
    let server_cpu_ns = server.cpu_ns()? - cpu_before;

    for c in &mut conns {
        c.settle()?;
    }
    let mut attempted = n as u64;
    // Failures of the final-head read, which has no schedule slot.
    let mut final_wrong = 0u64;
    let mut metrics_out = None;
    if let Some((m0, s0)) = before {
        let m1 = metrics(&mut conns[0].stream)?;
        let s1 = stats(&mut conns[0].stream)?;
        metrics_out = Some((m1.minus(&m0), s0, s1));
    }
    let mut final_head = None;
    if wl.name == Name::WriteMix {
        // The final head, checked with the phase's reads against the
        // sequential replay of its commits.
        let commits = sched
            .iter()
            .filter(|s| s.kind == Some(Kind::Advance))
            .count() as u64;
        attempted += 1;
        let final_read = request(
            &mut conns[0].stream,
            &Request::Query {
                formula: wl.formulas[0].clone(),
            },
        );
        match final_read.map_err(|e| e.to_string()).and_then(|r| match r {
            Response::Objects { version, payload } => co_wire::read_snapshot(payload.as_slice())
                .map_err(|e| e.to_string())
                .map(|s| (version, s.roots)),
            _ => Err("unexpected reply to the final read".to_owned()),
        }) {
            Ok((version, roots)) if version == SEED_VERSION + commits && roots.len() == 1 => {
                final_head = Some((version, roots.into_iter().next().expect("one root")));
            }
            Ok((version, _)) => {
                final_wrong += 1;
                errors.push(format!(
                    "final head is version {version} after {commits} commits"
                ));
            }
            Err(e) => {
                final_wrong += 1;
                errors.push(format!("final read: {e}"));
            }
        }
    }
    let rss_peak_mb = server.rss_peak_mb()?;
    let restore_ns = server.restore_ns;
    drop(conns);
    server.stop()?;

    let window = (cfg.secs * 1e9) as u64;
    let mut latency: [Vec<u64>; 3] = Default::default();
    let mut windows: Vec<Window> = (0..cfg.windows.max(1)).map(|_| Window::default()).collect();
    let mut lag_ns = Vec::with_capacity(n);
    let mut late = 0u64;
    let count = |want: Status| status.iter().filter(|&&s| s == want).count() as u64;
    for (i, s) in sched.iter().enumerate() {
        let answered = done_ns[i] != FAILED && status[i] == Status::Ok;
        let slices = windows.len();
        let w = &mut windows[((s.due_ns as u128 * slices as u128 / window.max(1) as u128)
            as usize)
            .min(slices - 1)];
        let lag = sent_ns[i].saturating_sub(s.due_ns);
        lag_ns.push(lag);
        w.sent += 1;
        if lag > wl.late_ns() {
            late += 1;
            w.late += 1;
        }
        if let Some(kind) = s.kind {
            let l = if answered {
                done_ns[i] - s.due_ns
            } else {
                FAILED
            };
            latency[kind.index()].push(l);
            w.latency[kind.index()].push(l);
        }
    }
    let mut backlog = [0u64; 4];
    for (q, b) in backlog.iter_mut().enumerate() {
        let t = window * (q as u64 + 1) / 4;
        *b = sched
            .iter()
            .enumerate()
            .filter(|(i, s)| s.due_ns <= t && done_ns[*i] > t)
            .count() as u64;
    }
    Ok(Phase {
        rate: cfg.rate,
        setup_s,
        restore_ns,
        rss_peak_mb,
        server_cpu_ns,
        latency,
        attempted,
        error_replies: count(Status::Error),
        wrong: count(Status::Wrong) + final_wrong,
        unanswered: count(Status::Unanswered),
        sent: n as u64,
        late,
        lag_ns,
        backlog,
        windows,
        errors,
        final_head,
        metrics: metrics_out,
    })
}

/// The send/receive loop. Returns when every request is answered, a
/// connection closes, or the drain deadline passes.
fn drive(
    sched: &[Scheduled],
    conns: &mut [Conn],
    sent_ns: &mut [u64],
    done_ns: &mut [u64],
    tx: mpsc::Sender<(usize, Vec<u8>)>,
) -> io::Result<()> {
    let _ = sys::set_timer_slack(1);
    let start = Instant::now();
    let last_due = sched.last().map_or(0, |s| s.due_ns);
    let deadline = Duration::from_nanos(last_due) + DRAIN;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    let mut fds = Vec::with_capacity(conns.len());
    loop {
        let now = start.elapsed();
        let now_ns = now.as_nanos() as u64;
        while next < sched.len() && sched[next].due_ns <= now_ns {
            let s = &sched[next];
            let c = &mut conns[s.conn];
            c.out.extend_from_slice(&encode_frame(&s.body));
            c.pending.push_back(next);
            sent_ns[next] = now_ns;
            next += 1;
            outstanding += 1;
        }
        for c in conns.iter_mut() {
            while c.out_pos < c.out.len() {
                match c.stream.write(&c.out[c.out_pos..]) {
                    Ok(0) => return Err(io::Error::other("server stopped reading")),
                    Ok(k) => c.out_pos += k,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if c.out_pos == c.out.len() {
                c.out.clear();
                c.out_pos = 0;
            }
        }
        if (next == sched.len() && outstanding == 0)
            || now >= deadline
            || conns.iter().all(|c| c.closed)
        {
            return Ok(());
        }
        let wake = if next < sched.len() {
            Duration::from_nanos(sched[next].due_ns.saturating_sub(now_ns))
        } else {
            deadline - now
        };
        fds.clear();
        fds.extend(conns.iter().map(|c| {
            let mut ev = if c.closed { 0 } else { sys::POLLIN };
            if c.out_pos < c.out.len() {
                ev |= sys::POLLOUT;
            }
            sys::poll_fd(c.stream.as_raw_fd(), ev)
        }));
        if sys::wait(&mut fds, wake.min(Duration::from_millis(50)))? == 0 {
            continue;
        }
        for (c, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents == 0 || c.closed {
                continue;
            }
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.closed = true;
                        break;
                    }
                    Ok(k) => c.decoder.push(&buf[..k]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let t = start.elapsed().as_nanos() as u64;
            while let Some(body) = c.decoder.next_frame().map_err(io::Error::other)? {
                let Some(i) = c.pending.pop_front() else {
                    return Err(io::Error::other("reply without a request"));
                };
                done_ns[i] = t;
                outstanding -= 1;
                // The checker only stops after this loop drops `tx`.
                let _ = tx.send((i, body));
            }
        }
    }
}

/// Checks write_mix's final head against `oracle`'s sequential replay. It
/// runs once all phases are done: the replay is heavy enough to slow the
/// server's next phase if it ran in between.
pub fn verify(wl: &Workload, oracle: &mut Oracle, phase: &mut Phase) {
    if let Some((version, doa)) = phase.final_head.take() {
        if let Err(why) = oracle.check_final_doa(wl, version, &doa) {
            phase.wrong += 1;
            phase.errors.push(why);
        }
    }
}
