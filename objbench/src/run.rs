//! `objbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): after an unmeasured warm-up, 40% of the time goes
//! to phases at the workload's reference rate, which give the latency, CPU,
//! set-up and memory figures; the rest bisects the offered rate for the
//! highest one that meets the workload's SLO. Every phase starts a fresh
//! server from the seed. Traced (`--trace 1`): one phase at the reference rate
//! with the server's metrics registry read around it, then the same requests
//! replayed in-process with spans. The last line of stdout is the JSON
//! summary; the full result, stamped with its fingerprint, is written next to
//! the build.

use crate::gen::{self, Phase, PhaseConfig, FAILED};
use crate::json::Json;
use crate::replay::{self, HANDLE_STAGES};
use crate::sys;
use crate::workload::{Kind, Name, Oracle, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: objbench --workload <read_point|closure_eval|write_mix|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";
/// Every run first drives the workload at its reference rate for this long,
/// unmeasured: the first seconds of load on a small virtual machine cost
/// measurably more CPU per request than the rest.
const WARMUP_S: f64 = 5.0;
/// Reference phases of an untraced run, and the share of its time they get.
const REF_PHASES: usize = 8;
const REF_SHARE: f64 = 0.4;
/// Bisection steps of the capacity search, each judged on this many slices.
const CAPACITY_STEPS: usize = 6;
const STEP_WINDOWS: usize = 3;
/// The capacity search brackets `[REF_RATE × lo, REF_RATE × hi]`.
const SEARCH: (f64, f64) = (0.5, 4.0);
/// The end-to-end metrics `BENCHMARK.json` bounds; the summary line carries
/// only these. Latency, tail and capacity are reported beside them, on stderr
/// and in the result file: on a small shared virtual machine their spread from
/// run to run is wider than any bound a regression check could use.
const BOUNDED: [&str; 3] = ["setup_s", "cpu_us_per_req", "rss_peak_mb"];
/// At most this many requests are replayed in a traced run.
const REPLAY_MAX: usize = 4000;

struct Args {
    workloads: Vec<Name>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    fn take<'a>(flags: &mut BTreeMap<&str, &'a str>, k: &str) -> Result<&'a str, String> {
        flags.remove(k).ok_or_else(|| format!("missing {k}"))
    }
    let workload = take(&mut flags, "--workload")?;
    let workloads = match workload {
        "all" => Name::ALL.to_vec(),
        w => vec![Name::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))?],
    };
    let seed = take(&mut flags, "--seed")?
        .parse()
        .map_err(|_| "--seed takes an integer")?;
    let seconds: f64 = take(&mut flags, "--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be between 1 and 600".to_owned());
    }
    let trace = match take(&mut flags, "--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let out = flags.remove("--out").map(PathBuf::from);
    if let Some(k) = flags.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
        out,
    })
}

pub fn main(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("objbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match run(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("objbench: {e}");
            1
        }
    }
}

/// Where the generator and the server run. With three or more CPUs they get
/// disjoint sets and the server keeps at least two; with fewer both run
/// unpinned.
pub struct Placement {
    pub generator: Option<Vec<usize>>,
    pub server: Option<String>,
}

impl Placement {
    fn decide() -> std::io::Result<Placement> {
        let cpus = sys::affinity()?;
        if cpus.len() < 3 {
            return Ok(Placement {
                generator: None,
                server: None,
            });
        }
        let split = cpus.len() - cpus.len().div_ceil(4);
        let generator = cpus[split..].to_vec();
        sys::set_affinity(&generator)?;
        Ok(Placement {
            generator: Some(generator),
            server: Some(sys::cpu_list(&cpus[..split])),
        })
    }

    fn describe(&self) -> String {
        match (&self.generator, &self.server) {
            (Some(g), Some(s)) => {
                format!("pinned: generator on {}, server on {s}", sys::cpu_list(g))
            }
            _ => "unpinned: fewer than 3 CPUs".to_owned(),
        }
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (requests, phases or spans).
    pub samples: u64,
    pub note: String,
}

fn metric(
    name: &str,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: samples as u64,
        note: note.into(),
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail percentile a sample supports: p99 from 1,000 samples on, else the
/// highest percentile with at least ten samples beyond it.
pub fn tail_q(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        ((1.0 - 10.0 / n.max(1) as f64) * 1000.0).floor().max(500.0) / 1000.0
    }
}

pub fn median_f(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ms(ns: u64) -> f64 {
    if ns == FAILED {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

/// Per-kind latency summary over some phases.
struct Latency {
    n: usize,
    p50_ns: u64,
    tail_q: f64,
    tail_ns: u64,
}

fn latency(phases: &[&Phase], kind: Kind) -> Option<Latency> {
    let mut all: Vec<u64> = phases
        .iter()
        .flat_map(|p| p.latency[kind.index()].iter().copied())
        .collect();
    if all.is_empty() {
        return None;
    }
    all.sort_unstable();
    let q = tail_q(all.len());
    Some(Latency {
        n: all.len(),
        p50_ns: quantile(&all, 0.5),
        tail_q: q,
        tail_ns: quantile(&all, q),
    })
}

/// Per-kind latency over `phases`, pooled, with sample counts.
fn kinds_json(phases: &[&Phase]) -> Vec<(&'static str, Json)> {
    Kind::ALL
        .into_iter()
        .filter_map(|kind| {
            let l = latency(phases, kind)?;
            let fields = Json::obj([
                ("n", Json::Num(l.n as f64)),
                ("p50_ms", Json::Num(ms(l.p50_ns))),
                ("tail", Json::str(format!("p{}", l.tail_q * 100.0))),
                ("tail_ms", Json::Num(ms(l.tail_ns))),
            ]);
            Some((kind.name(), fields))
        })
        .collect()
}

/// Every SLO kind's tail percentile within its limit (failed requests count
/// as missing it), with at most 1% of sends late.
fn window_ok(wl: &Workload, latency: &[Vec<u64>; 3], late_frac: f64) -> bool {
    late_frac <= gen::MAX_LATE_FRAC
        && wl.slo_ms.iter().all(|(kind, _)| {
            let mut v = latency[kind.index()].clone();
            v.sort_unstable();
            !v.is_empty() && quantile(&v, tail_q(v.len())) <= wl.slo_ns(*kind).expect("slo kind")
        })
}

/// A capacity step meets the SLO when no backlog grew and most of its slices
/// meet it on their own: a stall of the machine that spoils one slice does
/// not decide the step.
fn meets_slo(wl: &Workload, phase: &Phase) -> bool {
    let ok = phase
        .windows
        .iter()
        .filter(|w| window_ok(wl, &w.latency, w.late_frac()))
        .count();
    !phase.backlog_growing() && 2 * ok > phase.windows.len()
}

fn phase_seed(seed: u64, phase: u64) -> u64 {
    crate::workload::Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ phase).next_u64()
}

fn phase_json(wl: &Workload, p: &Phase, pass: Option<bool>) -> Json {
    let mut fields = vec![
        ("offered_rps", Json::Num(p.rate)),
        ("setup_s", Json::Num(p.setup_s)),
        ("restore_ms", Json::Num(p.restore_ns as f64 / 1e6)),
        ("rss_peak_mb", Json::Num(p.rss_peak_mb)),
        ("server_cpu_ms", Json::Num(p.server_cpu_ns as f64 / 1e6)),
        ("attempted", Json::Num(p.attempted as f64)),
        ("error_replies", Json::Num(p.error_replies as f64)),
        ("wrong", Json::Num(p.wrong as f64)),
        ("unanswered", Json::Num(p.unanswered as f64)),
        ("late_frac", Json::Num(p.late_frac())),
        ("lag_us", {
            let mut lag = p.lag_ns.clone();
            lag.sort_unstable();
            Json::obj([0.5, 0.99, 1.0].map(|q| {
                (
                    format!("p{}", q * 100.0),
                    Json::Num(quantile(&lag, q) as f64 / 1e3),
                )
            }))
        }),
        (
            "backlog_quarters",
            Json::Arr(p.backlog.iter().map(|&b| Json::Num(b as f64)).collect()),
        ),
        ("valid", Json::Bool(p.valid())),
        (
            "windows_ok",
            Json::Arr(
                p.windows
                    .iter()
                    .map(|w| Json::Bool(window_ok(wl, &w.latency, w.late_frac())))
                    .collect(),
            ),
        ),
    ];
    if let Some(pass) = pass {
        fields.push(("meets_slo", Json::Bool(pass)));
    }
    fields.extend(kinds_json(&[p]));
    if !p.errors.is_empty() {
        fields.push((
            "first_errors",
            Json::Arr(p.errors.iter().take(5).map(Json::str).collect()),
        ));
    }
    Json::obj(fields)
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    correct: bool,
    detail: Vec<(&'static str, Json)>,
}

fn untraced(wl: &Workload, args: &Args, placement: &Placement) -> std::io::Result<Outcome> {
    let cfg = |rate: f64, secs: f64, seed: u64, windows: usize| PhaseConfig {
        rate,
        secs,
        seed,
        registry: false,
        windows,
        server_cpus: placement.server.as_deref(),
    };
    let ref_secs = args.seconds * REF_SHARE / REF_PHASES as f64;
    let step_secs = args.seconds * (1.0 - REF_SHARE) / CAPACITY_STEPS as f64;
    let mut warmup = gen::run_phase(
        wl,
        &cfg(wl.ref_rate, WARMUP_S, phase_seed(args.seed, 999), 1),
    )?;
    let mut reference = Vec::new();
    for i in 0..REF_PHASES {
        let c = cfg(wl.ref_rate, ref_secs, phase_seed(args.seed, i as u64), 1);
        reference.push(gen::run_phase(wl, &c)?);
    }
    let (mut lo, mut hi) = (wl.ref_rate * SEARCH.0, wl.ref_rate * SEARCH.1);
    let (mut passed_any, mut failed_any) = (false, false);
    let mut steps = Vec::new();
    for i in 0..CAPACITY_STEPS {
        let rate = (lo * hi).sqrt();
        let c = cfg(
            rate,
            step_secs,
            phase_seed(args.seed, 100 + i as u64),
            STEP_WINDOWS,
        );
        let phase = gen::run_phase(wl, &c)?;
        let pass = meets_slo(wl, &phase);
        if pass {
            lo = rate;
            passed_any = true;
        } else {
            hi = rate;
            failed_any = true;
        }
        steps.push((phase, pass));
    }
    if wl.name == Name::WriteMix {
        let mut oracle = Oracle::new(wl);
        for p in std::iter::once(&mut warmup)
            .chain(&mut reference)
            .chain(steps.iter_mut().map(|(p, _)| p))
        {
            gen::verify(wl, &mut oracle, p);
        }
    }
    // The geometric middle of the last bracket; an open bracket reports its
    // closed end.
    let capacity = match (passed_any, failed_any) {
        (true, true) => (lo * hi).sqrt(),
        (true, false) => hi,
        _ => lo,
    };

    let refs: Vec<&Phase> = reference.iter().collect();
    let all: Vec<&Phase> = reference
        .iter()
        .chain(steps.iter().map(|(p, _)| p))
        .collect();
    // Latency at the reference rate: medians over the phases of each phase's
    // own percentiles, so a stall of the machine in one phase does not move
    // them.
    let per_phase: Vec<Latency> = refs
        .iter()
        .map(|p| latency(&[p], wl.primary).expect("reference phases time the primary kind"))
        .collect();
    let samples = per_phase.iter().map(|l| l.n).sum::<usize>();
    // A phase's p99 needs 1,000 samples; smaller phases report the highest
    // percentile with ten samples beyond it, named here.
    let tail_label = format!(
        "median over {} phases of each phase's {} p{} at {} req/s",
        refs.len(),
        wl.primary.name(),
        per_phase.iter().map(|l| l.tail_q).fold(1.0, f64::min) * 100.0,
        wl.ref_rate
    );
    let metrics = vec![
        metric(
            "setup_s",
            median_f(all.iter().map(|p| p.setup_s).collect()),
            "s",
            all.len(),
            "median over phases: spawn to first reply",
        ),
        metric(
            "p50_ms",
            median_f(per_phase.iter().map(|l| ms(l.p50_ns)).collect()),
            "ms",
            samples,
            format!(
                "median over {} phases of each phase's {} p50 at {} req/s",
                refs.len(),
                wl.primary.name(),
                wl.ref_rate
            ),
        ),
        metric(
            "p99_ms",
            median_f(per_phase.iter().map(|l| ms(l.tail_ns)).collect()),
            "ms",
            samples,
            tail_label,
        ),
        metric(
            "cpu_us_per_req",
            median_f(
                refs.iter()
                    .map(|p| {
                        p.server_cpu_ns as f64
                            / 1e3
                            / p.latency.iter().map(Vec::len).sum::<usize>().max(1) as f64
                    })
                    .collect(),
            ),
            "us",
            samples,
            "median over phases of server CPU time per timed request at the reference rate",
        ),
        metric(
            "capacity_rps",
            capacity,
            "req/s",
            steps.len(),
            format!(
                "bisection over [{}, {}] req/s, final bracket [{lo:.1}, {hi:.1}]",
                wl.ref_rate * SEARCH.0,
                wl.ref_rate * SEARCH.1
            ),
        ),
        metric(
            "rss_peak_mb",
            median_f(refs.iter().map(|p| p.rss_peak_mb).collect()),
            "MiB",
            refs.len(),
            "median server VmHWM over reference phases",
        ),
    ];
    let mut detail = vec![(
        "reference_phases",
        Json::Arr(reference.iter().map(|p| phase_json(wl, p, None)).collect()),
    )];
    detail.push((
        "capacity_steps",
        Json::Arr(
            steps
                .iter()
                .map(|(p, pass)| phase_json(wl, p, Some(*pass)))
                .collect(),
        ),
    ));
    detail.push(("reference_latency", Json::obj(kinds_json(&refs))));
    let step_phases: Vec<&Phase> = steps.iter().map(|(p, _)| p).collect();
    // Warm-up replies are checked like the rest.
    Ok(outcome(
        metrics,
        &[&warmup].into_iter().chain(refs).collect::<Vec<_>>(),
        &step_phases,
        detail,
    ))
}

/// `failed` counts error replies, wrong replies, and requests of reference
/// phases left unanswered. A capacity step above capacity may end with
/// requests still queued; they miss its SLO but are abandoned, not failed.
fn outcome(
    metrics: Vec<Metric>,
    reference: &[&Phase],
    steps: &[&Phase],
    mut detail: Vec<(&'static str, Json)>,
) -> Outcome {
    let all = || reference.iter().chain(steps);
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let wrong: u64 = all().map(|p| p.wrong).sum();
    let failed: u64 = all().map(|p| p.error_replies + p.wrong).sum::<u64>()
        + reference.iter().map(|p| p.unanswered).sum::<u64>();
    detail.push((
        "error_frac",
        Json::Num(failed as f64 / attempted.max(1) as f64),
    ));
    Outcome {
        metrics,
        attempted,
        failed,
        correct: wrong == 0 && failed == 0,
        detail,
    }
}

fn traced(wl: &Workload, args: &Args, placement: &Placement) -> std::io::Result<Outcome> {
    let half = args.seconds / 2.0;
    let seed = phase_seed(args.seed, 0);
    let warmup = PhaseConfig {
        rate: wl.ref_rate,
        secs: WARMUP_S,
        seed: phase_seed(args.seed, 999),
        registry: false,
        windows: 1,
        server_cpus: placement.server.as_deref(),
    };
    let mut warmup = gen::run_phase(wl, &warmup)?;
    let cfg = PhaseConfig {
        rate: wl.ref_rate,
        secs: half,
        seed,
        registry: true,
        windows: 1,
        server_cpus: placement.server.as_deref(),
    };
    let mut phase = gen::run_phase(wl, &cfg)?;
    let mut sched = wl.schedule(seed, wl.ref_rate, half);
    sched.truncate(REPLAY_MAX);
    let started = Instant::now();
    let rep = replay::run(wl, &sched, Duration::from_secs_f64(half));
    let replay_s = started.elapsed().as_secs_f64();
    if wl.name == Name::WriteMix {
        let mut oracle = Oracle::new(wl);
        gen::verify(wl, &mut oracle, &mut warmup);
        gen::verify(wl, &mut oracle, &mut phase);
    }

    let mut metrics = Vec::new();
    let us = |ns: f64| ns / 1e3;

    // M: the server's registry, diffed around the phase.
    let (m, s0, s1) = phase.metrics.as_ref().expect("registry requested");
    let hist = |name: &str| m.histogram(name).cloned().unwrap_or_default();
    let q = |name: &str, p: f64| hist(name).quantile(p) as f64;
    let client = latency(&[&phase], wl.primary).expect("phase times the primary kind");
    let server_p50 =
        q("server.queue_wait_ns", 0.5) + q("server.handle_ns", 0.5) + q("server.write_ns", 0.5);
    let handled = hist("server.handle_ns").count as usize;
    let engine_runs = [Kind::Eval, Kind::Advance]
        .iter()
        .map(|k| phase.latency[k.index()].len())
        .sum::<usize>();
    let per_run = |name: &str| hist(name).sum as f64 / engine_runs.max(1) as f64;
    for (name, value, unit, n) in [
        (
            "server.queue_wait_p50_us",
            us(q("server.queue_wait_ns", 0.5)),
            "us",
            handled,
        ),
        (
            "server.queue_wait_p99_us",
            us(q("server.queue_wait_ns", 0.99)),
            "us",
            handled,
        ),
        (
            "server.handle_p50_us",
            us(q("server.handle_ns", 0.5)),
            "us",
            handled,
        ),
        (
            "server.handle_p99_us",
            us(q("server.handle_ns", 0.99)),
            "us",
            handled,
        ),
        (
            "server.write_p99_us",
            us(q("server.write_ns", 0.99)),
            "us",
            handled,
        ),
        (
            "server.residual_p50_us",
            us(client.p50_ns as f64 - server_p50),
            "us",
            client.n,
        ),
        (
            "engine.match_ns",
            per_run("engine.match_ns"),
            "ns",
            engine_runs,
        ),
        (
            "engine.merge_ns",
            per_run("engine.merge_ns"),
            "ns",
            engine_runs,
        ),
        (
            "store.gc_sweeps",
            (s1.gc_sweeps - s0.gc_sweeps) as f64,
            "count",
            1,
        ),
        (
            "store.gc_freed_nodes",
            (s1.gc_freed_nodes - s0.gc_freed_nodes) as f64,
            "count",
            1,
        ),
        (
            "store.gc_pause_p99_us",
            us(q("store.gc_pause_ns", 0.99)),
            "us",
            hist("store.gc_pause_ns").count as usize,
        ),
        (
            "store.gc_cycle_p99_ms",
            q("store.gc_cycle_ns", 0.99) / 1e6,
            "ms",
            hist("store.gc_cycle_ns").count as usize,
        ),
        ("store.live_nodes_end", s1.live_nodes as f64, "count", 1),
        (
            "gen.late_frac",
            phase.late_frac(),
            "ratio",
            phase.sent as usize,
        ),
        (
            "gen.lag_p99_us",
            {
                let mut lag = phase.lag_ns.clone();
                lag.sort_unstable();
                us(quantile(&lag, 0.99) as f64)
            },
            "us",
            phase.lag_ns.len(),
        ),
    ] {
        metrics.push(metric(
            name,
            value,
            unit,
            n,
            "registry delta around the reference phase",
        ));
    }

    // R: span self times in the replay.
    let selfs = replay::self_times(&rep.spans);
    let mut by_stage: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut by_kind: BTreeMap<(&str, &str), (u64, usize)> = BTreeMap::new();
    let kind_of = |req: u32| {
        rep.requests
            .get(&req)
            .and_then(|r| r.kind)
            .map_or("pin", Kind::name)
    };
    let mut traced_total: BTreeMap<&str, (u64, usize)> = BTreeMap::new();
    for (s, &t) in rep.spans.iter().zip(&selfs) {
        by_stage.entry(s.name).or_default().push(t);
        let k = kind_of(s.request);
        let e = by_kind.entry((k, s.name)).or_default();
        e.0 += t;
        e.1 += 1;
        if HANDLE_STAGES.contains(&s.name) || s.name == "engine.advance_run" {
            traced_total.entry(k).or_default().0 += t;
        }
        if s.name == "request" {
            traced_total.entry(k).or_default().1 += 1;
        }
    }
    let stage_p50 = |name: &str| -> (f64, usize) {
        by_stage.get(name).map_or((0.0, 0), |v| {
            let mut v = v.clone();
            v.sort_unstable();
            (quantile(&v, 0.5) as f64, v.len())
        })
    };
    for (metric_name, stage) in [
        ("frame.decode_us", "frame.decode"),
        ("frame.encode_us", "frame.encode"),
        ("protocol.decode_us", "protocol.decode"),
        ("protocol.encode_us", "protocol.encode"),
        ("parser.formula_us", "parser.formula"),
        ("parser.program_us", "parser.program"),
        ("shared.pin_us", "shared.pin"),
        ("shared.writer_wait_us", "shared.advance"),
        ("interp.query_us", "interp.query"),
        ("engine.run_us", "engine.run"),
        ("engine.advance_run_us", "engine.advance_run"),
        ("wire.encode_us", "wire.encode"),
    ] {
        let (v, n) = stage_p50(stage);
        metrics.push(metric(
            metric_name,
            us(v),
            "us",
            n,
            format!("median self time of {stage} spans"),
        ));
    }
    let replies: Vec<&replay::Replayed> = rep.requests.values().collect();
    let mean = |v: Vec<u64>| -> (f64, usize) {
        let n = v.len();
        (v.iter().sum::<u64>() as f64 / n.max(1) as f64, n)
    };
    let (frame_bytes, n) = mean(
        replies
            .iter()
            .filter(|r| r.reply_frame_bytes > 0)
            .map(|r| r.reply_frame_bytes)
            .collect(),
    );
    metrics.push(metric(
        "frame.bytes_out",
        frame_bytes,
        "bytes",
        n,
        "mean reply frame size",
    ));
    let (reply_bytes, n) = mean(replies.iter().filter_map(|r| r.payload_bytes).collect());
    metrics.push(metric(
        "wire.reply_bytes",
        reply_bytes,
        "bytes",
        n,
        "mean result payload size",
    ));
    metrics.push(metric(
        "wire.restore_ms",
        phase.restore_ns as f64 / 1e6,
        "ms",
        1,
        "server-side co_wire restore and SharedEngine::new of the seed",
    ));
    metrics.push(metric(
        "wire.seed_bytes_per_node",
        wl.snapshot.len() as f64 / wl.snapshot_nodes.max(1) as f64,
        "B/node",
        1,
        "seed snapshot bytes per composite node",
    ));

    // Stage self times against the untraced handler, per kind.
    let mut coverage_json = Vec::new();
    let mut primary_cov = (0.0, 0.0);
    for kind in Kind::ALL {
        let (handle_mean, n_handle) = mean(
            replies
                .iter()
                .filter(|r| r.kind == Some(kind))
                .filter_map(|r| r.handle_ns)
                .collect(),
        );
        let (sum, n_traced) = traced_total.get(kind.name()).copied().unwrap_or_default();
        if n_handle == 0 || n_traced == 0 {
            continue;
        }
        let traced_mean = sum as f64 / n_traced as f64;
        let coverage = traced_mean / handle_mean;
        let overhead_us = us(traced_mean - handle_mean);
        if kind == wl.primary {
            primary_cov = (coverage, overhead_us);
        }
        let stages: Vec<(String, Json)> = by_kind
            .iter()
            .filter(|((k, _), _)| *k == kind.name())
            .map(|((_, stage), (total, count))| {
                let mean_us = us(*total as f64 / n_traced as f64);
                let stats = Json::obj([
                    ("mean_us", Json::Num(mean_us)),
                    ("spans", Json::Num(*count as f64)),
                ]);
                ((*stage).to_owned(), stats)
            })
            .collect();
        coverage_json.push((
            kind.name(),
            Json::obj([
                ("traced_requests", Json::Num(n_traced as f64)),
                ("handled_requests", Json::Num(n_handle as f64)),
                ("handle_mean_us", Json::Num(us(handle_mean))),
                ("stage_sum_mean_us", Json::Num(us(traced_mean))),
                ("stage_coverage", Json::Num(coverage)),
                ("tracing_overhead_us", Json::Num(overhead_us)),
                ("self_time_mean_us", Json::Obj(stages)),
            ]),
        ));
    }
    metrics.push(metric(
        "trace.stage_coverage",
        primary_cov.0,
        "ratio",
        rep.requests.len(),
        format!(
            "{} stage self times / untraced co_server::handle",
            wl.primary.name()
        ),
    ));
    metrics.push(metric(
        "trace.overhead_us",
        primary_cov.1,
        "us",
        rep.requests.len(),
        "mean traced stage sum minus untraced handle",
    ));

    // S: store and engine counters in the replay.
    let (b, a) = (&rep.store_before, &rep.store_after);
    let evals: Vec<&co_engine::EvalStats> =
        replies.iter().filter_map(|r| r.eval.as_ref()).collect();
    let n_evals = evals.len();
    let per_eval = |f: &dyn Fn(&co_engine::EvalStats) -> u64| -> f64 {
        evals.iter().map(|e| f(e)).sum::<u64>() as f64 / n_evals.max(1) as f64
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let hits = a.intern_hits - b.intern_hits;
    let misses = a.intern_misses - b.intern_misses;
    let memo = |m: &co_object::store::MemoStats, m0: &co_object::store::MemoStats| {
        ratio(
            m.hits - m0.hits,
            (m.hits - m0.hits) + (m.misses - m0.misses),
        )
    };
    let candidates: u64 = evals.iter().map(|e| e.matching.candidates_tried).sum();
    let matched: u64 = evals.iter().map(|e| e.matching.matches).sum();
    for (name, value, unit, n) in [
        (
            "engine.iterations",
            per_eval(&|e| e.iterations),
            "count",
            n_evals,
        ),
        (
            "engine.rule_applications",
            per_eval(&|e| e.rule_applications),
            "count",
            n_evals,
        ),
        (
            "engine.work_units",
            per_eval(&|e| e.work_units),
            "count",
            n_evals,
        ),
        (
            "engine.fanout_skipped_rounds",
            per_eval(&|e| e.fanout_skipped_rounds),
            "count",
            n_evals,
        ),
        (
            "engine.match_yield",
            ratio(matched, candidates),
            "ratio",
            n_evals,
        ),
        (
            "store.intern_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
            (hits + misses) as usize,
        ),
        (
            "store.intern_l1_ratio",
            ratio(a.intern_l1_hits - b.intern_l1_hits, hits),
            "ratio",
            hits as usize,
        ),
        (
            "store.intern_contended",
            (a.intern_contended - b.intern_contended) as f64,
            "count",
            1,
        ),
        (
            "store.le_memo_hit_ratio",
            memo(&a.le_memo, &b.le_memo),
            "ratio",
            1,
        ),
        (
            "store.union_memo_hit_ratio",
            memo(&a.union_memo, &b.union_memo),
            "ratio",
            1,
        ),
        (
            "store.memo_evicted",
            ((a.le_memo.evicted - b.le_memo.evicted)
                + (a.union_memo.evicted - b.union_memo.evicted)) as f64,
            "count",
            1,
        ),
        (
            "store.memo_entries_end",
            (a.le_memo.entries + a.union_memo.entries) as f64,
            "count",
            1,
        ),
    ] {
        metrics.push(metric(name, value, unit, n, "replay counters"));
    }

    let spans_path = result_dir(args)?.join(format!(
        "{}-seed{}-spans.jsonl",
        wl.name.as_str(),
        args.seed
    ));
    write_spans(&spans_path, &rep.spans)?;
    let detail = vec![
        ("reference_phase", phase_json(wl, &phase, None)),
        ("replayed_requests", Json::Num(rep.requests.len() as f64)),
        ("replay_s", Json::Num(replay_s)),
        ("stages_by_kind", Json::obj(coverage_json)),
        ("spans_file", Json::str(spans_path.display().to_string())),
    ];
    Ok(outcome(metrics, &[&warmup, &phase], &[], detail))
}

fn write_spans(path: &std::path::Path, spans: &[replay::Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Results go next to the build: `$CARGO_TARGET_DIR/objbench-results`, or
/// beside the binary's profile directory.
fn result_dir(args: &Args) -> std::io::Result<PathBuf> {
    let dir = match &args.out {
        Some(d) => d.clone(),
        None => {
            let exe = std::env::current_exe()?;
            let target = exe
                .parent()
                .and_then(|p| p.parent())
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."));
            target.join("objbench-results")
        }
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn fingerprint(wl: &Workload, args: &Args, placement: &Placement) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut co_env: BTreeMap<String, String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CO_"))
        .collect();
    co_env.extend(wl.server_env.iter().cloned());
    let generator_cpus = sys::affinity()
        .map(|c| sys::cpu_list(&c))
        .unwrap_or_default();
    Json::obj([
        ("workload", Json::str(wl.name.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("cpu_model", Json::str(cpu_model)),
        ("nproc", Json::Num(nproc as f64)),
        ("generator_cpus", Json::str(generator_cpus.clone())),
        (
            "server_cpus",
            Json::str(placement.server.clone().unwrap_or(generator_cpus)),
        ),
        ("placement", Json::str(placement.describe())),
        ("rustc", Json::str(env!("OBJBENCH_RUSTC"))),
        ("commit", Json::str(env!("OBJBENCH_COMMIT"))),
        (
            "server_co_env",
            Json::Obj(co_env.into_iter().map(|(k, v)| (k, Json::Str(v))).collect()),
        ),
    ])
}

fn run(args: &Args) -> std::io::Result<()> {
    let placement = Placement::decide()?;
    let mut summary: Vec<(String, Json)> = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let prefix = args.workloads.len() > 1;
    for &name in &args.workloads {
        let wl = Workload::new(name, args.seed);
        let out = if args.trace {
            traced(&wl, args, &placement)?
        } else {
            untraced(&wl, args, &placement)?
        };
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct;
        eprintln!(
            "== {} (seed {}, {}; reference {} req/s, SLO {})",
            name.as_str(),
            args.seed,
            placement.describe(),
            wl.ref_rate,
            wl.slo_ms
                .iter()
                .map(|(k, ms)| format!("{} p99 <= {ms} ms", k.name()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        for m in &out.metrics {
            eprintln!(
                "{:<30} {:>14.4} {:<6} n={:<7} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        eprintln!(
            "attempted {} failed {} error_frac {:.5} correct {}",
            out.attempted,
            out.failed,
            out.failed as f64 / out.attempted.max(1) as f64,
            out.correct
        );
        let metrics_json = Json::Obj(
            out.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("samples", Json::Num(m.samples as f64)),
                            ("note", Json::str(m.note.clone())),
                        ]),
                    )
                })
                .collect(),
        );
        let mut result = vec![
            ("fingerprint", fingerprint(&wl, args, &placement)),
            ("correct", Json::Bool(out.correct)),
            ("attempted", Json::Num(out.attempted as f64)),
            ("failed", Json::Num(out.failed as f64)),
            ("metrics", metrics_json),
        ];
        result.extend(out.detail);
        let path = result_dir(args)?.join(format!(
            "{}-seed{}-trace{}.json",
            name.as_str(),
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, Json::obj(result).render() + "\n")?;
        eprintln!("result written to {}", path.display());
        for m in out
            .metrics
            .into_iter()
            .filter(|m| args.trace || BOUNDED.contains(&m.name.as_str()))
        {
            let key = if prefix {
                format!("{}.{}", name.as_str(), m.name)
            } else {
                m.name
            };
            summary.push((
                key,
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
            ));
        }
    }
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(summary)),
    ]);
    println!("{}", line.render());
    Ok(())
}
