//! The three workloads: seed database, seeded request schedule, reference
//! rate, SLO, and the in-process oracle every reply is checked against.

use co_calculus::Program;
use co_engine::{Engine, SharedEngine};
use co_object::Object;
use co_parser::{parse_formula, parse_object, parse_program};
use co_server::{Request, Response};

/// The request kinds whose latency is measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Query,
    Eval,
    Advance,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Query, Kind::Eval, Kind::Advance];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Eval => "eval",
            Kind::Advance => "advance",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a reply must be.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// A `Snapshot` reply pinning the seed version.
    Pinned,
    /// `Objects` equal to the reference interpretation of formula `.0`.
    Query(usize),
    /// `Objects` equal to the reference closure of root `.0`.
    Eval(usize),
    /// `Advanced` with the version the `.0`-th commit of the phase makes.
    Advance(usize),
}

/// One scheduled request of a phase.
pub struct Scheduled {
    /// Intended send time, from the start of the phase.
    pub due_ns: u64,
    pub conn: usize,
    /// `None` for session control (pinning), which is checked but not timed.
    pub kind: Option<Kind>,
    pub check: Check,
    pub body: Vec<u8>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    ReadPoint,
    ClosureEval,
    WriteMix,
}

pub struct Workload {
    pub name: Name,
    /// Offered rate of timed requests at which latency is reported (req/s).
    pub ref_rate: f64,
    /// Per-kind p99 limits in milliseconds.
    pub slo_ms: Vec<(Kind, f64)>,
    /// The kind `p50_ms` and `p99_ms` report.
    pub primary: Kind,
    pub seed: Object,
    /// The seed as `co_wire` bytes: the only state the server receives.
    pub snapshot: Vec<u8>,
    pub snapshot_nodes: u64,
    /// `CO_*` settings the server runs with, on top of the inherited ones.
    pub server_env: Vec<(String, String)>,
    pub formulas: Vec<String>,
    /// Eval programs by root (closure_eval).
    pub programs: Vec<String>,
    /// Seeds the choice of each committed fact (write_mix).
    advance_seed: u64,
    /// Reference replies, built at set-up. Query references come per epoch:
    /// the seed, and (write_mix) every version after the first commit.
    query_refs: Vec<Vec<Reference>>,
    eval_refs: Vec<Reference>,
}

/// An expected result, also as the payload the server would send for it:
/// a reply with exactly these bytes decodes to exactly this object, so most
/// replies are checked without re-interning them.
struct Reference {
    object: Object,
    payload: Vec<u8>,
}

impl Reference {
    fn new(object: Object) -> Reference {
        let mut payload = Vec::new();
        co_wire::write_snapshot(
            &mut payload,
            std::slice::from_ref(&object),
            b"co-server result",
        )
        .expect("writing to a Vec cannot fail");
        Reference { object, payload }
    }
}

pub const DESCENDANTS_RULE: &str =
    "[doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].";
/// Client connections of every workload: two sessions, or one writer and
/// one reader.
pub const CONNS: usize = 2;
/// Roots `p0..=p20` of closure_eval.
const EVAL_ROOTS: usize = 21;
/// Classes of read_point's join database.
const CLASSES: usize = 64;
/// Chain length of write_mix's seed.
const CHAIN: usize = 60;
/// read_point sessions re-pin after this many queries.
const REPIN_EVERY: usize = 256;

impl Name {
    pub const ALL: [Name; 3] = [Name::ReadPoint, Name::ClosureEval, Name::WriteMix];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::ReadPoint => "read_point",
            Name::ClosureEval => "closure_eval",
            Name::WriteMix => "write_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// SplitMix64: a small, seedable generator, so inputs depend only on the
/// seed and on nothing outside this file.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An exponential gap of a Poisson process with `rate` events per second.
    pub fn gap_ns(&mut self, rate: f64) -> u64 {
        (-(1.0 - self.unit()).ln() / rate * 1e9) as u64
    }
}

fn descendants(root: usize) -> String {
    format!("[doa: {{p{root}}}].\n{DESCENDANTS_RULE}")
}

fn query(formula: &str) -> Vec<u8> {
    Request::Query {
        formula: formula.to_owned(),
    }
    .encode()
}

impl Workload {
    /// Builds the seed and the reference replies. `seed` draws the requests
    /// and the facts write_mix commits; the seed database is fixed.
    pub fn new(name: Name, seed: u64) -> Workload {
        let (db, ref_rate, slo_ms, primary) = match name {
            Name::ReadPoint => (
                co_bench::join_db(2048, CLASSES as i64),
                1500.0,
                vec![(Kind::Query, 5.0)],
                Kind::Query,
            ),
            Name::ClosureEval => (
                co_bench::tree_family(1000, 4),
                250.0,
                vec![(Kind::Eval, 50.0)],
                Kind::Eval,
            ),
            Name::WriteMix => (
                co_object::lattice::union(
                    &co_bench::chain_family(CHAIN),
                    &parse_object("[doa: {p0}]").expect("static object parses"),
                ),
                1000.0,
                vec![(Kind::Query, 10.0), (Kind::Advance, 25.0)],
                Kind::Query,
            ),
        };
        let mut snapshot = Vec::new();
        let written =
            co_wire::write_snapshot(&mut snapshot, std::slice::from_ref(&db), b"objbench seed")
                .expect("writing to a Vec cannot fail");
        let formulas: Vec<String> = match name {
            Name::ReadPoint => (0..CLASSES)
                .map(|k| format!("[r1: {{[a: X, b: {k}]}}]"))
                .collect(),
            Name::ClosureEval => Vec::new(),
            Name::WriteMix => std::iter::once("[doa: {X}]".to_owned())
                .chain((0..CHAIN).map(|k| format!("[family: {{[name: p{k}, children: X]}}]")))
                .collect(),
        };
        let programs: Vec<String> = match name {
            Name::ClosureEval => (0..EVAL_ROOTS).map(descendants).collect(),
            _ => Vec::new(),
        };
        let server_env = match name {
            // Collect in the background once the store holds twice the
            // seed's nodes, so a run sees several finished GC cycles.
            Name::WriteMix => vec![
                ("CO_GC_COLLECTOR".to_owned(), "1".to_owned()),
                (
                    "CO_GC_HIGH_WATER".to_owned(),
                    (2 * written.nodes).to_string(),
                ),
            ],
            _ => Vec::new(),
        };
        let eval_refs = programs
            .iter()
            .map(|p| {
                let program = parse_program(p).expect("generated program parses");
                Reference::new(
                    Engine::new(program)
                        .run(&db)
                        .expect("reference closure converges")
                        .database,
                )
            })
            .collect();
        let mut wl = Workload {
            name,
            ref_rate,
            slo_ms,
            primary,
            seed: db.clone(),
            snapshot,
            snapshot_nodes: written.nodes,
            server_env,
            formulas,
            programs,
            advance_seed: Rng::new(seed ^ 0xAD7A_17CE).next_u64(),
            query_refs: Vec::new(),
            eval_refs,
        };
        let mut epochs = vec![db.clone()];
        if name == Name::WriteMix {
            // Every commit after the first adds a parent w<i> that is no
            // descendant of p0 and that no read names, so from version 2 on
            // each read's answer is its answer after the first commit.
            let shared = SharedEngine::new(Engine::new(Program::new()), db);
            let first = parse_program(&wl.advance_program(0)).expect("generated program parses");
            epochs.push(
                shared
                    .advance(&first)
                    .expect("the first commit converges")
                    .database,
            );
        }
        wl.query_refs = epochs
            .iter()
            .map(|db| {
                wl.formulas
                    .iter()
                    .map(|f| {
                        let formula = parse_formula(f).expect("generated formula parses");
                        let policy = co_calculus::MatchPolicy::default();
                        Reference::new(co_calculus::interpret(&formula, db, policy))
                    })
                    .collect()
            })
            .collect();
        wl
    }

    /// A request sent more than this after its intended time counts as late:
    /// half the tightest SLO, a lag that alone could push a request over it.
    /// The few-millisecond stalls a small virtual machine shows even when
    /// idle stay below it.
    pub fn late_ns(&self) -> u64 {
        self.slo_ms
            .iter()
            .map(|(k, _)| self.slo_ns(*k).expect("slo kind"))
            .min()
            .expect("an SLO")
            / 2
    }

    pub fn slo_ns(&self, kind: Kind) -> Option<u64> {
        self.slo_ms
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, ms)| (ms * 1e6) as u64)
    }

    /// The program of the `i`-th commit of a write_mix phase: one fresh
    /// family fact, a new parent `w<i>` above a seed-drawn chain member, and
    /// the descendants rule. `w<i>` is not a descendant of `p0`, so `doa`
    /// keeps its size and every commit costs about the same.
    pub fn advance_program(&self, i: usize) -> String {
        let child = Rng::new(self.advance_seed ^ i as u64).below(CHAIN);
        format!("[family: {{[name: w{i}, children: {{[name: p{child}]}}]}}].\n{DESCENDANTS_RULE}")
    }

    /// The requests of one phase: Poisson arrivals at `rate` timed requests
    /// per second for `secs` seconds, drawn from `seed`.
    pub fn schedule(&self, seed: u64, rate: f64, secs: f64) -> Vec<Scheduled> {
        let end_ns = (secs * 1e9) as u64;
        let mut rng = Rng::new(seed);
        let mut out = Vec::new();
        // Each connection is its own Poisson stream with a share of the rate.
        let shares: Vec<f64> = match self.name {
            Name::WriteMix => vec![0.2, 0.8],
            _ => vec![0.5; CONNS],
        };
        for (conn, share) in shares.iter().enumerate() {
            let mut t = 0u64;
            let mut n = 0usize;
            loop {
                t += rng.gap_ns(rate * share);
                if t >= end_ns {
                    break;
                }
                let pin = match self.name {
                    Name::ReadPoint => n.is_multiple_of(REPIN_EVERY),
                    Name::ClosureEval => n == 0,
                    Name::WriteMix => false,
                };
                if pin {
                    out.push(Scheduled {
                        due_ns: t,
                        conn,
                        kind: None,
                        check: Check::Pinned,
                        body: Request::Snapshot.encode(),
                    });
                }
                let (kind, check, body) = match (self.name, conn) {
                    (Name::ReadPoint, _) => {
                        let k = rng.below(CLASSES);
                        (Kind::Query, Check::Query(k), query(&self.formulas[k]))
                    }
                    (Name::ClosureEval, _) => {
                        let r = rng.below(EVAL_ROOTS);
                        let body = Request::Eval {
                            program: self.programs[r].clone(),
                        }
                        .encode();
                        (Kind::Eval, Check::Eval(r), body)
                    }
                    (Name::WriteMix, 0) => {
                        let body = Request::Advance {
                            program: self.advance_program(n),
                        }
                        .encode();
                        (Kind::Advance, Check::Advance(n), body)
                    }
                    (Name::WriteMix, _) => {
                        // Half the reads list `doa`, half look up one family member.
                        let f = if rng.below(2) == 0 {
                            0
                        } else {
                            1 + rng.below(CHAIN)
                        };
                        (Kind::Query, Check::Query(f), query(&self.formulas[f]))
                    }
                };
                out.push(Scheduled {
                    due_ns: t,
                    conn,
                    kind: Some(kind),
                    check,
                    body,
                });
                n += 1;
            }
        }
        // A stable sort keeps each pin ahead of the request it precedes.
        out.sort_by_key(|s| s.due_ns);
        out
    }
}

/// Checks replies as they arrive.
pub struct Checker<'a> {
    wl: &'a Workload,
    last_advance: u64,
}

/// The seed's version in a fresh `SharedEngine`.
pub const SEED_VERSION: u64 = 1;

fn objects(resp: Response) -> Result<(u64, Object), Fail> {
    match resp {
        Response::Objects { version, payload } => {
            let snap = co_wire::read_snapshot(payload.as_slice()).map_err(|e| e.to_string())?;
            match <[Object; 1]>::try_from(snap.roots) {
                Ok([root]) => Ok((version, root)),
                Err(roots) => Err(Fail::Wrong(format!("{} roots in a result", roots.len()))),
            }
        }
        other => Err(unexpected(&other)),
    }
}

/// Why a reply failed its check.
pub enum Fail {
    /// A typed error reply (refused, overloaded, engine error).
    Error(String),
    /// A reply that is malformed or differs from the reference.
    Wrong(String),
}

impl From<String> for Fail {
    fn from(s: String) -> Fail {
        Fail::Wrong(s)
    }
}

fn unexpected(resp: &Response) -> Fail {
    match resp {
        Response::Error { code, message } => Fail::Error(format!("error {code:?}: {message}")),
        other => Fail::Wrong(format!(
            "unexpected reply {:?}",
            std::mem::discriminant(other)
        )),
    }
}

impl<'a> Checker<'a> {
    pub fn new(wl: &'a Workload) -> Checker<'a> {
        Checker {
            wl,
            last_advance: SEED_VERSION,
        }
    }

    pub fn check(&mut self, check: Check, body: &[u8]) -> Result<(), Fail> {
        let resp = Response::decode(body).map_err(|e| e.to_string())?;
        match check {
            Check::Pinned => match resp {
                Response::Snapshot {
                    version: SEED_VERSION,
                    ..
                } => Ok(()),
                other => Err(unexpected(&other)),
            },
            Check::Query(f) => {
                // write_mix reads the head at whatever version it has reached;
                // the other workloads read their pinned seed.
                let at_head = self.wl.name == Name::WriteMix;
                let epoch = match &resp {
                    Response::Objects { version, .. } if at_head && *version > SEED_VERSION => 1,
                    _ => 0,
                };
                matches(resp, at_head, &self.wl.query_refs[epoch][f])
            }
            Check::Eval(r) => matches(resp, false, &self.wl.eval_refs[r]),
            Check::Advance(i) => match resp {
                Response::Advanced { version, .. } => {
                    // One writer: every commit makes exactly the next version.
                    if version <= self.last_advance || version != SEED_VERSION + 1 + i as u64 {
                        return Err(Fail::Wrong(format!("commit {i} made version {version}")));
                    }
                    self.last_advance = version;
                    Ok(())
                }
                other => Err(unexpected(&other)),
            },
        }
    }
}

/// `Objects` equal to `want`, read at the seed version unless `any_version`.
fn matches(resp: Response, any_version: bool, want: &Reference) -> Result<(), Fail> {
    if let Response::Objects { version, payload } = &resp {
        if (any_version || *version == SEED_VERSION) && *payload == want.payload {
            return Ok(());
        }
    }
    let (version, result) = objects(resp)?;
    if !any_version && version != SEED_VERSION {
        return Err(Fail::Wrong(format!(
            "read version {version}, expected {SEED_VERSION}"
        )));
    }
    if result != want.object {
        return Err(Fail::Wrong(
            "result differs from the in-process reference".to_owned(),
        ));
    }
    Ok(())
}

/// write_mix's reference history: the commits of a phase replayed one after
/// another in-process, from the same seed. The history is the same for every
/// phase of a run, so it is built once and extended as needed.
pub struct Oracle {
    shared: SharedEngine,
    /// `dbs[v - 1]` is the database at version `v`.
    dbs: Vec<Object>,
}

impl Oracle {
    pub fn new(wl: &Workload) -> Oracle {
        Oracle {
            shared: SharedEngine::new(Engine::new(Program::new()), wl.seed.clone()),
            dbs: vec![wl.seed.clone()],
        }
    }

    fn db_at(&mut self, wl: &Workload, version: u64) -> Result<&Object, String> {
        // A version far past the phase's commits would make the replay run away.
        if !(SEED_VERSION..=SEED_VERSION + 1_000_000).contains(&version) {
            return Err(format!("version {version} out of range"));
        }
        while (self.dbs.len() as u64) < version {
            let i = self.dbs.len() - 1;
            let program = parse_program(&wl.advance_program(i)).expect("generated program parses");
            let out = self.shared.advance(&program).map_err(|e| e.to_string())?;
            self.dbs.push(out.database);
        }
        Ok(&self.dbs[(version - SEED_VERSION) as usize])
    }

    /// Checks a final head's `[doa: {X}]` read, taken at `version`, against
    /// the replay.
    pub fn check_final_doa(
        &mut self,
        wl: &Workload,
        version: u64,
        result: &Object,
    ) -> Result<(), String> {
        let db = self.db_at(wl, version)?.clone();
        let formula = parse_formula(&wl.formulas[0]).expect("generated formula parses");
        let want = co_calculus::interpret(&formula, &db, co_calculus::MatchPolicy::default());
        if want != *result {
            return Err(format!(
                "final head's doa at version {version} differs from the replay"
            ));
        }
        Ok(())
    }
}
