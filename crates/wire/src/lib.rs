//! # co-wire — hash-cons-aware binary snapshots
//!
//! The object store ([`co_object::store`]) hash-conses every composite:
//! a deeply shared structure is a DAG of distinct interned nodes, however
//! large its tree expansion. This crate turns that in-memory sharing into
//! an **on-disk asset**: a snapshot serializes a set of root objects as a
//! topologically-ordered *node table* in which each distinct node is
//! encoded exactly once and referenced by a dense local id — so the file
//! size tracks the store's node count, not the exponential tree size.
//!
//! # Format (version 4)
//!
//! There is one format. Every snapshot is a **layer** on a *base* — the
//! layers written before it — and names that base in its header. A full
//! snapshot is a layer on the empty base, whose link is all zero.
//!
//! ```text
//! header   60 bytes  magic "COWIRE\r\n" · version u32
//!                    · node count u64 · root count u64
//!                    · payload length u64
//!                    · base link: base checksum u64 · base node count u64
//!                      (both zero for the empty base)
//!                    · FNV-1a-64 checksum u64 over the header bytes
//!                      between the magic and the checksum, then the
//!                      payload
//! payload            symbol table   varint count, then per symbol a
//!                                   length-prefixed UTF-8 string
//!                                   (attribute names + string atoms,
//!                                   each distinct spelling once)
//!                    node table     `node count` records, children
//!                                   strictly before parents
//!                    root table     `root count` values
//!                    metadata       varint length + opaque bytes for the
//!                                   embedding application (co-engine
//!                                   stores its program and config here)
//! ```
//!
//! All integers in the header are little-endian. A node record is one of:
//!
//! ```text
//! tuple record       tag 0x10 · entry count varint
//!                    · per entry an attribute symbol index and a value
//! set record         tag 0x11 · element count varint · per element a value
//! flat-set record    tag 0x12 · arity varint
//!                    · per column an attribute symbol index
//!                    · row count varint
//!                    · the cells, column-major: per column `row count`
//!                      atom values (inline tags only — never ⊥/⊤ and
//!                      never a node reference)
//! ```
//!
//! A *value* is one tagged unit: ⊥, ⊤, an inline atom (bool/int/float,
//! strings by symbol index), or a backward reference into the node table.
//! Forward or out-of-range references are a typed error — the topological
//! order is what lets the reader work in one streaming pass.
//!
//! # Layers and chains
//!
//! Local ids live in a **combined id space**: ids `0..base nodes` name
//! the base's nodes (the concatenation of its layers' tables), and ids
//! from `base nodes` upward name this layer's nodes in table order. On
//! the empty base that is just the layer's own table.
//!
//! [`write_delta_snapshot`] encodes a layer on a [`SnapshotHandle`]:
//! only the nodes the base lacks, referencing everything else by id. On
//! [`SnapshotHandle::empty`] that is a full snapshot, which is what
//! [`write_snapshot`] writes. The base is named by its newest layer's
//! checksum plus its cumulative node count.
//!
//! A chain `full → delta → delta → …` is restored with [`read_chain`] /
//! [`load_chain`], which streams each layer through the same bottom-up
//! re-interning pass and checks each layer's base link against the chain
//! read so far, starting from the empty base. A link that does not match
//! is [`WireError::BaseRequired`] when nothing has been read yet (a delta
//! on its own) and [`WireError::BaseMismatch`] otherwise (a wrong base, or
//! a full snapshot in the middle of a chain). Chains deeper than
//! [`MAX_CHAIN_DEPTH`] are [`WireError::ChainTooDeep`] — compact them
//! first with [`compact_chain`]. [`describe`] inspects any snapshot file
//! without restoring it.
//!
//! # Columnar records
//!
//! A flat relation — a set whose elements are all same-schema tuples of
//! atoms — shares almost nothing: every row tuple is distinct, so the
//! node table pays a full record (tag, arity, and one attribute symbol
//! index per column) for every row. [`write_snapshot_columnar`] encodes
//! such sets as one flat-set record instead. The schema is spelled once,
//! and row tuples whose only references are from columnar sets are
//! **pruned** from the node table entirely (a row tuple that is also a
//! root or a child of an ordinary node keeps its record — the columns
//! carry an inline copy). The reader rebuilds every row bottom-up through
//! the same canonicalizing constructors as any other node, so a columnar
//! snapshot restores to bit-identical objects and `NodeId`s. Eligibility
//! and the row threshold are [`co_object::columnar`]'s
//! ([`columnar_min_rows`](co_object::columnar::columnar_min_rows)); when
//! no set qualifies, the bytes are the
//! ones [`write_snapshot`] writes.
//!
//! The columnar encoding is an explicit writer choice, never picked
//! automatically: the rows it prunes are not in its [`SnapshotHandle`],
//! so a delta on a columnar base re-encodes every such row it reaches.
//! The reader accepts flat-set records in every layer.
//!
//! **Compatibility policy:** this build reads and writes version 4 only.
//! Any other version — the earlier builds' 1, 2 and 3 included — is a
//! hard [`WireError::UnsupportedVersion`] error, never a best-effort
//! parse.
//!
//! # Re-interning
//!
//! The reader rebuilds each node **bottom-up through the ordinary
//! canonicalizing constructors** and the hash-consing store. Two
//! consequences:
//!
//! - a loaded snapshot is structurally bit-identical to what was saved
//!   (canonical form is unique, whatever attribute-interning order the
//!   reading process happens to have), and
//! - loading **re-deduplicates against whatever is already live**: nodes
//!   the process already interned are recognized, not duplicated, so
//!   restoring a snapshot into a warm server costs only the nodes it did
//!   not already have.
//!
//! Corrupt, truncated, or wrong-version input never panics — every
//! failure is a [`WireError`] with a precise rendering.
//!
//! ```
//! use co_object::obj;
//!
//! let shared = obj!({[k: 1, v: {a, b}], [k: 2, v: {a, b}]});
//! let mut bytes = Vec::new();
//! co_wire::write_snapshot(&mut bytes, &[shared.clone()], b"").unwrap();
//! let snap = co_wire::read_snapshot(bytes.as_slice()).unwrap();
//! assert_eq!(snap.roots, vec![shared.clone()]);
//! // Same process, same content: re-interning finds the same node.
//! assert_eq!(snap.roots[0].node_id(), shared.node_id());
//! ```
//!
//! Delta round-trip, in memory:
//!
//! ```
//! use co_object::obj;
//! use co_wire::SnapshotHandle;
//!
//! let v1 = obj!([db: {1, 2}]);
//! let mut base = Vec::new();
//! let (_, handle) =
//!     co_wire::write_delta_snapshot(&mut base, &[v1], b"", &SnapshotHandle::empty()).unwrap();
//!
//! let v2 = obj!([db: {1, 2, 3}]);
//! let mut delta = Vec::new();
//! let (stats, _) =
//!     co_wire::write_delta_snapshot(&mut delta, &[v2.clone()], b"", &handle).unwrap();
//! assert!(stats.is_delta());
//! assert!(stats.nodes < 3); // only what the base lacks
//!
//! let (snap, _) = co_wire::read_chain([base.as_slice(), delta.as_slice()]).unwrap();
//! assert_eq!(snap.roots, vec![v2]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
mod error;

pub use error::WireError;

use co_object::walk::{visit_unique_postorder, visit_unique_postorder_pruned};
use co_object::{Atom, Attr, NodeId, Object};
use codec::{checksum, checksum_extend, put_str, put_varint, put_varint_i64, Cursor};
use rustc_hash::{FxHashMap, FxHashSet};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// The eight magic bytes opening every snapshot. The `\r\n` tail detects
/// line-ending translation by transfer tools that treated the file as
/// text.
pub const MAGIC: [u8; 8] = *b"COWIRE\r\n";

/// The one format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 4;

/// The maximum number of layers (one full + deltas) a snapshot chain may
/// have. Deeper chains are rejected with [`WireError::ChainTooDeep`];
/// compact them with [`compact_chain`]. Restore cost and failure surface
/// grow with every link, so the cap keeps both bounded.
pub const MAX_CHAIN_DEPTH: usize = 16;

/// Fixed size of the snapshot header in bytes.
pub const HEADER_LEN: usize = 60;

// Node-record tags (node table).
const NODE_TUPLE: u8 = 0x10;
const NODE_SET: u8 = 0x11;
const NODE_FLAT_SET: u8 = 0x12;

// Value tags (inside node records and the root table).
const VAL_BOTTOM: u8 = 0x00;
const VAL_TOP: u8 = 0x01;
const VAL_FALSE: u8 = 0x02;
const VAL_TRUE: u8 = 0x03;
const VAL_INT: u8 = 0x04;
const VAL_FLOAT: u8 = 0x05;
const VAL_STR: u8 = 0x06;
const VAL_NODE: u8 = 0x07;

/// A decoded snapshot: the root objects (re-interned, canonical) and the
/// embedding application's opaque metadata blob.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The root objects, in the order they were passed to the writer.
    pub roots: Vec<Object>,
    /// The opaque metadata blob the writer attached (empty if none).
    pub meta: Vec<u8>,
}

/// The identity of a snapshot as a **base**: enough to verify that a
/// layer is being applied to the content it was written against. Every
/// header carries one, as its base link.
///
/// The checksum is the base's newest layer checksum; the node count is
/// cumulative over the base's own chain. Together they pin the base's
/// content *and* its local-id space: two bases with equal checksums and
/// node counts decode to identical node tables, so every base-local id a
/// layer uses means the same node. [`BaseId::EMPTY`] names the empty
/// base that full snapshots are written on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BaseId {
    /// Checksum of the base's newest layer (zero for the empty base).
    pub checksum: u64,
    /// Cumulative node count of the base chain.
    pub nodes: u64,
}

impl BaseId {
    /// The empty base: the link of every full snapshot.
    pub const EMPTY: BaseId = BaseId {
        checksum: 0,
        nodes: 0,
    };
}

/// A live handle onto a written (or restored) snapshot: what
/// [`write_delta_snapshot`] needs to encode a new layer on it.
///
/// The handle maps the **live `NodeId`** of every node in the snapshot to
/// its combined-space local id. It holds no strong references: freed ids
/// are never recycled by the store, so a stale entry can never be looked
/// up again (a re-derivation of freed content gets a fresh id, misses the
/// map, and is simply re-encoded in the next delta — larger, never
/// wrong). Handles come from [`SnapshotHandle::empty`],
/// [`write_delta_snapshot`], [`read_chain`], and their variants.
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    /// Checksum of the newest layer.
    checksum: u64,
    /// Cumulative node count across all layers.
    count: u64,
    /// Live `NodeId` → combined-space local id.
    locals: FxHashMap<NodeId, u64>,
}

impl SnapshotHandle {
    /// The empty base: a layer written on it is a full snapshot.
    pub fn empty() -> SnapshotHandle {
        SnapshotHandle {
            checksum: 0,
            count: 0,
            locals: FxHashMap::default(),
        }
    }

    /// The identity a layer written on this handle will declare.
    pub fn base_id(&self) -> BaseId {
        BaseId {
            checksum: self.checksum,
            nodes: self.count,
        }
    }

    /// Checksum of the newest layer of this snapshot.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }

    /// Cumulative node count across all layers of this snapshot.
    pub fn nodes(&self) -> u64 {
        self.count
    }

    /// Whether the live node `id` is resident in this snapshot.
    pub fn contains(&self, id: NodeId) -> bool {
        self.locals.contains_key(&id)
    }
}

/// What one snapshot write produced — the inputs for capacity planning
/// and for the sharing-ratio accounting the benches record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// The base link written: [`BaseId::EMPTY`] for a full snapshot.
    pub base: BaseId,
    /// Distinct composite nodes encoded (each exactly once). For a delta,
    /// only the nodes the base lacked.
    pub nodes: u64,
    /// Root values encoded.
    pub roots: u64,
    /// Distinct symbols (attribute names + string atoms) encoded.
    pub symbols: u64,
    /// Bytes of payload (everything after the header).
    pub payload_bytes: u64,
    /// Total bytes written, header included.
    pub total_bytes: u64,
    /// Distinct base-resident nodes this delta references by base-local
    /// id instead of re-encoding (0 for full snapshots). Together with
    /// `nodes`, this reconciles against a full write of the same roots:
    /// `full.nodes == delta.nodes + reachable base nodes`, of which
    /// `base_nodes_reused` are the ones referenced directly.
    pub base_nodes_reused: u64,
    /// Flat relations encoded as columnar records (0 unless the write
    /// came from [`write_snapshot_columnar`] and at least one set
    /// qualified). Counted in `nodes`; the row tuples the columns
    /// absorbed are not.
    pub columnar_sets: u64,
}

impl WriteStats {
    /// Average on-disk payload bytes per distinct node; `None` for a
    /// snapshot of zero composite nodes.
    pub fn bytes_per_node(&self) -> Option<f64> {
        (self.nodes > 0).then(|| self.payload_bytes as f64 / self.nodes as f64)
    }

    /// Whether this write was a delta: a layer on a non-empty base.
    pub fn is_delta(&self) -> bool {
        self.base != BaseId::EMPTY
    }
}

impl std::fmt::Display for WriteStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_delta() {
            write!(
                f,
                "delta snapshot: {} new nodes (+{} referenced from base)",
                self.nodes, self.base_nodes_reused
            )?;
        } else {
            write!(f, "snapshot: {} nodes", self.nodes)?;
        }
        write!(
            f,
            ", {} roots, {} symbols, {} payload bytes ({} total)",
            self.roots, self.symbols, self.payload_bytes, self.total_bytes
        )?;
        if self.columnar_sets > 0 {
            write!(f, ", {} columnar relations", self.columnar_sets)?;
        }
        Ok(())
    }
}

/// The layer checksum: FNV-1a-64 over the header bytes between the magic
/// and the checksum field (`fields`), then the payload.
fn layer_checksum(fields: &[u8], payload: &[u8]) -> u64 {
    checksum_extend(checksum(fields), payload)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Write-side state threaded through value encoding: the symbol table
/// under construction and the combined-space local ids.
struct Encoder {
    /// Symbol payloads in index order. Names are `Arc<str>` both in the
    /// attribute interner and in string atoms, so a new symbol costs two
    /// reference bumps, not two string copies.
    symbols: Vec<Arc<str>>,
    by_name: FxHashMap<Arc<str>, u64>,
    /// Attribute → symbol index, filled on an attribute's first use: the
    /// name is read from the global interner (a lock and an `Arc` bump)
    /// and hashed once per write, not once per tuple entry.
    by_attr: FxHashMap<Attr, u64>,
    /// Base nodes, then this layer's new nodes → combined-space local id.
    locals: FxHashMap<NodeId, u64>,
    /// Cumulative node count of the base: local ids below it are reuses.
    base_count: u64,
    /// Distinct base-resident nodes referenced (delta accounting).
    reused: FxHashSet<NodeId>,
}

impl Encoder {
    /// Interns a symbol (attribute name or string-atom payload) into the
    /// write-side symbol table, returning its dense index.
    fn symbol(&mut self, name: &Arc<str>) -> u64 {
        if let Some(&ix) = self.by_name.get(name) {
            return ix;
        }
        let ix = self.symbols.len() as u64;
        self.symbols.push(Arc::clone(name));
        self.by_name.insert(Arc::clone(name), ix);
        ix
    }

    /// The symbol index of an attribute name (see `by_attr`).
    fn attr(&mut self, attr: Attr) -> u64 {
        if let Some(&ix) = self.by_attr.get(&attr) {
            return ix;
        }
        let ix = self.symbol(&attr.name());
        self.by_attr.insert(attr, ix);
        ix
    }

    /// Encodes one atom (inline, never a node reference) into `out` —
    /// the cell encoding of columnar records, shared with [`Self::value`].
    fn atom(&mut self, out: &mut Vec<u8>, a: &Atom) {
        match a {
            Atom::Bool(false) => out.push(VAL_FALSE),
            Atom::Bool(true) => out.push(VAL_TRUE),
            Atom::Int(v) => {
                out.push(VAL_INT);
                put_varint_i64(out, *v);
            }
            Atom::Float(v) => {
                out.push(VAL_FLOAT);
                out.extend_from_slice(&v.get().to_bits().to_le_bytes());
            }
            Atom::Str(s) => {
                out.push(VAL_STR);
                let ix = self.symbol(s);
                put_varint(out, ix);
            }
        }
    }

    /// Encodes one value (an immediate child or a root) into `out`.
    fn value(&mut self, out: &mut Vec<u8>, o: &Object) {
        match o {
            Object::Bottom => out.push(VAL_BOTTOM),
            Object::Top => out.push(VAL_TOP),
            Object::Atom(a) => self.atom(out, a),
            Object::Tuple(_) | Object::Set(_) => {
                let id = o.node_id().expect("composites have node ids");
                // The walk enumerates every composite the base lacks.
                let local = self.locals[&id];
                if local < self.base_count {
                    self.reused.insert(id);
                }
                out.push(VAL_NODE);
                put_varint(out, local);
            }
        }
    }
}

/// The crate's registry instruments, resolved once: every snapshot
/// encode/decode lands in `wire.encode_ns` / `wire.decode_ns` (one
/// observation per layer), so serving-side stalls can be attributed to
/// serialization from a [`co_obs::Snapshot`] alone.
struct WireInstruments {
    encode_ns: Arc<co_obs::Histogram>,
    decode_ns: Arc<co_obs::Histogram>,
}

fn wire_instruments() -> &'static WireInstruments {
    static CELL: std::sync::OnceLock<WireInstruments> = std::sync::OnceLock::new();
    CELL.get_or_init(|| WireInstruments {
        encode_ns: co_obs::histogram("wire.encode_ns"),
        decode_ns: co_obs::histogram("wire.decode_ns"),
    })
}

/// The shared writer: encodes `roots` (plus `meta`) as one layer on
/// `base` and returns the stats plus a handle onto the written snapshot
/// (base included).
fn write_snapshot_impl<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
    columnar: bool,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    let start = std::time::Instant::now();
    let out = write_snapshot_inner(w, roots, meta, base, columnar);
    wire_instruments()
        .encode_ns
        .record_duration(start.elapsed());
    out
}

fn write_snapshot_inner<W: Write>(
    mut w: W,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
    columnar: bool,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    // Pass 1: the distinct-node table, children before parents, pruned
    // at base-resident nodes (every node in a snapshot has all its
    // descendants there too, so pruning loses nothing).
    let mut nodes: Vec<&Object> = Vec::new();
    visit_unique_postorder_pruned(roots.iter(), |id| base.contains(id), |o| nodes.push(o));

    // Columnar pass: pick the flat relations that get a `NODE_FLAT_SET`
    // record, then prune the row tuples whose only references are from
    // those relations — their cells carry them. A row tuple that is also
    // a root, or a child of any ordinary node, keeps its own record
    // (`Encoder::value` must be able to name it).
    let mut columnar_of: FxHashMap<NodeId, Arc<co_object::columnar::ColumnarRel>> =
        FxHashMap::default();
    if columnar {
        for &node in &nodes {
            if let Object::Set(s) = node {
                if let Some(cols) = co_object::columnar::arena_for(s) {
                    columnar_of.insert(s.node_id(), cols);
                }
            }
        }
        if !columnar_of.is_empty() {
            let mut prunable: FxHashSet<NodeId> = FxHashSet::default();
            for node in &nodes {
                let id = node.node_id().expect("walk yields composites");
                if columnar_of.contains_key(&id) {
                    for row in node.children() {
                        prunable.insert(row.node_id().expect("flat-relation rows are tuples"));
                    }
                }
            }
            for node in &nodes {
                let id = node.node_id().expect("walk yields composites");
                if columnar_of.contains_key(&id) {
                    continue;
                }
                for child in node.children() {
                    if let Some(cid) = child.node_id() {
                        prunable.remove(&cid);
                    }
                }
            }
            for root in roots {
                if let Some(rid) = root.node_id() {
                    prunable.remove(&rid);
                }
            }
            nodes.retain(|n| !prunable.contains(&n.node_id().expect("walk yields composites")));
        }
    }

    let mut enc = Encoder {
        symbols: Vec::new(),
        by_name: FxHashMap::default(),
        by_attr: FxHashMap::default(),
        locals: base.locals.clone(),
        base_count: base.count,
        reused: FxHashSet::default(),
    };
    enc.locals.reserve(nodes.len());
    for (ix, node) in nodes.iter().enumerate() {
        enc.locals.insert(
            node.node_id().expect("walk yields composites"),
            base.count + ix as u64,
        );
    }

    // Pass 2: encode node records (interning symbols as they appear).
    let mut table: Vec<u8> = Vec::new();
    for &node in &nodes {
        if let Some(cols) = node.node_id().and_then(|id| columnar_of.get(&id)) {
            // Columnar record: the schema spelled once, then the cells
            // column-major — all inline atoms, no node references.
            table.push(NODE_FLAT_SET);
            put_varint(&mut table, cols.arity() as u64);
            for &attr in cols.schema() {
                let ix = enc.attr(attr);
                put_varint(&mut table, ix);
            }
            put_varint(&mut table, cols.rows() as u64);
            for c in 0..cols.arity() {
                for atom in cols.column(c) {
                    enc.atom(&mut table, atom);
                }
            }
            continue;
        }
        match node {
            Object::Tuple(t) => {
                table.push(NODE_TUPLE);
                put_varint(&mut table, t.len() as u64);
                for &(attr, ref value) in t.entries() {
                    let ix = enc.attr(attr);
                    put_varint(&mut table, ix);
                    enc.value(&mut table, value);
                }
            }
            Object::Set(s) => {
                table.push(NODE_SET);
                put_varint(&mut table, s.len() as u64);
                for element in s.elements() {
                    enc.value(&mut table, element);
                }
            }
            _ => unreachable!("the unique walk only yields composites"),
        }
    }
    let mut root_table: Vec<u8> = Vec::new();
    for root in roots {
        enc.value(&mut root_table, root);
    }

    // Assemble the payload: symbols, nodes, roots, metadata.
    let mut payload: Vec<u8> = Vec::new();
    put_varint(&mut payload, enc.symbols.len() as u64);
    for s in &enc.symbols {
        put_str(&mut payload, s);
    }
    payload.extend_from_slice(&table);
    payload.extend_from_slice(&root_table);
    put_varint(&mut payload, meta.len() as u64);
    payload.extend_from_slice(meta);

    // Header last: it needs the counts, and the checksum covers it.
    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(nodes.len() as u64).to_le_bytes());
    header.extend_from_slice(&(roots.len() as u64).to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&base.checksum.to_le_bytes());
    header.extend_from_slice(&base.count.to_le_bytes());
    let sum = layer_checksum(&header[MAGIC.len()..], &payload);
    header.extend_from_slice(&sum.to_le_bytes());
    debug_assert_eq!(header.len(), HEADER_LEN);

    w.write_all(&header)?;
    w.write_all(&payload)?;
    w.flush()?;

    let stats = WriteStats {
        base: base.base_id(),
        nodes: nodes.len() as u64,
        roots: roots.len() as u64,
        symbols: enc.symbols.len() as u64,
        payload_bytes: payload.len() as u64,
        total_bytes: (HEADER_LEN + payload.len()) as u64,
        base_nodes_reused: enc.reused.len() as u64,
        columnar_sets: columnar_of.len() as u64,
    };
    let handle = SnapshotHandle {
        checksum: sum,
        count: base.count + nodes.len() as u64,
        locals: enc.locals,
    };
    Ok((stats, handle))
}

/// Serializes `roots` (plus `meta`, an opaque blob the reader hands back
/// verbatim) as one full snapshot into `w`: a layer on the empty base.
/// Each distinct interned node reachable from the roots is encoded
/// exactly once, children before parents.
///
/// The writer holds strong references to every root for the whole write,
/// so a concurrent [`co_object::store::collect`] cannot free anything
/// mid-serialization; callers that also want the ids pinned across later
/// sweeps should pin roots themselves (see `Engine::checkpoint`).
pub fn write_snapshot<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
) -> Result<WriteStats, WireError> {
    write_snapshot_impl(w, roots, meta, &SnapshotHandle::empty(), false).map(|(stats, _)| stats)
}

/// A full snapshot with the **columnar fast path**: flat relations that
/// qualify for a [`co_object::columnar`] arena (same-schema rows of
/// atoms, at least [`columnar_min_rows`](co_object::columnar::columnar_min_rows)
/// of them) are encoded as
/// schema-once column-major records, and their row tuples — when nothing
/// outside the relation references them — are pruned from the node
/// table (see [`WriteStats::columnar_sets`]). With no qualifying set the
/// bytes are exactly [`write_snapshot`]'s.
///
/// Restoring re-interns every row through the canonicalizing
/// constructors, so the result is bit-identical to a [`write_snapshot`]
/// of the same roots — the columnar record is purely an encoding choice.
pub fn write_snapshot_columnar<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    write_snapshot_impl(w, roots, meta, &SnapshotHandle::empty(), true)
}

/// Serializes `roots` as a layer on `base`: only nodes the base lacks
/// are encoded; everything already resident is referenced by its
/// base-local id. On [`SnapshotHandle::empty`] the result is a full
/// snapshot. Returns the stats and a handle onto the extended chain, for
/// writing the next delta.
///
/// Restore a delta with [`read_chain`] / [`load_chain`], supplying the
/// base's layers first.
pub fn write_delta_snapshot<W: Write>(
    w: W,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    write_snapshot_impl(w, roots, meta, base, false)
}

// ---------------------------------------------------------------------------
// Atomic file writes
// ---------------------------------------------------------------------------

/// Runs `write` against a same-directory temporary for `path` and renames
/// the result over `path` only once fully written and synced — a crash
/// mid-write can never leave a half-snapshot under the final name, only
/// an orphan temporary (see [`is_snapshot_temp`]). The parent directory
/// is synced after the rename, so the new name survives power loss too.
fn save_atomically<T>(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    // Unique per process AND per call: two threads checkpointing to the
    // same destination concurrently must not interleave writes into one
    // temp inode (the loser's rename would install a corrupt file).
    static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = std::fs::File::create(&tmp)?;
        let mut buffered = std::io::BufWriter::new(file);
        let out = write(&mut buffered)?;
        buffered
            .into_inner()
            .map_err(|e| e.into_error())?
            .sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)?;
        Ok(out)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Syncs the directory holding `path`: a rename only changes directory
/// entries, which reach the disk with the directory's own sync, not the
/// file's.
fn sync_parent_dir(path: &Path) -> Result<(), WireError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|source| WireError::DirSync {
            dir: dir.to_owned(),
            source,
        })
}

/// Whether `path` looks like an orphaned snapshot temporary — the
/// `<dest>.tmp.<pid>.<seq>` name [`save_to_path`] writes through before
/// its atomic rename. A crash mid-save leaves such a file next to an
/// intact `<dest>`; it is safe to ignore or delete.
pub fn is_snapshot_temp(path: impl AsRef<Path>) -> bool {
    let Some(name) = path.as_ref().file_name().and_then(|n| n.to_str()) else {
        return false;
    };
    let Some((_, suffix)) = name.rsplit_once(".tmp.") else {
        return false;
    };
    let mut parts = suffix.split('.');
    matches!(
        (parts.next(), parts.next(), parts.next()),
        (Some(pid), Some(seq), None)
            if !pid.is_empty()
                && !seq.is_empty()
                && pid.bytes().all(|b| b.is_ascii_digit())
                && seq.bytes().all(|b| b.is_ascii_digit())
    )
}

/// [`write_snapshot`] to a file, atomically: the bytes go to a
/// same-directory temporary first and are renamed over `path` only once
/// fully written, so a crash mid-write can never leave a half-snapshot
/// under the final name.
pub fn save_to_path(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
) -> Result<WriteStats, WireError> {
    save_atomically(path.as_ref(), |w| write_snapshot(w, roots, meta))
}

/// [`write_delta_snapshot`] to a file, atomically (same temp + rename
/// contract as [`save_to_path`]). On [`SnapshotHandle::empty`] this saves
/// a full snapshot and returns a handle for the deltas that follow it.
pub fn save_delta_to_path(
    path: impl AsRef<Path>,
    roots: &[Object],
    meta: &[u8],
    base: &SnapshotHandle,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    save_atomically(path.as_ref(), |w| {
        write_delta_snapshot(w, roots, meta, base)
    })
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A validated snapshot header.
struct Header {
    node_count: u64,
    root_count: u64,
    base: BaseId,
    checksum: u64,
}

/// Reads one layer's header and payload. The header is structurally
/// validated first — magic, version, and count plausibility (each node
/// and root record is at least one payload byte) — and then the checksum
/// is verified over the header fields and the payload together, before
/// any of the structure is trusted.
fn read_verified<R: Read>(r: &mut R) -> Result<(Header, Vec<u8>), WireError> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated { context: "header" }
        } else {
            WireError::Io(e)
        }
    })?;
    let magic: [u8; 8] = raw[0..8].try_into().expect("8 bytes");
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(raw[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(WireError::UnsupportedVersion { found: version });
    }
    let u64_at = |at: usize| u64::from_le_bytes(raw[at..at + 8].try_into().expect("8 bytes"));
    let node_count = u64_at(12);
    let root_count = u64_at(20);
    let payload_len = u64_at(28);
    let base = BaseId {
        checksum: u64_at(36),
        nodes: u64_at(44),
    };
    let declared_checksum = u64_at(52);
    if node_count > payload_len {
        return Err(WireError::Malformed {
            detail: format!(
                "declared node count {node_count} exceeds the {payload_len}-byte payload"
            ),
        });
    }
    if root_count > payload_len {
        return Err(WireError::Malformed {
            detail: format!(
                "declared root count {root_count} exceeds the {payload_len}-byte payload"
            ),
        });
    }
    let payload_len = usize::try_from(payload_len).map_err(|_| WireError::Malformed {
        detail: format!("declared payload length {payload_len} exceeds addressable memory"),
    })?;

    let mut payload = Vec::new();
    let got = r
        .by_ref()
        .take(payload_len as u64)
        .read_to_end(&mut payload)?;
    if got < payload_len {
        return Err(WireError::Truncated { context: "payload" });
    }
    let actual = layer_checksum(&raw[MAGIC.len()..HEADER_LEN - 8], &payload);
    if actual != declared_checksum {
        return Err(WireError::ChecksumMismatch {
            expected: declared_checksum,
            actual,
        });
    }
    let header = Header {
        node_count,
        root_count,
        base,
        checksum: declared_checksum,
    };
    Ok((header, payload))
}

/// Decodes one value; composites must be backward references into the
/// already-decoded prefix of the (combined, for chains) node table.
fn get_value(
    c: &mut Cursor<'_>,
    context: &'static str,
    nodes: &[Object],
    symbols: &[String],
    allow_extremes: bool,
) -> Result<Object, WireError> {
    let tag = c.u8(context)?;
    match tag {
        VAL_BOTTOM | VAL_TOP if !allow_extremes => Err(WireError::Malformed {
            detail: format!(
                "{} inside a composite node (canonical nodes contain neither)",
                if tag == VAL_BOTTOM { "⊥" } else { "⊤" }
            ),
        }),
        VAL_BOTTOM => Ok(Object::Bottom),
        VAL_TOP => Ok(Object::Top),
        VAL_FALSE => Ok(Object::bool(false)),
        VAL_TRUE => Ok(Object::bool(true)),
        VAL_INT => Ok(Object::int(c.varint_i64(context)?)),
        VAL_FLOAT => {
            let bytes: [u8; 8] = c.take(8, context)?.try_into().expect("8 bytes");
            Ok(Object::float(f64::from_bits(u64::from_le_bytes(bytes))))
        }
        VAL_STR => {
            let ix = c.varint(context)?;
            let s = symbols
                .get(usize::try_from(ix).unwrap_or(usize::MAX))
                .ok_or_else(|| WireError::Malformed {
                    detail: format!(
                        "symbol index {ix} out of range ({} symbols) in {context}",
                        symbols.len()
                    ),
                })?;
            Ok(Object::str(s))
        }
        VAL_NODE => {
            let id = c.varint(context)?;
            match usize::try_from(id).ok().and_then(|ix| nodes.get(ix)) {
                Some(node) => Ok(node.clone()),
                None => Err(WireError::DanglingRef {
                    id,
                    defined: nodes.len() as u64,
                }),
            }
        }
        tag => Err(WireError::BadTag { tag, context }),
    }
}

/// Decodes one columnar (`NODE_FLAT_SET`) record into a canonical set:
/// schema, row count, then the cells column-major. Every cell must be an
/// inline atom — ⊥/⊤ are refused by `get_value` and node references are
/// refused here (a flat relation's rows contain no composites). Rows are
/// rebuilt through [`Object::try_tuple`] / [`Object::set`], so whatever
/// the writing process's attribute order was, the result re-interns to
/// the canonical node.
fn decode_flat_set(
    c: &mut Cursor<'_>,
    nodes: &[Object],
    symbols: &[String],
) -> Result<Object, WireError> {
    let context = "columnar node";
    let arity = c.varint(context)?;
    let arity = usize::try_from(arity)
        .ok()
        .filter(|&a| a > 0 && a <= c.remaining())
        .ok_or_else(|| WireError::Malformed {
            detail: format!("columnar record declares an implausible arity ({arity})"),
        })?;
    let mut schema: Vec<Attr> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let ix = c.varint(context)?;
        let name = symbols
            .get(usize::try_from(ix).unwrap_or(usize::MAX))
            .ok_or_else(|| WireError::Malformed {
                detail: format!(
                    "attribute symbol index {ix} out of range ({} symbols) in {context}",
                    symbols.len()
                ),
            })?;
        schema.push(Attr::new(name));
    }
    let rows = c.varint(context)?;
    // Each cell is at least one payload byte, so `arity × rows` beyond
    // the remaining payload cannot be honest — fail before allocating.
    let rows = usize::try_from(rows)
        .ok()
        .filter(|&r| {
            r > 0
                && r.checked_mul(arity)
                    .is_some_and(|cells| cells <= c.remaining())
        })
        .ok_or_else(|| WireError::Malformed {
            detail: format!(
                "columnar record declares an implausible row count ({rows} rows × {arity} \
                 columns against {} remaining payload bytes)",
                c.remaining()
            ),
        })?;
    let mut columns: Vec<Vec<Object>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut column = Vec::with_capacity(rows);
        for _ in 0..rows {
            let value = get_value(c, context, nodes, symbols, false)?;
            if !matches!(value, Object::Atom(_)) {
                return Err(WireError::Malformed {
                    detail: "node reference inside a columnar record (rows are atoms only)".into(),
                });
            }
            column.push(value);
        }
        columns.push(column);
    }
    let mut elements: Vec<Object> = Vec::with_capacity(rows);
    for r in 0..rows {
        let entries = schema
            .iter()
            .zip(&columns)
            .map(|(attr, column)| (*attr, column[r].clone()));
        elements.push(
            Object::try_tuple(entries).map_err(|e| WireError::Malformed {
                detail: format!("invalid columnar row: {e}"),
            })?,
        );
    }
    Ok(Object::set(elements))
}

/// Reads one layer from `r`, appending its nodes to the combined table
/// `nodes`, and returns its roots and metadata (each layer carries its
/// own) plus its checksum. `chain` is the identity of the layers read so
/// far ([`BaseId::EMPTY`] before the first); the layer's base link must
/// match it.
fn read_layer<R: Read>(
    r: R,
    nodes: &mut Vec<Object>,
    chain: BaseId,
) -> Result<(Snapshot, u64), WireError> {
    let start = std::time::Instant::now();
    let out = read_layer_inner(r, nodes, chain);
    wire_instruments()
        .decode_ns
        .record_duration(start.elapsed());
    out
}

fn read_layer_inner<R: Read>(
    mut r: R,
    nodes: &mut Vec<Object>,
    chain: BaseId,
) -> Result<(Snapshot, u64), WireError> {
    let (header, payload) = read_verified(&mut r)?;
    if header.base != chain {
        return Err(if chain == BaseId::EMPTY {
            WireError::BaseRequired {
                checksum: header.base.checksum,
                nodes: header.base.nodes,
            }
        } else {
            WireError::BaseMismatch {
                expected_checksum: header.base.checksum,
                expected_nodes: header.base.nodes,
                found_checksum: chain.checksum,
                found_nodes: chain.nodes,
            }
        });
    }
    let mut c = Cursor::new(&payload);

    // Symbol table (layer-local: every layer carries its own spellings).
    let symbol_count = c.varint("symbol table")?;
    let mut symbols: Vec<String> = Vec::new();
    for _ in 0..symbol_count {
        symbols.push(c.str("symbol table")?.to_owned());
    }

    // Node table, bottom-up: every child reference resolves into the
    // combined prefix decoded so far (base layers included), and every
    // decoded node goes straight through the interning constructors.
    for _ in 0..header.node_count {
        let tag = c.u8("node table")?;
        let node = match tag {
            NODE_TUPLE => {
                let len = c.varint("node table")?;
                let mut entries: Vec<(Attr, Object)> = Vec::new();
                for _ in 0..len {
                    let ix = c.varint("node table")?;
                    let name = symbols
                        .get(usize::try_from(ix).unwrap_or(usize::MAX))
                        .ok_or_else(|| WireError::Malformed {
                            detail: format!(
                                "attribute symbol index {ix} out of range ({} symbols)",
                                symbols.len()
                            ),
                        })?;
                    let value = get_value(&mut c, "node table", nodes, &symbols, false)?;
                    entries.push((Attr::new(name), value));
                }
                Object::try_tuple(entries).map_err(|e| WireError::Malformed {
                    detail: format!("invalid tuple node: {e}"),
                })?
            }
            NODE_SET => {
                let len = c.varint("node table")?;
                let mut elements: Vec<Object> = Vec::new();
                for _ in 0..len {
                    elements.push(get_value(&mut c, "node table", nodes, &symbols, false)?);
                }
                Object::set(elements)
            }
            NODE_FLAT_SET => decode_flat_set(&mut c, nodes, &symbols)?,
            tag => {
                return Err(WireError::BadTag {
                    tag,
                    context: "node table",
                })
            }
        };
        nodes.push(node);
    }

    // Roots and metadata.
    let mut roots: Vec<Object> = Vec::new();
    for _ in 0..header.root_count {
        roots.push(get_value(&mut c, "root table", nodes, &symbols, true)?);
    }
    let meta_len = c.varint("metadata")?;
    let meta_len = usize::try_from(meta_len).map_err(|_| WireError::Malformed {
        detail: format!("metadata length {meta_len} exceeds addressable memory"),
    })?;
    let meta = c.take(meta_len, "metadata")?.to_vec();
    if c.remaining() != 0 {
        return Err(WireError::Malformed {
            detail: format!(
                "{} trailing bytes after the snapshot payload",
                c.remaining()
            ),
        });
    }
    Ok((Snapshot { roots, meta }, header.checksum))
}

/// Reads one **full** snapshot from `r`, re-interning every node
/// bottom-up through the canonicalizing constructors — see the module
/// docs for why the result is structurally identical to what was written
/// and deduplicates against nodes already live in this process's store.
///
/// A delta is rejected with [`WireError::BaseRequired`]: deltas only
/// restore as a chain ([`read_chain`] / [`load_chain`]).
pub fn read_snapshot<R: Read>(r: R) -> Result<Snapshot, WireError> {
    read_layer(r, &mut Vec::new(), BaseId::EMPTY).map(|(snap, _)| snap)
}

/// Restores a snapshot **chain** — one full layer followed by zero or
/// more deltas, oldest first — returning the last layer's snapshot (its
/// roots and metadata) and a [`SnapshotHandle`] for writing further
/// deltas against the restored state.
///
/// Every link is verified against the layers restored before it
/// (checksum + cumulative node count): a first layer that needs a base
/// fails with [`WireError::BaseRequired`], any other mismatch with
/// [`WireError::BaseMismatch`]; chains deeper than [`MAX_CHAIN_DEPTH`]
/// fail with [`WireError::ChainTooDeep`]; an empty chain is
/// [`WireError::Malformed`].
pub fn read_chain<R, I>(layers: I) -> Result<(Snapshot, SnapshotHandle), WireError>
where
    R: Read,
    I: IntoIterator<Item = R>,
{
    let (snap, nodes, links) = restore_layers(layers)?;
    let last = links.last().expect("a restored chain has a layer");
    Ok((snap, handle_from(&nodes, last.checksum)))
}

/// Restores a chain's layers oldest-first into one combined node table:
/// returns the last layer's snapshot, the combined table, and the chain's
/// identity after each layer (what [`compact_chain`] rebases onto).
fn restore_layers<R, I>(layers: I) -> Result<(Snapshot, Vec<Object>, Vec<BaseId>), WireError>
where
    R: Read,
    I: IntoIterator<Item = R>,
{
    let mut nodes: Vec<Object> = Vec::new();
    let mut links: Vec<BaseId> = Vec::new();
    let mut last: Option<Snapshot> = None;
    for r in layers {
        if links.len() == MAX_CHAIN_DEPTH {
            return Err(WireError::ChainTooDeep {
                depth: MAX_CHAIN_DEPTH + 1,
            });
        }
        let chain = links.last().copied().unwrap_or(BaseId::EMPTY);
        let (snap, checksum) = read_layer(r, &mut nodes, chain)?;
        links.push(BaseId {
            checksum,
            nodes: nodes.len() as u64,
        });
        last = Some(snap);
    }
    let snap = last.ok_or_else(|| WireError::Malformed {
        detail: "empty snapshot chain".into(),
    })?;
    Ok((snap, nodes, links))
}

/// A [`SnapshotHandle`] over the combined `nodes` restored so far, whose
/// newest layer hashed to `checksum`.
fn handle_from(nodes: &[Object], checksum: u64) -> SnapshotHandle {
    let mut locals: FxHashMap<NodeId, u64> = FxHashMap::default();
    locals.reserve(nodes.len());
    for (ix, node) in nodes.iter().enumerate() {
        locals.insert(
            node.node_id().expect("decoded nodes are composites"),
            ix as u64,
        );
    }
    SnapshotHandle {
        checksum,
        count: nodes.len() as u64,
        locals,
    }
}

/// [`read_snapshot`] from a file.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<Snapshot, WireError> {
    let file = std::fs::File::open(path.as_ref())?;
    read_snapshot(std::io::BufReader::new(file))
}

/// Opens the layer files of a chain, refusing chains deeper than
/// [`MAX_CHAIN_DEPTH`] before opening any.
fn open_layers<P: AsRef<Path>>(
    layers: &[P],
) -> Result<Vec<std::io::BufReader<std::fs::File>>, WireError> {
    if layers.len() > MAX_CHAIN_DEPTH {
        return Err(WireError::ChainTooDeep {
            depth: layers.len(),
        });
    }
    let mut files = Vec::with_capacity(layers.len());
    for p in layers {
        files.push(std::io::BufReader::new(std::fs::File::open(p.as_ref())?));
    }
    Ok(files)
}

/// [`read_chain`] from files: `layers[0]` is the full base, the rest are
/// deltas in write order.
pub fn load_chain<P: AsRef<Path>>(layers: &[P]) -> Result<(Snapshot, SnapshotHandle), WireError> {
    read_chain(open_layers(layers)?)
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// How [`compact_chain`] rewrites a chain into fewer layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compaction {
    /// Rewrite the whole chain as a single **full** snapshot — a layer on
    /// the empty base — that restores on its own.
    Full,
    /// Merge every delta into a single **delta** on the chain's first
    /// layer: the base file is reused as-is, and the new layer carries
    /// the union of all the deltas' new nodes. Useful when the base is
    /// large, replicated, or immutable.
    Rebase,
}

/// Rewrites the chain `layers` (oldest first) as `out`: one layer on the
/// empty base ([`Compaction::Full`]) or on the chain's first layer
/// ([`Compaction::Rebase`]). The last layer's roots and metadata are
/// preserved; intermediate layers' are compacted away. Returns the write
/// stats and a handle onto the compacted snapshot (for `Rebase`, the
/// first layer plus the merged delta).
pub fn compact_chain<P: AsRef<Path>>(
    layers: &[P],
    out: impl AsRef<Path>,
    mode: Compaction,
) -> Result<(WriteStats, SnapshotHandle), WireError> {
    // One pass restores the whole chain; its first layer's nodes are the
    // prefix of the combined table.
    let (snap, nodes, links) = restore_layers(open_layers(layers)?)?;
    let base = match mode {
        Compaction::Full => SnapshotHandle::empty(),
        Compaction::Rebase => {
            let first = links[0];
            handle_from(&nodes[..first.nodes as usize], first.checksum)
        }
    };
    save_delta_to_path(out, &snap.roots, &snap.meta, &base)
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// What [`describe`] reports about a snapshot file, without restoring
/// (re-interning) any of it: the header fields, checksum-verified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Node records in this file (for a delta: new nodes only).
    pub nodes: u64,
    /// Root values in this file.
    pub roots: u64,
    /// Payload bytes (everything after the header).
    pub payload_bytes: u64,
    /// Total file bytes, header included.
    pub total_bytes: u64,
    /// FNV-1a-64 layer checksum — verified against the header and payload
    /// before this struct is returned, and the identity the next delta in
    /// a chain names this snapshot by.
    pub checksum: u64,
    /// The base this layer was written on; [`BaseId::EMPTY`] for a full
    /// snapshot.
    pub base: BaseId,
}

impl SnapshotInfo {
    /// Whether this is a delta: a layer that needs its base chain.
    pub fn is_delta(&self) -> bool {
        self.base != BaseId::EMPTY
    }
}

impl std::fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "co-wire v{FORMAT_VERSION} ")?;
        if self.is_delta() {
            write!(
                f,
                "delta snapshot: {} new nodes over base {:#018x} ({} nodes)",
                self.nodes, self.base.checksum, self.base.nodes
            )?;
        } else {
            write!(f, "full snapshot: {} nodes", self.nodes)?;
        }
        write!(
            f,
            ", {} roots, {} payload bytes ({} total), checksum {:#018x}",
            self.roots, self.payload_bytes, self.total_bytes, self.checksum
        )
    }
}

/// Inspects the snapshot at `path` without restoring it: validates the
/// header, verifies the checksum, and reports the counts, sizes, and
/// base link. Other versions are [`WireError::UnsupportedVersion`] — the
/// same hard error every reader entry point gives, never a best-effort
/// parse.
pub fn describe(path: impl AsRef<Path>) -> Result<SnapshotInfo, WireError> {
    let file = std::fs::File::open(path.as_ref())?;
    describe_snapshot(std::io::BufReader::new(file))
}

/// [`describe`] over any reader.
pub fn describe_snapshot<R: Read>(mut r: R) -> Result<SnapshotInfo, WireError> {
    let (header, payload) = read_verified(&mut r)?;
    Ok(SnapshotInfo {
        nodes: header.node_count,
        roots: header.root_count,
        payload_bytes: payload.len() as u64,
        total_bytes: (HEADER_LEN + payload.len()) as u64,
        checksum: header.checksum,
        base: header.base,
    })
}

// ---------------------------------------------------------------------------
// Naive-encoding accounting (the sharing-ratio denominator)
// ---------------------------------------------------------------------------

/// The size in bytes this snapshot's *values* would occupy in a naive
/// tree encoding — same tags, varints, and inline strings, but **no node
/// table and no symbol table**: every shared subtree re-encoded at every
/// occurrence, every attribute name spelled out inline. The ratio
/// `naive_encoding_len / WriteStats::payload_bytes` is the sharing factor
/// a snapshot gains from hash-consing (≥ 1; equal only for structures
/// with no sharing at all).
///
/// Computed arithmetically over the DAG — a bottom-up pass over the
/// distinct nodes (no call-stack recursion, so graph depth is bounded by
/// heap, like the writer's own walk) — so it is O(nodes) even when the
/// naive expansion itself would be exponential; saturates at `u64::MAX`
/// rather than overflowing.
pub fn naive_encoding_len(roots: &[Object]) -> u64 {
    fn varint_len(v: u64) -> u64 {
        (64 - u64::from(v.leading_zeros())).max(1).div_ceil(7)
    }
    /// The inline length of a non-composite value; `None` for composites
    /// (their lengths come from the memo).
    fn leaf_len(o: &Object) -> Option<u64> {
        match o {
            Object::Bottom | Object::Top | Object::Atom(Atom::Bool(_)) => Some(1),
            Object::Atom(Atom::Int(v)) => Some(1 + varint_len(((v << 1) ^ (v >> 63)) as u64)),
            Object::Atom(Atom::Float(_)) => Some(9),
            Object::Atom(Atom::Str(s)) => Some(1 + varint_len(s.len() as u64) + s.len() as u64),
            Object::Tuple(_) | Object::Set(_) => None,
        }
    }
    // Postorder: every composite child's length is memoized before its
    // parent is visited.
    let mut memo: FxHashMap<co_object::NodeId, u64> = FxHashMap::default();
    visit_unique_postorder(roots.iter(), |o| {
        let id = o.node_id().expect("the walk yields composites");
        let mut n: u64 = 1 + varint_len(o.children().len() as u64);
        if let Object::Tuple(t) = o {
            for (attr, _) in t.entries() {
                let name = attr.name();
                n = n.saturating_add(varint_len(name.len() as u64) + name.len() as u64);
            }
        }
        for child in o.children() {
            let len =
                leaf_len(child).unwrap_or_else(|| memo[&child.node_id().expect("composite child")]);
            n = n.saturating_add(len);
        }
        memo.insert(id, n);
    });
    roots.iter().fold(0u64, |acc, r| {
        let len = leaf_len(r).unwrap_or_else(|| memo[&r.node_id().expect("composite root")]);
        acc.saturating_add(len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::obj;

    #[test]
    fn empty_snapshot_roundtrips() {
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &[], b"hello").unwrap();
        assert_eq!(stats.nodes, 0);
        assert!(!stats.is_delta());
        assert_eq!(stats.total_bytes as usize, bytes.len());
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert!(snap.roots.is_empty());
        assert_eq!(snap.meta, b"hello");
    }

    #[test]
    fn a_full_snapshot_is_a_layer_on_the_empty_base() {
        let o = obj!([r: {[a: 1], [a: 2]}]);
        let mut full = Vec::new();
        let stats = write_snapshot(&mut full, std::slice::from_ref(&o), b"m").unwrap();
        let mut layer = Vec::new();
        let (layer_stats, handle) = write_delta_snapshot(
            &mut layer,
            std::slice::from_ref(&o),
            b"m",
            &SnapshotHandle::empty(),
        )
        .unwrap();
        assert_eq!(full, layer, "one writer path, one byte stream");
        assert_eq!(stats, layer_stats);
        assert_eq!(stats.base, BaseId::EMPTY);
        assert_eq!(full[36..52], [0; 16], "the empty base's link is all zero");
        assert_eq!(handle.nodes(), stats.nodes);
        // It restores through both entry points.
        assert_eq!(
            read_snapshot(full.as_slice()).unwrap().roots,
            vec![o.clone()]
        );
        let (snap, restored) = read_chain([full.as_slice()]).unwrap();
        assert_eq!(snap.roots, vec![o]);
        assert_eq!(restored.base_id(), handle.base_id());
    }

    #[test]
    fn atoms_and_extremes_roundtrip_as_roots() {
        let roots = vec![
            Object::Bottom,
            Object::Top,
            obj!(42),
            obj!(-7),
            Object::float(2.5),
            Object::bool(true),
            Object::str("héllo wörld"),
        ];
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, &roots, b"").unwrap();
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
    }

    #[test]
    fn nested_objects_roundtrip_to_the_same_nodes() {
        let o = obj!([family: {
            [name: abraham, children: {[name: isaac]}],
            [name: isaac, children: {[name: esau], [name: jacob]}]
        }]);
        let mut bytes = Vec::new();
        write_snapshot(&mut bytes, std::slice::from_ref(&o), b"").unwrap();
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, vec![o.clone()]);
        // Same process: re-interning must find the identical node.
        assert_eq!(snap.roots[0].node_id(), o.node_id());
    }

    #[test]
    fn shared_subtrees_are_encoded_once() {
        // 2^20 tree expansion, 21 distinct nodes.
        let mut level = obj!({ base });
        for _ in 0..20 {
            level = Object::tuple([("l", level.clone()), ("r", level)]);
        }
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &[level.clone()], b"").unwrap();
        assert_eq!(stats.nodes, 21);
        assert!(
            bytes.len() < 1024,
            "a 21-node DAG must stay tiny on disk, got {}",
            bytes.len()
        );
        let naive = naive_encoding_len(&[level.clone()]);
        assert!(
            naive / stats.payload_bytes > 1000,
            "sharing ratio must be enormous here: naive {naive} vs {}",
            stats.payload_bytes
        );
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots[0], level);
    }

    #[test]
    fn repeated_roots_share_the_table() {
        let a = obj!({1, 2, 3});
        let roots = vec![a.clone(), a.clone(), a];
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &roots, b"").unwrap();
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.roots, 3);
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
        assert_eq!(snap.roots[0].node_id(), snap.roots[2].node_id());
    }

    #[test]
    fn save_and_load_paths() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("co_wire_test_{}.cow", std::process::id()));
        let o = obj!([r: {[a: 1], [a: 2]}]);
        save_to_path(&path, std::slice::from_ref(&o), b"meta").unwrap();
        let snap = load_from_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(snap.roots, vec![o]);
        assert_eq!(snap.meta, b"meta");
    }

    /// A flat relation of `rows` same-schema atom tuples — large enough
    /// (≥ the default `columnar_min_rows` of 64) to qualify for a
    /// columnar arena without touching the process-global threshold.
    fn flat_relation(rows: i64) -> Object {
        Object::set((0..rows).map(|i| {
            Object::tuple([
                ("id", Object::int(i)),
                ("name", Object::str(format!("n{}", i % 7))),
                ("score", Object::float(i as f64 / 2.0)),
            ])
        }))
    }

    #[test]
    fn columnar_snapshot_roundtrips_to_identical_nodes() {
        let rel = flat_relation(100);
        let wrapper = Object::tuple([("r", rel.clone())]);
        let mut bytes = Vec::new();
        let (stats, handle) =
            write_snapshot_columnar(&mut bytes, std::slice::from_ref(&wrapper), b"m").unwrap();
        assert!(!stats.is_delta());
        assert_eq!(stats.columnar_sets, 1);
        // The 100 row tuples were pruned: only the set and the wrapper remain.
        assert_eq!(stats.nodes, 2);
        assert_eq!(handle.nodes(), 2);
        assert!(stats.to_string().contains("1 columnar relations"));

        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, vec![wrapper.clone()]);
        assert_eq!(snap.roots[0].node_id(), wrapper.node_id());
        assert_eq!(snap.meta, b"m");

        let info = describe_snapshot(bytes.as_slice()).unwrap();
        assert!(!info.is_delta());
        assert!(info.to_string().contains("full snapshot: 2 nodes"));
    }

    #[test]
    fn columnar_encoding_is_smaller_than_row_encoding() {
        let rel = flat_relation(500);
        let mut row_bytes = Vec::new();
        write_snapshot(&mut row_bytes, std::slice::from_ref(&rel), b"").unwrap();
        let mut col_bytes = Vec::new();
        let (stats, _) =
            write_snapshot_columnar(&mut col_bytes, std::slice::from_ref(&rel), b"").unwrap();
        assert_eq!(stats.columnar_sets, 1);
        assert!(
            col_bytes.len() * 10 < row_bytes.len() * 8,
            "columnar must be well under 80% of the row encoding: {} vs {}",
            col_bytes.len(),
            row_bytes.len()
        );
    }

    #[test]
    fn columnar_write_without_flat_relations_is_plain_version_1() {
        let o = obj!([family: {[name: a, children: {[name: b]}]}, n: 3]);
        let mut plain = Vec::new();
        write_snapshot(&mut plain, std::slice::from_ref(&o), b"x").unwrap();
        let mut columnar = Vec::new();
        let (stats, _) =
            write_snapshot_columnar(&mut columnar, std::slice::from_ref(&o), b"x").unwrap();
        assert!(!stats.is_delta());
        assert_eq!(stats.columnar_sets, 0);
        assert_eq!(plain, columnar, "the fallback must be byte-identical");
    }

    #[test]
    fn externally_referenced_rows_keep_their_node_records() {
        let rel = flat_relation(80);
        let pinned_row = rel.as_set().unwrap().elements()[3].clone();
        // The row is both inside the columnar relation and a root — it
        // must stay in the node table for the root reference to resolve.
        let roots = vec![rel.clone(), pinned_row.clone()];
        let mut bytes = Vec::new();
        let (stats, _) = write_snapshot_columnar(&mut bytes, &roots, b"").unwrap();
        assert_eq!(stats.columnar_sets, 1);
        assert_eq!(stats.nodes, 2, "the relation plus the one pinned row");
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        assert_eq!(snap.roots, roots);
        assert_eq!(snap.roots[1].node_id(), pinned_row.node_id());
    }

    #[test]
    fn deltas_against_a_columnar_base_roundtrip() {
        let v1 = flat_relation(70);
        let mut base = Vec::new();
        let (_, handle) =
            write_snapshot_columnar(&mut base, std::slice::from_ref(&v1), b"").unwrap();
        let v2 = co_object::lattice::union(&v1, &Object::set([Object::int(999)]));
        let mut delta = Vec::new();
        let (stats, _) =
            write_delta_snapshot(&mut delta, std::slice::from_ref(&v2), b"", &handle).unwrap();
        assert!(stats.is_delta());
        let (snap, _) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
        assert_eq!(snap.roots, vec![v2.clone()]);
        assert_eq!(snap.roots[0].node_id(), v2.node_id());
    }

    #[test]
    fn naive_len_counts_every_occurrence() {
        let leaf = obj!({1, 2});
        let shared = Object::tuple([("l", leaf.clone()), ("r", leaf.clone())]);
        let single = Object::tuple([("l", leaf.clone())]);
        let n_leaf = naive_encoding_len(&[leaf]);
        let n_single = naive_encoding_len(&[single]);
        let n_shared = naive_encoding_len(&[shared]);
        // The shared tuple pays for the leaf twice.
        assert!(n_shared > n_single);
        assert!(n_shared >= 2 * n_leaf);
    }

    #[test]
    fn delta_encodes_only_new_nodes_and_chains_restore() {
        let v1 = obj!([db: {[k: 1, v: {a, b}], [k: 2, v: {a, b}]}]);
        let mut base = Vec::new();
        let (base_stats, handle) = write_delta_snapshot(
            &mut base,
            std::slice::from_ref(&v1),
            b"m1",
            &SnapshotHandle::empty(),
        )
        .unwrap();
        assert!(!base_stats.is_delta());
        assert_eq!(handle.nodes(), base_stats.nodes);

        // One new fact: the new tuple, the grown relation set, the grown
        // wrapper — everything else rides on base references.
        let v2 = obj!([db: {[k: 1, v: {a, b}], [k: 2, v: {a, b}], [k: 3, v: {a, b}]}]);
        let mut delta = Vec::new();
        let (delta_stats, handle2) =
            write_delta_snapshot(&mut delta, std::slice::from_ref(&v2), b"m2", &handle).unwrap();
        assert_eq!(delta_stats.base, handle.base_id());
        assert_eq!(delta_stats.nodes, 3, "tuple + set + wrapper are new");
        assert!(delta_stats.base_nodes_reused >= 1);
        assert_eq!(handle2.nodes(), handle.nodes() + 3);

        let (snap, restored_handle) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
        assert_eq!(snap.roots, vec![v2.clone()]);
        assert_eq!(snap.meta, b"m2");
        assert_eq!(snap.roots[0].node_id(), v2.node_id());
        assert_eq!(restored_handle.nodes(), handle2.nodes());
        assert_eq!(restored_handle.checksum(), handle2.checksum());
    }

    #[test]
    fn a_chain_of_three_deltas_restores_the_final_state() {
        let mut layers: Vec<Vec<u8>> = Vec::new();
        let mut db = obj!({ 0 });
        let mut bytes = Vec::new();
        let (_, mut handle) = write_delta_snapshot(
            &mut bytes,
            std::slice::from_ref(&db),
            b"0",
            &SnapshotHandle::empty(),
        )
        .unwrap();
        layers.push(bytes);
        for i in 1..=3i64 {
            db = co_object::lattice::union(&db, &Object::set([Object::int(i)]));
            let mut bytes = Vec::new();
            let (_, next) = write_delta_snapshot(
                &mut bytes,
                std::slice::from_ref(&db),
                i.to_string().as_bytes(),
                &handle,
            )
            .unwrap();
            handle = next;
            layers.push(bytes);
        }
        let (snap, _) = read_chain(layers.iter().map(|l| l.as_slice())).unwrap();
        assert_eq!(snap.roots, vec![obj!({0, 1, 2, 3})]);
        assert_eq!(snap.meta, b"3");
    }

    #[test]
    fn a_delta_alone_demands_its_base() {
        let v1 = obj!({ 1 });
        let mut base = Vec::new();
        let (_, handle) =
            write_delta_snapshot(&mut base, &[v1], b"", &SnapshotHandle::empty()).unwrap();
        let mut delta = Vec::new();
        write_delta_snapshot(&mut delta, &[obj!({1, 2})], b"", &handle).unwrap();
        let err = read_snapshot(delta.as_slice()).unwrap_err();
        assert!(
            matches!(err, WireError::BaseRequired { checksum, nodes }
                if checksum == handle.checksum() && nodes == handle.nodes()),
            "got: {err}"
        );
    }

    #[test]
    fn the_wrong_base_is_rejected() {
        let mut base_a = Vec::new();
        let (_, handle_a) =
            write_delta_snapshot(&mut base_a, &[obj!({ 1 })], b"", &SnapshotHandle::empty())
                .unwrap();
        let mut base_b = Vec::new();
        write_delta_snapshot(&mut base_b, &[obj!({ 2 })], b"", &SnapshotHandle::empty()).unwrap();
        let mut delta = Vec::new();
        write_delta_snapshot(&mut delta, &[obj!({1, 9})], b"", &handle_a).unwrap();
        let err = read_chain([base_b.as_slice(), delta.as_slice()]).unwrap_err();
        assert!(matches!(err, WireError::BaseMismatch { .. }), "got: {err}");
    }

    #[test]
    fn compaction_full_and_rebase() {
        let dir = std::env::temp_dir().join(format!("co_wire_compact_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v1 = obj!([db: {1, 2}]);
        let (_, h1) = save_delta_to_path(
            dir.join("0.cow"),
            std::slice::from_ref(&v1),
            b"a",
            &SnapshotHandle::empty(),
        )
        .unwrap();
        let v2 = obj!([db: {1, 2, 3}]);
        let (_, h2) =
            save_delta_to_path(dir.join("1.cow"), std::slice::from_ref(&v2), b"b", &h1).unwrap();
        let v3 = obj!([db: {1, 2, 3, 4}]);
        save_delta_to_path(dir.join("2.cow"), std::slice::from_ref(&v3), b"c", &h2).unwrap();
        let chain = [dir.join("0.cow"), dir.join("1.cow"), dir.join("2.cow")];

        // Full: a single self-contained file, a layer on the empty base.
        compact_chain(&chain, dir.join("full.cow"), Compaction::Full).unwrap();
        let info = describe(dir.join("full.cow")).unwrap();
        assert!(!info.is_delta());
        let snap = load_from_path(dir.join("full.cow")).unwrap();
        assert_eq!(snap.roots, vec![v3.clone()]);
        assert_eq!(snap.meta, b"c");

        // Rebase: base + one merged delta replaces base + two deltas.
        compact_chain(&chain, dir.join("merged.cow"), Compaction::Rebase).unwrap();
        let info = describe(dir.join("merged.cow")).unwrap();
        assert_eq!(info.base, h1.base_id());
        let (snap, _) = load_chain(&[dir.join("0.cow"), dir.join("merged.cow")]).unwrap();
        assert_eq!(snap.roots, vec![v3]);
        assert_eq!(snap.meta, b"c");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chains_deeper_than_the_cap_are_rejected() {
        // A real chain one layer past the cap: the reader must refuse the
        // excess layer (after restoring the permitted prefix), typed.
        let mut layers: Vec<Vec<u8>> = Vec::new();
        let mut bytes = Vec::new();
        let (_, mut handle) =
            write_delta_snapshot(&mut bytes, &[obj!({ 0 })], b"", &SnapshotHandle::empty())
                .unwrap();
        layers.push(bytes);
        for i in 1..=MAX_CHAIN_DEPTH as i64 {
            let db = Object::set((0..=i).map(Object::int));
            let mut bytes = Vec::new();
            let (_, next) =
                write_delta_snapshot(&mut bytes, std::slice::from_ref(&db), b"", &handle).unwrap();
            handle = next;
            layers.push(bytes);
        }
        assert_eq!(layers.len(), MAX_CHAIN_DEPTH + 1);
        let err = read_chain(layers.iter().map(|l| l.as_slice())).unwrap_err();
        assert!(
            matches!(err, WireError::ChainTooDeep { depth } if depth == MAX_CHAIN_DEPTH + 1),
            "got: {err}"
        );
        // The cap itself is fine.
        let (snap, _) = read_chain(layers[..MAX_CHAIN_DEPTH].iter().map(|l| l.as_slice())).unwrap();
        assert_eq!(snap.roots.len(), 1);
        // An empty chain is typed, not a panic.
        let err = read_chain(std::iter::empty::<&[u8]>()).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "got: {err}");
    }

    #[test]
    fn temp_names_are_recognized() {
        assert!(is_snapshot_temp("db.cow.tmp.1234.7"));
        assert!(is_snapshot_temp("/var/data/db.cow.tmp.99.0"));
        assert!(!is_snapshot_temp("db.cow"));
        assert!(!is_snapshot_temp("db.cow.tmp"));
        assert!(!is_snapshot_temp("db.cow.tmp.12ab.7"));
        assert!(!is_snapshot_temp("db.cow.tmp.1.2.3"));
    }
}
