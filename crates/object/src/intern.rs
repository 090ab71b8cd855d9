//! Hash-consed object interning: each structurally distinct [`Value`] is
//! stored once in a process-global [`Pool`] and addressed by a copyable
//! [`ObjRef`] id.
//!
//! The paper's **Obj** domain (Section 4) is tree-shaped, but evaluation
//! produces massively *shared* trees: every member of a powerset shares
//! all of its subtrees with other members, every round of an inflationary
//! fixpoint re-derives mostly-identical tuples, and invention (Thm 2.2 /
//! 6.1) nests the same objects ever deeper. Hash-consing turns those
//! trees into a DAG: children are interned before parents, so two values
//! are structurally equal **iff** their `ObjRef` ids are equal, and every
//! node's structural hash, size, set-depth, and active-domain fingerprint
//! are computed exactly once, at intern time.
//!
//! Ordering: [`ObjRef`]'s own derived `Ord` is *id order* (allocation
//! order) — meaningful only as an arbitrary total order for hash maps.
//! The canonical *structural* order of values (atoms < tuples < sets,
//! lexicographic — the order that defines canonical set form, trace
//! streams, and checkpoint payloads) is exposed as [`Pool::cmp_refs`],
//! which agrees bit-for-bit with `Value`'s derived `Ord` while
//! short-circuiting on id-equal subtrees. See DESIGN.md §15.
//!
//! Concurrency: the pool is sharded 16 ways by structural hash, each
//! shard behind its own `RwLock`, so `uset-par` workers intern
//! concurrently without serializing on one lock. Records are
//! append-only (`Arc`-shared), so readers hold a lock only long enough
//! to clone an `Arc`, never across recursion — no lock-order hazards.
//! Ids are deterministic *within* one interleaving but not across runs;
//! nothing observable (states, stats, traces, checkpoints) ever depends
//! on id values, only on id *equality*, which is interleaving-free.
//!
//! The pool is always on. It is a representation, not a semantics: states,
//! work counters, trace bytes and checkpoint payloads never encode an id,
//! and the golden digests (`tests/fixpoint_golden.rs`,
//! `tests/ivm_golden.rs`) pin them.

use crate::atom::Atom;
use crate::flatten::Inventor;
use crate::value::Value;
use std::cell::RefCell;
use std::cmp::Ordering as CmpOrd;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Shard count (must be a power of two; 16 keeps par workers at widths
/// 1–8 from serializing while keeping the array small).
const SHARD_COUNT: usize = 16;
/// Bits of an [`ObjRef`] holding the shard number.
const SHARD_BITS: u32 = 4;
/// Bits of an [`ObjRef`] holding the within-shard index.
const IDX_BITS: u32 = 32 - SHARD_BITS;
/// Mask extracting the within-shard index.
const IDX_MASK: u32 = (1 << IDX_BITS) - 1;

/// A copyable id naming one interned object in the global [`Pool`].
///
/// Equality of ids is structural equality of the objects they name.
/// The derived `Ord` is **id order** (allocation order), suitable for
/// hash/sort containers but unrelated to the canonical structural order
/// of values — use [`Pool::cmp_refs`] for that.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjRef(u32);

impl ObjRef {
    fn new(shard: usize, idx: usize) -> ObjRef {
        debug_assert!(shard < SHARD_COUNT);
        assert!(
            idx <= IDX_MASK as usize,
            "intern pool shard overflow (2^{IDX_BITS} objects)"
        );
        ObjRef(((shard as u32) << IDX_BITS) | idx as u32)
    }

    fn shard(self) -> usize {
        (self.0 >> IDX_BITS) as usize
    }

    fn idx(self) -> usize {
        (self.0 & IDX_MASK) as usize
    }

    /// The raw 32-bit id (diagnostics only; ids are process-local).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A fast non-cryptographic hasher (FxHash-style multiply-rotate mix) —
/// the workspace has no external hash crates, and SipHash's per-probe
/// cost defeats the point of id-keyed lookups.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`] — use for maps keyed on [`ObjRef`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// One mixing step of the structural hash.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_SEED)
}

/// Finalizer spreading entropy into the high (shard-selecting) bits.
#[inline]
fn finalize(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// Variant seeds keeping atom/tuple/set hashes in distinct families.
const TAG_ATOM: u64 = 0x11;
const TAG_TUPLE: u64 = 0x22;
const TAG_SET: u64 = 0x33;

/// Metadata of a leaf atom node.
fn atom_meta(a: Atom) -> Meta {
    Meta {
        hash: finalize(mix(TAG_ATOM, a.id())),
        size: 1,
        depth: 0,
        adom_fp: 1u64 << (finalize(a.id()) & 63),
        invented: Inventor::is_invented(a),
    }
}

/// Cached per-node metadata, computed once at intern time.
#[derive(Clone, Copy, Debug)]
pub struct Meta {
    /// 64-bit structural hash (equal values hash equal; used for shard
    /// selection and bucket lookup).
    pub hash: u64,
    /// Structural size — the number of constructor nodes, exactly
    /// [`Value::size`].
    pub size: u64,
    /// Set-nesting depth, exactly [`Value::set_depth`] — the quantity
    /// the U031 invention-depth lint and Theorem 2.2's hierarchy bound.
    pub depth: u32,
    /// 64-bit Bloom fingerprint of the active domain: bit `mix(a) & 63`
    /// set for every atom `a` in `adom`. A clear bit proves absence; a
    /// set bit is only a maybe.
    pub adom_fp: u64,
    /// True iff the object mentions any invented surrogate atom
    /// ([`Inventor::is_invented`]) — lets the invention semantics strip
    /// and test without re-walking `adom`.
    pub invented: bool,
}

/// One interned node: children are ids, so structure is a DAG.
#[derive(PartialEq, Eq, Debug)]
enum Node {
    Atom(Atom),
    Tuple(Box<[ObjRef]>),
    /// Members in canonical *structural* order (ascending, distinct).
    Set(Box<[ObjRef]>),
}

/// An interned record: node plus its cached metadata.
#[derive(Debug)]
struct Rec {
    node: Node,
    meta: Meta,
}

/// The child ids of one interned tuple ([`Pool::tuple_items`]).
pub struct TupleItems(Arc<Rec>);

impl std::ops::Deref for TupleItems {
    type Target = [ObjRef];
    fn deref(&self) -> &[ObjRef] {
        match &self.0.node {
            Node::Tuple(ch) => ch,
            _ => unreachable!("TupleItems wraps tuple nodes only"),
        }
    }
}

#[derive(Default)]
struct ShardInner {
    /// Structural hash → candidate indices (collisions are rare; each
    /// candidate is confirmed by node equality, which is id-equality of
    /// children and therefore O(arity), never a deep walk).
    by_hash: HashMap<u64, Vec<u32>, FxBuildHasher>,
    /// Append-only record store; `Arc` so readers can drop the lock
    /// before recursing.
    recs: Vec<Arc<Rec>>,
}

#[derive(Default)]
struct Shard {
    inner: RwLock<ShardInner>,
}

/// Cumulative pool counters (process-global, monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Distinct objects stored (intern misses).
    pub objects_interned: u64,
    /// Intern calls answered by an existing record.
    pub intern_hits: u64,
    /// Estimated heap bytes the hits avoided re-allocating (each hit
    /// saves roughly one node's worth of storage).
    pub bytes_shared_estimate: u64,
}

impl InternStats {
    /// Counter movement since an earlier snapshot (for per-evaluation
    /// attribution).
    pub fn delta_since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            objects_interned: self.objects_interned - earlier.objects_interned,
            intern_hits: self.intern_hits - earlier.intern_hits,
            bytes_shared_estimate: self.bytes_shared_estimate - earlier.bytes_shared_estimate,
        }
    }
}

/// The hash-consing pool. One process-global instance ([`Pool::global`])
/// is shared by every engine and every `uset-par` worker.
pub struct Pool {
    shards: [Shard; SHARD_COUNT],
    objects_interned: AtomicU64,
    intern_hits: AtomicU64,
    bytes_shared: AtomicU64,
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Interning is always on; there is nothing to switch. This stays only
/// for callers written when it could be switched off, which pin it on.
pub fn set_enabled(on: bool) {
    assert!(on, "interning is always on");
}

/// Rough per-node heap footprint used for `bytes_shared_estimate`.
fn node_bytes(node: &Node) -> u64 {
    match node {
        Node::Atom(_) => 16,
        Node::Tuple(ch) | Node::Set(ch) => 48 + 4 * ch.len() as u64,
    }
}

/// Entries kept in the per-thread whole-value memo before it is cleared.
const MEMO_CAP: usize = 8192;

thread_local! {
    /// Per-thread memo of whole-value intern results against the global
    /// pool: `value → (id, rough bytes a re-intern would have walked)`.
    /// The pool is append-only and ids are stable for the process
    /// lifetime, so entries never go stale — the cap only bounds memory.
    /// This turns the hot "re-intern a value the engine keeps probing"
    /// case (sidecar membership tests, `fast_*` metadata reads) into one
    /// tree hash plus one equality check, with no shard locking at all.
    static MEMO: RefCell<HashMap<Value, (ObjRef, u64), FxBuildHasher>> =
        RefCell::new(HashMap::default());
}

impl Pool {
    fn new() -> Pool {
        Pool {
            shards: Default::default(),
            objects_interned: AtomicU64::new(0),
            intern_hits: AtomicU64::new(0),
            bytes_shared: AtomicU64::new(0),
        }
    }

    /// The process-global pool.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(Pool::new)
    }

    /// Current cumulative counters.
    pub fn stats(&self) -> InternStats {
        InternStats {
            objects_interned: self.objects_interned.load(Ordering::Relaxed),
            intern_hits: self.intern_hits.load(Ordering::Relaxed),
            bytes_shared_estimate: self.bytes_shared.load(Ordering::Relaxed),
        }
    }

    fn rec(&self, r: ObjRef) -> Arc<Rec> {
        let guard = self.shards[r.shard()]
            .inner
            .read()
            .expect("pool shard poisoned");
        Arc::clone(&guard.recs[r.idx()])
    }

    /// The cached metadata of an interned object.
    pub fn meta(&self, r: ObjRef) -> Meta {
        self.rec(r).meta
    }

    /// Store (or find) a node with precomputed metadata.
    fn intern_node(&self, node: Node, meta: Meta) -> ObjRef {
        let shard_no = (meta.hash >> (64 - SHARD_BITS)) as usize & (SHARD_COUNT - 1);
        let shard = &self.shards[shard_no];
        {
            let guard = shard.inner.read().expect("pool shard poisoned");
            if let Some(ids) = guard.by_hash.get(&meta.hash) {
                for &i in ids {
                    if guard.recs[i as usize].node == node {
                        self.intern_hits.fetch_add(1, Ordering::Relaxed);
                        self.bytes_shared
                            .fetch_add(node_bytes(&node), Ordering::Relaxed);
                        return ObjRef::new(shard_no, i as usize);
                    }
                }
            }
        }
        let mut guard = shard.inner.write().expect("pool shard poisoned");
        // Re-probe under the write lock: another thread may have interned
        // the same node between our read and write sections.
        if let Some(ids) = guard.by_hash.get(&meta.hash) {
            for &i in ids {
                if guard.recs[i as usize].node == node {
                    self.intern_hits.fetch_add(1, Ordering::Relaxed);
                    self.bytes_shared
                        .fetch_add(node_bytes(&node), Ordering::Relaxed);
                    return ObjRef::new(shard_no, i as usize);
                }
            }
        }
        let idx = guard.recs.len();
        let r = ObjRef::new(shard_no, idx);
        guard.by_hash.entry(meta.hash).or_default().push(idx as u32);
        guard.recs.push(Arc::new(Rec { node, meta }));
        self.objects_interned.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Intern an atom.
    pub fn intern_atom(&self, a: Atom) -> ObjRef {
        self.intern_node(Node::Atom(a), atom_meta(a))
    }

    fn combine_meta(&self, tag: u64, children: &[ObjRef], is_set: bool) -> Meta {
        let mut hash = mix(tag, children.len() as u64);
        let mut size = 1u64;
        let mut depth = 0u32;
        let mut adom_fp = 0u64;
        let mut invented = false;
        for &c in children {
            let m = self.meta(c);
            hash = mix(hash, m.hash);
            size += m.size;
            depth = depth.max(m.depth);
            adom_fp |= m.adom_fp;
            invented |= m.invented;
        }
        if is_set {
            depth += 1;
        }
        Meta {
            hash: finalize(hash),
            size,
            depth,
            adom_fp,
            invented,
        }
    }

    /// Intern a tuple node from already-interned children.
    pub fn tuple_of(&self, children: &[ObjRef]) -> ObjRef {
        let meta = self.combine_meta(TAG_TUPLE, children, false);
        self.intern_node(Node::Tuple(children.into()), meta)
    }

    /// Intern a set node from children already in ascending structural
    /// order with no duplicates (the canonical form `BTreeSet` iteration
    /// yields).
    pub fn set_of_sorted(&self, children: Vec<ObjRef>) -> ObjRef {
        debug_assert!(
            children
                .windows(2)
                .all(|w| self.cmp_refs(w[0], w[1]) == CmpOrd::Less),
            "set children must be strictly ascending in structural order"
        );
        let meta = self.combine_meta(TAG_SET, &children, true);
        self.intern_node(Node::Set(children.into_boxed_slice()), meta)
    }

    /// Intern a value (children before parents). Repeated calls on
    /// structurally equal values return the same id.
    pub fn intern(&self, v: &Value) -> ObjRef {
        if let Value::Atom(a) = v {
            return self.intern_atom(*a);
        }
        // The memo is keyed against the global pool's ids; a privately
        // constructed pool (tests) skips it.
        if !std::ptr::eq(self, Pool::global()) {
            return self.intern_with_meta(v).0;
        }
        if let Some((r, bytes)) = MEMO.with(|m| m.borrow().get(v).copied()) {
            self.intern_hits.fetch_add(1, Ordering::Relaxed);
            self.bytes_shared.fetch_add(bytes, Ordering::Relaxed);
            return r;
        }
        let (r, meta) = self.intern_with_meta(v);
        MEMO.with(|m| {
            let mut m = m.borrow_mut();
            if m.len() >= MEMO_CAP {
                m.clear();
            }
            // ~48 bytes per constructor node is the same rough footprint
            // `node_bytes` charges, summed over the whole tree.
            m.insert(v.clone(), (r, 48 * meta.size));
        });
        r
    }

    /// Recursive intern carrying each child's [`Meta`] up the call, so a
    /// parent combines metadata from values already in hand instead of
    /// re-reading (and re-locking) its children's shard records.
    fn intern_with_meta(&self, v: &Value) -> (ObjRef, Meta) {
        match v {
            Value::Atom(a) => {
                let meta = atom_meta(*a);
                (self.intern_node(Node::Atom(*a), meta), meta)
            }
            Value::Tuple(items) => self.intern_children(items.iter(), items.len(), false),
            // BTreeSet iterates ascending in the canonical structural
            // order, which is exactly the order set nodes store.
            Value::Set(items) => self.intern_children(items.iter(), items.len(), true),
        }
    }

    fn intern_children<'a, I>(&self, items: I, len: usize, is_set: bool) -> (ObjRef, Meta)
    where
        I: Iterator<Item = &'a Value>,
    {
        let tag = if is_set { TAG_SET } else { TAG_TUPLE };
        let mut children = Vec::with_capacity(len);
        let mut hash = mix(tag, len as u64);
        let mut size = 1u64;
        let mut depth = 0u32;
        let mut adom_fp = 0u64;
        let mut invented = false;
        for c in items {
            let (r, m) = self.intern_with_meta(c);
            children.push(r);
            hash = mix(hash, m.hash);
            size += m.size;
            depth = depth.max(m.depth);
            adom_fp |= m.adom_fp;
            invented |= m.invented;
        }
        if is_set {
            depth += 1;
        }
        let meta = Meta {
            hash: finalize(hash),
            size,
            depth,
            adom_fp,
            invented,
        };
        let children = children.into_boxed_slice();
        let node = if is_set {
            Node::Set(children)
        } else {
            Node::Tuple(children)
        };
        (self.intern_node(node, meta), meta)
    }

    /// Intern a value without recording it in this thread's memo: for a
    /// caller that interns each value once and keeps the id, so the memo
    /// would only hold a clone nobody probes again.
    pub fn intern_once(&self, v: &Value) -> ObjRef {
        self.intern_with_meta(v).0
    }

    /// The child ids of a tuple node, in order; `None` for an atom or a
    /// set. The maintenance engine matches indexed rows against a rule
    /// literal through these, without rebuilding the row.
    pub fn tuple_items(&self, r: ObjRef) -> Option<TupleItems> {
        let rec = self.rec(r);
        matches!(rec.node, Node::Tuple(_)).then_some(TupleItems(rec))
    }

    /// Reconstruct the tree-form value an id names.
    pub fn resolve(&self, r: ObjRef) -> Value {
        let rec = self.rec(r);
        match &rec.node {
            Node::Atom(a) => Value::Atom(*a),
            Node::Tuple(ch) => Value::Tuple(ch.iter().map(|&c| self.resolve(c)).collect()),
            Node::Set(ch) => {
                let members: BTreeSet<Value> = ch.iter().map(|&c| self.resolve(c)).collect();
                debug_assert_eq!(members.len(), ch.len());
                Value::Set(members)
            }
        }
    }

    /// Canonical structural comparison of two interned objects — agrees
    /// bit-for-bit with `Value`'s derived `Ord` (atoms < tuples < sets,
    /// lexicographic within a variant) while short-circuiting on
    /// id-equal subtrees.
    pub fn cmp_refs(&self, a: ObjRef, b: ObjRef) -> CmpOrd {
        if a == b {
            return CmpOrd::Equal;
        }
        let (ra, rb) = (self.rec(a), self.rec(b));
        match (&ra.node, &rb.node) {
            (Node::Atom(x), Node::Atom(y)) => x.cmp(y),
            (Node::Atom(_), _) => CmpOrd::Less,
            (_, Node::Atom(_)) => CmpOrd::Greater,
            (Node::Tuple(x), Node::Tuple(y)) => self.cmp_ref_seq(x, y),
            (Node::Tuple(_), Node::Set(_)) => CmpOrd::Less,
            (Node::Set(_), Node::Tuple(_)) => CmpOrd::Greater,
            (Node::Set(x), Node::Set(y)) => self.cmp_ref_seq(x, y),
        }
    }

    /// Lexicographic comparison of child sequences, then length — the
    /// order `Vec<Value>` and `BTreeSet<Value>` derive.
    fn cmp_ref_seq(&self, xs: &[ObjRef], ys: &[ObjRef]) -> CmpOrd {
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            match self.cmp_refs(x, y) {
                CmpOrd::Equal => continue,
                ord => return ord,
            }
        }
        xs.len().cmp(&ys.len())
    }

    /// Membership `elem ∈ set` by binary search over the set node's
    /// sorted children; `None` if `set` is not a set node.
    pub fn set_contains_ref(&self, set: ObjRef, elem: ObjRef) -> Option<bool> {
        let rec = self.rec(set);
        let Node::Set(ch) = &rec.node else {
            return None;
        };
        Some(ch.binary_search_by(|&c| self.cmp_refs(c, elem)).is_ok())
    }

    /// Union of two interned sets as a sorted-merge over child ids,
    /// deduplicating by id equality; `None` if either is not a set.
    /// This is the pool-level n-way merge behind `Value::union_into` —
    /// shared subtrees are compared by id, never re-walked.
    pub fn union_sets(&self, a: ObjRef, b: ObjRef) -> Option<ObjRef> {
        if a == b {
            let rec = self.rec(a);
            return matches!(rec.node, Node::Set(_)).then_some(a);
        }
        let (ra, rb) = (self.rec(a), self.rec(b));
        let (Node::Set(xs), Node::Set(ys)) = (&ra.node, &rb.node) else {
            return None;
        };
        if xs.is_empty() {
            return Some(b);
        }
        if ys.is_empty() {
            return Some(a);
        }
        let mut merged = Vec::with_capacity(xs.len() + ys.len());
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            match self.cmp_refs(xs[i], ys[j]) {
                CmpOrd::Less => {
                    merged.push(xs[i]);
                    i += 1;
                }
                CmpOrd::Greater => {
                    merged.push(ys[j]);
                    j += 1;
                }
                CmpOrd::Equal => {
                    merged.push(xs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&xs[i..]);
        merged.extend_from_slice(&ys[j..]);
        Some(self.set_of_sorted(merged))
    }

    /// Total objects currently stored (diagnostics).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.read().expect("pool shard poisoned").recs.len())
            .sum()
    }

    /// True if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The cached [`Meta`] of `v` when this thread has already interned it
/// (whole-value memo hit). Deliberately read-only: a metadata query must
/// never be the *reason* a value gets interned — on enumeration-heavy
/// paths most values are seen exactly once, and interning each would
/// cost a full locked tree walk to answer a question a plain early-exit
/// walk answers cheaper.
fn memo_meta(v: &Value) -> Option<Meta> {
    if let Value::Atom(a) = v {
        return Some(atom_meta(*a));
    }
    let r = MEMO.with(|m| m.borrow().get(v).map(|&(r, _)| r))?;
    Some(Pool::global().meta(r))
}

/// Fast path for [`Value::size`]: answered from cached metadata when the
/// value is already pooled on this thread, the plain recursive walk
/// otherwise.
pub fn fast_size(v: &Value) -> usize {
    match memo_meta(v) {
        Some(m) => m.size as usize,
        None => v.size(),
    }
}

/// Fast path for [`Value::set_depth`] (the U031 invention-depth lint's
/// hot query), answered from cached metadata when the value is already
/// pooled on this thread.
pub fn fast_set_depth(v: &Value) -> usize {
    match memo_meta(v) {
        Some(m) => m.depth as usize,
        None => v.set_depth(),
    }
}

/// Fast path for "does `v` mention an invented surrogate atom" — the
/// invention semantics' strip/witness test. Falls back to walking `adom`
/// when the value is not already pooled on this thread.
pub fn fast_has_invented(v: &Value) -> bool {
    match memo_meta(v) {
        Some(m) => m.invented,
        None => v.adom().into_iter().any(Inventor::is_invented),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, set, tuple};

    fn pool() -> &'static Pool {
        Pool::global()
    }

    #[test]
    fn intern_is_idempotent_and_resolve_roundtrips() {
        let v = set([tuple([atom(1), atom(2)]), atom(3), set([atom(1)])]);
        let a = pool().intern(&v);
        let b = pool().intern(&v.clone());
        assert_eq!(a, b, "structurally equal values share one id");
        assert_eq!(pool().resolve(a), v);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let a = pool().intern(&set([atom(1)]));
        let b = pool().intern(&set([atom(2)]));
        let c = pool().intern(&tuple([atom(1)]));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn meta_matches_value_accessors() {
        let vals = [
            atom(7),
            tuple([atom(1), set([atom(2), atom(3)])]),
            set([set([set([atom(9)])]), atom(0)]),
            Value::empty_set(),
        ];
        for v in vals {
            let m = pool().meta(pool().intern(&v));
            assert_eq!(m.size as usize, v.size(), "size of {v}");
            assert_eq!(m.depth as usize, v.set_depth(), "depth of {v}");
            for a in v.adom() {
                let bit = 1u64 << (finalize(a.id()) & 63);
                assert_ne!(m.adom_fp & bit, 0, "adom fingerprint covers {a}");
            }
            assert!(!m.invented);
        }
        let mut inv = Inventor::new();
        let surrogate = Value::Atom(inv.fresh());
        let wrapped = set([tuple([atom(1), surrogate])]);
        assert!(pool().meta(pool().intern(&wrapped)).invented);
    }

    #[test]
    fn cmp_refs_agrees_with_value_ord() {
        let samples = [
            atom(0),
            atom(5),
            Value::Atom(Atom::named("z")),
            tuple([atom(1)]),
            tuple([atom(1), atom(2)]),
            tuple([atom(2)]),
            Value::empty_set(),
            set([atom(1)]),
            set([atom(1), atom(2)]),
            set([tuple([atom(1), atom(9)])]),
            set([set([atom(3)])]),
        ];
        for x in &samples {
            for y in &samples {
                let rx = pool().intern(x);
                let ry = pool().intern(y);
                assert_eq!(
                    pool().cmp_refs(rx, ry),
                    x.cmp(y),
                    "structural order of {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn set_contains_ref_is_membership() {
        let s = set([atom(1), tuple([atom(2), atom(3)]), set([atom(4)])]);
        let sid = pool().intern(&s);
        for member in [atom(1), tuple([atom(2), atom(3)]), set([atom(4)])] {
            let m = pool().intern(&member);
            assert_eq!(pool().set_contains_ref(sid, m), Some(true), "{member} ∈ s");
        }
        let absent = pool().intern(&atom(99));
        assert_eq!(pool().set_contains_ref(sid, absent), Some(false));
        let not_set = pool().intern(&atom(1));
        assert_eq!(pool().set_contains_ref(not_set, absent), None);
    }

    #[test]
    fn union_sets_matches_value_union() {
        let a = set([atom(1), atom(3), set([atom(5)])]);
        let b = set([atom(2), atom(3), tuple([atom(4), atom(4)])]);
        let (ra, rb) = (pool().intern(&a), pool().intern(&b));
        let u = pool().union_sets(ra, rb).unwrap();
        let expect = Value::set_of(
            a.as_set()
                .unwrap()
                .iter()
                .chain(b.as_set().unwrap().iter())
                .cloned(),
        );
        assert_eq!(pool().resolve(u), expect);
        // Degenerate shapes: empty sides share, non-sets refuse.
        let empty = pool().intern(&Value::empty_set());
        assert_eq!(pool().union_sets(ra, empty), Some(ra));
        assert_eq!(pool().union_sets(empty, rb), Some(rb));
        assert_eq!(pool().union_sets(ra, pool().intern(&atom(1))), None);
    }

    #[test]
    fn hits_count_and_bytes_accumulate() {
        let before = pool().stats();
        let v = set([tuple([atom(1001), atom(1002)]), atom(1003)]);
        pool().intern(&v);
        let mid = pool().stats().delta_since(&before);
        assert!(mid.objects_interned >= 1, "first intern stores nodes");
        pool().intern(&v);
        let after = pool().stats().delta_since(&before);
        assert!(
            after.intern_hits > mid.intern_hits,
            "re-interning the same value hits"
        );
        assert!(after.bytes_shared_estimate > mid.bytes_shared_estimate);
    }

    #[test]
    fn concurrent_interning_agrees_on_ids() {
        let v = set([
            tuple([atom(41), atom(42)]),
            set([atom(43), tuple([atom(44), atom(45)])]),
        ]);
        let ids: Vec<ObjRef> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let v = v.clone();
                    s.spawn(move || Pool::global().intern(&v))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(pool().resolve(ids[0]), v);
    }

    #[test]
    fn fast_paths_agree_with_value_walks_before_and_after_interning() {
        let mut inv = Inventor::new();
        let surrogate = Value::Atom(inv.fresh());
        for v in [
            set([set([atom(77)]), atom(78)]),
            set([tuple([atom(79), surrogate])]),
        ] {
            let invented = v.adom().into_iter().any(Inventor::is_invented);
            // a memo miss walks the value; a memo hit reads cached meta
            for _ in 0..2 {
                assert_eq!(fast_size(&v), v.size());
                assert_eq!(fast_set_depth(&v), v.set_depth());
                assert_eq!(fast_has_invented(&v), invented);
                pool().intern(&v);
            }
            assert!(memo_meta(&v).is_some(), "interned on this thread");
        }
    }

    #[test]
    #[should_panic(expected = "interning is always on")]
    fn set_enabled_refuses_to_switch_interning_off() {
        set_enabled(false);
    }
}
