//! Deterministic byte codec for checkpoint payloads.
//!
//! Everything a checkpoint stores is reduced to bytes through this module
//! so the durability layer ([`crate::Session`]) can stay agnostic of what
//! it persists. Two properties matter more than compactness:
//!
//! 1. **Determinism** — the same logical state encodes to the same bytes
//!    in every process. All engine states are ordered containers
//!    (`BTreeMap`/`BTreeSet`), so iteration order is canonical; the only
//!    hazard is [`Atom`]: named atoms carry *process-local* interner ids
//!    assigned in first-use order, so they are encoded **by name** and
//!    re-interned on decode. Anonymous (invented) atoms are encoded by
//!    raw id, which is stable because invention is deterministic.
//! 2. **Fail-closed decoding** — a decoder never panics and never reads
//!    past its input; every malformed prefix surfaces as a
//!    [`CodecError`]. Corruption is normally caught by the record CRC
//!    first, but the decoder is the second line of defense.
//!
//! Integers are fixed-width little-endian (`u64`), strings and byte
//! blobs are length-prefixed. No varints: the payloads are dwarfed by
//! the states they encode, and fixed widths keep torn-record detection
//! trivial.

//! **Structural sharing**: an encoder deduplicates repeated subtrees —
//! the first occurrence of a large node (structural size ≥
//! [`SHARE_MIN_SIZE`]) is written in full and assigned the next
//! *post-order sequence number*; later occurrences write tag 3 + that
//! number. The numbering depends only on structural content and encode
//! order (pool ids are **never** written), so the bytes stay
//! deterministic across processes and parallel widths. Decoders also
//! read pure tree streams (tags 0–2 only), the format of checkpoints
//! written before encoders shared subtrees.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use uset_object::intern::FxBuildHasher;
use uset_object::{Atom, Database, EvalStats, Instance, ObjRef, Pool, Value};

/// Minimum structural size ([`Value::size`]) for a subtree to join the
/// sharing table. Small nodes (atoms, short flat tuples) cost more to
/// track than a backref saves, and keeping the table sparse bounds the
/// decoder's bookkeeping.
const SHARE_MIN_SIZE: u64 = 8;

/// A decoding failure: offset and a static description of what was
/// expected. The byte offset points at the first unreadable position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which decoding failed.
    pub at: usize,
    /// What the decoder was trying to read.
    pub expected: &'static str,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint decode: {} at byte {}",
            self.expected, self.at
        )
    }
}

impl std::error::Error for CodecError {}

/// Byte-appending encoder. All `put_*` methods are infallible.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    /// Subtree-sharing table: pool id → post-order sequence number of
    /// the node's first occurrence in this stream.
    share: HashMap<ObjRef, u64, FxBuildHasher>,
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Take the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// One raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Fixed-width little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to u64.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// An [`Atom`]: named atoms by name (process-portable), anonymous
    /// atoms by raw id.
    pub fn put_atom(&mut self, a: Atom) {
        match a.name() {
            Some(name) => {
                self.put_u8(1);
                self.put_str(&name);
            }
            None => {
                self.put_u8(0);
                self.put_u64(a.id());
            }
        }
    }

    /// A [`Value`], as a DAG on the wire: each distinct subtree of size
    /// ≥ [`SHARE_MIN_SIZE`] is written once; repeats become tag-3
    /// backrefs to its post-order sequence number.
    pub fn put_value(&mut self, v: &Value) {
        let pool = Pool::global();
        let id = pool.intern(v);
        let shareable = pool.meta(id).size >= SHARE_MIN_SIZE;
        if shareable {
            if let Some(&seq) = self.share.get(&id) {
                self.put_u8(3);
                self.put_u64(seq);
                return;
            }
        }
        match v {
            Value::Atom(a) => {
                self.put_u8(0);
                self.put_atom(*a);
            }
            Value::Tuple(items) => {
                self.put_u8(1);
                self.put_usize(items.len());
                for item in items {
                    self.put_value(item);
                }
            }
            Value::Set(items) => {
                self.put_u8(2);
                self.put_usize(items.len());
                for item in items {
                    self.put_value(item);
                }
            }
        }
        if shareable {
            // Post-order numbering: children (encoded just above) took
            // earlier numbers, exactly mirroring the decoder, which can
            // only record a node after constructing it.
            let seq = self.share.len() as u64;
            self.share.insert(id, seq);
        }
    }

    /// An [`Instance`] (ordered set of values).
    pub fn put_instance(&mut self, inst: &Instance) {
        self.put_usize(inst.len());
        for v in inst.iter() {
            self.put_value(v);
        }
    }

    /// A whole [`Database`] (ordered relation name → instance map).
    pub fn put_database(&mut self, db: &Database) {
        let rels: Vec<_> = db.iter().collect();
        self.put_usize(rels.len());
        for (name, inst) in rels {
            self.put_str(name);
            self.put_instance(inst);
        }
    }

    /// A name → instance map (the shape of strata deltas and algebra
    /// environments).
    pub fn put_instance_map(&mut self, m: &BTreeMap<String, Instance>) {
        self.put_usize(m.len());
        for (name, inst) in m {
            self.put_str(name);
            self.put_instance(inst);
        }
    }

    /// [`EvalStats`] work counters.
    pub fn put_stats(&mut self, s: &EvalStats) {
        self.put_u64(s.rounds);
        self.put_u64(s.rules_fired);
        self.put_u64(s.tuples_derived);
        self.put_u64(s.index_probes);
        self.put_u64(s.scan_fallbacks);
        self.put_usize(s.peak_facts);
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    b: &'a [u8],
    i: usize,
    /// Decoded subtrees of size ≥ [`SHARE_MIN_SIZE`] in post-order —
    /// the mirror of the encoder's sharing table. Tree-only streams
    /// (written before encoders shared subtrees) fill it too and simply
    /// never refer back into it.
    seen: Vec<Value>,
}

impl<'a> Dec<'a> {
    /// Decoder over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec {
            b: bytes,
            i: 0,
            seen: Vec::new(),
        }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.i
    }

    /// True when every byte was consumed (complete decodes should end
    /// here; trailing garbage means a mismatched payload).
    pub fn done(&self) -> bool {
        self.i == self.b.len()
    }

    fn err(&self, expected: &'static str) -> CodecError {
        CodecError {
            at: self.i,
            expected,
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        let end = self.i.checked_add(n).ok_or_else(|| self.err(what))?;
        if end > self.b.len() {
            return Err(self.err(what));
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Fixed-width little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// A u64 narrowed to usize, rejecting values that cannot fit (or are
    /// implausibly larger than the remaining input, which catches
    /// corrupted length prefixes before they drive huge allocations).
    pub fn len_prefix(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        let n = usize::try_from(v).map_err(|_| self.err("length prefix"))?;
        // any honest length-prefixed collection needs ≥1 byte per element
        if n > self.b.len() - self.i.min(self.b.len()) {
            return Err(self.err("length prefix"));
        }
        Ok(n)
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.len_prefix()?;
        self.take(n, "bytes")
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.err("utf-8 string"))
    }

    /// An [`Atom`]; named atoms are re-interned in this process.
    pub fn atom(&mut self) -> Result<Atom, CodecError> {
        match self.u8()? {
            1 => Ok(Atom::named(&self.str()?)),
            0 => Ok(Atom::from_raw(self.u64()?)),
            _ => Err(self.err("atom tag")),
        }
    }

    /// Record a constructed node in the sharing table iff the encoder
    /// would have (same size criterion, same post-order) — keeping both
    /// numberings aligned without any table data on the wire.
    fn record_shared(&mut self, v: &Value) {
        if v.size() as u64 >= SHARE_MIN_SIZE {
            self.seen.push(v.clone());
        }
    }

    /// A [`Value`] tree (or DAG via tag-3 backrefs).
    pub fn value(&mut self) -> Result<Value, CodecError> {
        match self.u8()? {
            0 => Ok(Value::Atom(self.atom()?)),
            1 => {
                let n = self.len_prefix()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                let v = Value::Tuple(items);
                self.record_shared(&v);
                Ok(v)
            }
            2 => {
                let n = self.len_prefix()?;
                let mut items = BTreeSet::new();
                for _ in 0..n {
                    items.insert(self.value()?);
                }
                let v = Value::Set(items);
                self.record_shared(&v);
                Ok(v)
            }
            3 => {
                // A backref resolves to an already-decoded subtree; it
                // is *not* re-recorded (the encoder inserts each node
                // only once). An out-of-range number is corruption.
                let seq = self.u64()?;
                usize::try_from(seq)
                    .ok()
                    .and_then(|k| self.seen.get(k).cloned())
                    .ok_or_else(|| self.err("backref"))
            }
            _ => Err(self.err("value tag")),
        }
    }

    /// An [`Instance`].
    pub fn instance(&mut self) -> Result<Instance, CodecError> {
        let n = self.len_prefix()?;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(self.value()?);
        }
        Ok(Instance::from_values(vals))
    }

    /// A [`Database`].
    pub fn database(&mut self) -> Result<Database, CodecError> {
        let n = self.len_prefix()?;
        let mut db = Database::empty();
        for _ in 0..n {
            let name = self.str()?;
            let inst = self.instance()?;
            db.set(&name, inst);
        }
        Ok(db)
    }

    /// A name → instance map.
    pub fn instance_map(&mut self) -> Result<BTreeMap<String, Instance>, CodecError> {
        let n = self.len_prefix()?;
        let mut m = BTreeMap::new();
        for _ in 0..n {
            let name = self.str()?;
            let inst = self.instance()?;
            m.insert(name, inst);
        }
        Ok(m)
    }

    /// [`EvalStats`] work counters. Only the six work counters are
    /// persisted: the advisory `intern_*` attribution legitimately
    /// differs between a killed and a resumed process (the pool
    /// re-warms), so a resumed run reconstructs it as zero.
    pub fn stats(&mut self) -> Result<EvalStats, CodecError> {
        Ok(EvalStats {
            rounds: self.u64()?,
            rules_fired: self.u64()?,
            tuples_derived: self.u64()?,
            index_probes: self.u64()?,
            scan_fallbacks: self.u64()?,
            peak_facts: usize::try_from(self.u64()?).map_err(|_| self.err("peak_facts"))?,
            ..EvalStats::default()
        })
    }
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, hand-rolled —
/// the durability layer must not pull in an external hash crate. Uses
/// slicing-by-8 so checksumming a snapshot stays well under the commit
/// budget that the `ablation/ckpt_overhead` bench enforces.
pub fn crc32(bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(c[4..].try_into().expect("4 bytes"));
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][n] = c;
        n += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut n = 0;
        while n < 256 {
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][(t[k - 1][n] & 0xFF) as usize];
            n += 1;
        }
        k += 1;
    }
    t
}

/// FNV-1a 64-bit hash — used for run *fingerprints* (does this
/// checkpoint dir belong to the computation now starting?), not for
/// integrity (that is [`crc32`]'s job).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::atom;

    #[test]
    fn crc32_known_vectors() {
        // standard IEEE CRC-32 check values
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_sliced_matches_bytewise_reference_at_every_length() {
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc: u32 = 0xFFFF_FFFF;
            for &b in bytes {
                let mut c = (crc ^ b as u32) & 0xFF;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                crc = (crc >> 8) ^ c;
            }
            !crc
        }
        // a bytewise model double-checks the slicing-by-8 fast path,
        // including every remainder length 0..8
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn value_roundtrip_including_named_atoms() {
        let v = Value::Set(
            [
                Value::Atom(Atom::named("alpha")),
                Value::Tuple(vec![atom(3), Value::Atom(Atom::named("beta"))]),
                Value::Set([atom(1), atom(2)].into_iter().collect()),
            ]
            .into_iter()
            .collect(),
        );
        let mut e = Enc::new();
        e.put_value(&v);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.done());
    }

    #[test]
    fn database_roundtrip() {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..5u64).map(|i| [atom(i), atom(i + 1)])),
        );
        db.set(
            "N",
            Instance::from_values(vec![Value::Atom(Atom::named("x"))]),
        );
        let mut e = Enc::new();
        e.put_database(&db);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.database().unwrap(), db);
        assert!(d.done());
    }

    #[test]
    fn stats_roundtrip() {
        let s = EvalStats {
            rounds: 1,
            rules_fired: 2,
            tuples_derived: 3,
            index_probes: 4,
            scan_fallbacks: 5,
            peak_facts: 6,
            ..EvalStats::default()
        };
        let mut e = Enc::new();
        e.put_stats(&s);
        let bytes = e.finish();
        assert_eq!(Dec::new(&bytes).stats().unwrap(), s);
    }

    #[test]
    fn decoder_rejects_truncation_at_every_boundary() {
        let mut e = Enc::new();
        e.put_value(&Value::Tuple(vec![
            Value::Atom(Atom::named("long-ish-name")),
            atom(7),
        ]));
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.value().is_err(), "cut at {cut} must not decode");
        }
        // and the full input decodes
        assert!(Dec::new(&bytes).value().is_ok());
    }

    #[test]
    fn decoder_rejects_bad_tags_and_absurd_lengths() {
        let mut d = Dec::new(&[9]);
        assert!(d.value().is_err());
        // a length prefix larger than the remaining input is rejected
        // before any allocation
        let mut e = Enc::new();
        e.put_u64(u64::MAX);
        let bytes = e.finish();
        assert!(Dec::new(&bytes).len_prefix().is_err());
    }

    /// A pure tree stream (tags 0–2, no backrefs), the format of
    /// checkpoints written before encoders shared subtrees.
    fn tree(e: &mut Enc, v: &Value) {
        match v {
            Value::Atom(a) => {
                e.put_u8(0);
                e.put_atom(*a);
            }
            Value::Tuple(items) => {
                e.put_u8(1);
                e.put_usize(items.len());
                items.iter().for_each(|item| tree(e, item));
            }
            Value::Set(items) => {
                e.put_u8(2);
                e.put_usize(items.len());
                items.iter().for_each(|item| tree(e, item));
            }
        }
    }

    /// A tuple of four atoms and a three-atom set: size 9, so it is
    /// shared, while its set member (size 4) is not.
    fn big() -> Value {
        use uset_object::{set, tuple};
        tuple([
            atom(1),
            atom(2),
            atom(3),
            atom(4),
            set([atom(5), atom(6), atom(7)]),
        ])
    }

    /// A tree-only stream whose subtrees repeat in full decodes to its
    /// value: checkpoints already on disk stay readable.
    #[test]
    fn tree_only_stream_decodes() {
        use uset_object::tuple;
        let v = Value::Set([tuple([atom(0), big()]), big()].into_iter().collect());
        let mut e = Enc::new();
        tree(&mut e, &v);
        let bytes = e.finish();
        let mut shared = Enc::new();
        shared.put_value(&v);
        assert!(bytes.len() > shared.finish().len(), "big is written twice");
        let mut d = Dec::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.done());
    }

    /// A subtree that repeats (the powerset shape) is written in full
    /// once; each later occurrence is a tag-3 backref to its post-order
    /// number, and the stream decodes to the same value.
    #[test]
    fn shared_encoding_roundtrips_and_dedups() {
        use uset_object::tuple;
        assert!(big().size() as u64 >= SHARE_MIN_SIZE);
        // canonical member order: [0, big] < big < [9, big]
        let v = Value::Set(
            [tuple([atom(0), big()]), tuple([atom(9), big()]), big()]
                .into_iter()
                .collect(),
        );
        let mut e = Enc::new();
        e.put_value(&v);
        let bytes = e.finish();

        // big is the first shareable node to complete: number 0
        let mut want = Enc::new();
        want.put_u8(2);
        want.put_usize(3);
        want.put_u8(1);
        want.put_usize(2);
        tree(&mut want, &atom(0));
        tree(&mut want, &big());
        want.put_u8(3);
        want.put_u64(0);
        want.put_u8(1);
        want.put_usize(2);
        tree(&mut want, &atom(9));
        want.put_u8(3);
        want.put_u64(0);
        assert_eq!(bytes, want.finish());

        let mut d = Dec::new(&bytes);
        assert_eq!(d.value().unwrap(), v);
        assert!(d.done());
    }

    /// A backref pointing past the table (corruption) fails closed.
    #[test]
    fn decoder_rejects_dangling_backref() {
        let mut e = Enc::new();
        e.put_u8(3);
        e.put_u64(0); // nothing recorded yet: dangling
        let bytes = e.finish();
        assert!(Dec::new(&bytes).value().is_err());
    }

    /// Instances and databases dedup across members/relations too (one
    /// shared table per encoder, not per value).
    #[test]
    fn shared_encoding_spans_containers() {
        use uset_object::set;
        let member = set([
            atom(1),
            atom(2),
            atom(3),
            atom(4),
            atom(5),
            atom(6),
            atom(7),
        ]);
        let row = |i: u64| Value::Tuple(vec![atom(i), member.clone()]);
        let inst = Instance::from_values([row(1), row(2), row(3)]);
        let mut e = Enc::new();
        e.put_instance(&inst);
        let bytes = e.finish();

        // the member (size 8) is number 0, the first row number 1
        let mut want = Enc::new();
        want.put_usize(3);
        tree(&mut want, &row(1));
        for i in [2, 3] {
            want.put_u8(1);
            want.put_usize(2);
            tree(&mut want, &atom(i));
            want.put_u8(3);
            want.put_u64(0);
        }
        assert_eq!(bytes, want.finish());

        let mut d = Dec::new(&bytes);
        assert_eq!(d.instance().unwrap(), inst);
        assert!(d.done());
    }
}
