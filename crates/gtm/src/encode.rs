//! Relational input/output conventions for (G)TMs.
//!
//! An input instance is "enumerated in some order e and placed
//! left-justified on the first tape" (§3). We use the paper's punctuation:
//! a relation is `( [a,b] , [c,d] , … )` with atoms as single domain tape
//! symbols; a database with several relations is the concatenation of its
//! relations' encodings in schema order. Output decoding inverts this for a
//! single flat relation; anything unparsable is the undefined output.

use crate::gtm::{Cell, TapeSym, BLANK, PUNCT};
use uset_object::{Atom, Database, Instance, Schema, Value};

const COMMA: Cell = Cell::Work(1);
const OPEN: Cell = Cell::Work(2);
const CLOSE: Cell = Cell::Work(3);
const OPEN_TUPLE: Cell = Cell::Work(4);
const CLOSE_TUPLE: Cell = Cell::Work(5);

/// Errors raised by encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// A member was not a flat tuple of atoms.
    NotFlat,
    /// The enumeration order did not cover the instance exactly.
    BadOrder,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::NotFlat => write!(f, "instance is not a flat relation"),
            EncodeError::BadOrder => write!(f, "enumeration order does not match instance"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The relational encoder: `db`'s relations in schema order, each listed
/// in canonical member order, or in the per-relation order `orders`
/// gives (each order must list its instance's members exactly once).
/// The tape is in relational form (see [`Cell`]).
pub(crate) fn encode_cells(
    db: &Database,
    schema: &Schema,
    orders: Option<&[Vec<Value>]>,
) -> Result<Vec<Cell>, EncodeError> {
    let entries = schema.entries();
    if orders.is_some_and(|o| o.len() != entries.len()) {
        return Err(EncodeError::BadOrder);
    }
    let mut out = Vec::new();
    for (i, (name, _)) in entries.iter().enumerate() {
        let inst = db.get_ref(name);
        match orders {
            Some(orders) => {
                check_order(inst, &orders[i])?;
                encode_relation(&mut out, orders[i].iter())?;
            }
            None => encode_relation(&mut out, inst.into_iter().flat_map(Instance::iter))?,
        }
    }
    Ok(out)
}

/// `order` lists exactly the members of `inst` (absent: empty), each once.
fn check_order(inst: Option<&Instance>, order: &[Value]) -> Result<(), EncodeError> {
    let len = inst.map_or(0, Instance::len);
    if order.len() != len || !order.iter().all(|v| inst.is_some_and(|i| i.contains(v))) {
        return Err(EncodeError::BadOrder);
    }
    let distinct: std::collections::BTreeSet<&Value> = order.iter().collect();
    if distinct.len() != order.len() {
        return Err(EncodeError::BadOrder);
    }
    Ok(())
}

/// Encode one relation listing `( t1 , t2 , … )`, its rows in the order
/// given.
fn encode_relation<'a>(
    out: &mut Vec<Cell>,
    rows: impl Iterator<Item = &'a Value>,
) -> Result<(), EncodeError> {
    out.push(OPEN);
    for (i, v) in rows.enumerate() {
        if i > 0 {
            out.push(COMMA);
        }
        encode_tuple(out, v)?;
    }
    out.push(CLOSE);
    Ok(())
}

/// Encode one flat tuple `[a1, …, ak]`.
fn encode_tuple(out: &mut Vec<Cell>, v: &Value) -> Result<(), EncodeError> {
    let items = v.as_tuple().ok_or(EncodeError::NotFlat)?;
    out.push(OPEN_TUPLE);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(COMMA);
        }
        let a = item.as_atom().ok_or(EncodeError::NotFlat)?;
        out.push(Cell::Dom(a));
    }
    out.push(CLOSE_TUPLE);
    Ok(())
}

/// The tape symbols of a relational-form tape.
fn tape_syms(tape: &[Cell]) -> Vec<TapeSym> {
    tape.iter()
        .map(|&c| match c {
            Cell::Work(w) => TapeSym::work(PUNCT[w as usize]),
            Cell::Dom(a) => TapeSym::Dom(a),
            Cell::Const(_) => unreachable!("relational cells hold no Const"),
        })
        .collect()
}

/// Encode a flat instance under an explicit enumeration order.
///
/// `order` must list exactly the members of `inst` (each once).
pub fn encode_instance_ordered(
    inst: &Instance,
    order: &[Value],
) -> Result<Vec<TapeSym>, EncodeError> {
    check_order(Some(inst), order)?;
    let mut out = Vec::new();
    encode_relation(&mut out, order.iter())?;
    Ok(tape_syms(&out))
}

/// Encode a flat instance in canonical member order.
pub fn encode_instance(inst: &Instance) -> Result<Vec<TapeSym>, EncodeError> {
    let mut out = Vec::new();
    encode_relation(&mut out, inst.iter())?;
    Ok(tape_syms(&out))
}

/// Encode a database under a schema: relations in schema order, each in
/// canonical member order.
pub fn encode_database(db: &Database, schema: &Schema) -> Result<Vec<TapeSym>, EncodeError> {
    Ok(tape_syms(&encode_cells(db, schema, None)?))
}

/// Encode a database with a per-relation enumeration order (for the
/// input-order-independence check).
pub fn encode_database_ordered(
    db: &Database,
    schema: &Schema,
    orders: &[Vec<Value>],
) -> Result<Vec<TapeSym>, EncodeError> {
    Ok(tape_syms(&encode_cells(db, schema, Some(orders))?))
}

/// Decode a tape holding exactly one flat relation listing. `None` when the
/// tape is not a well-formed listing (the machine's output is then `?`).
pub fn decode_instance(tape: &[TapeSym]) -> Option<Instance> {
    // any working symbol outside the punctuation reads as no punctuation
    let other = Cell::Work(PUNCT.len() as u32);
    let cells: Vec<Cell> = tape
        .iter()
        .map(|s| match s {
            TapeSym::Work(w) => PUNCT
                .iter()
                .position(|p| p == w)
                .map_or(other, |i| Cell::Work(i as u32)),
            TapeSym::Dom(a) => Cell::Dom(*a),
        })
        .collect();
    decode_cells(&cells)
}

/// The relational decoder: [`decode_instance`] on a relational-form tape.
pub(crate) fn decode_cells(tape: &[Cell]) -> Option<Instance> {
    let mut pos = 0usize;
    let inst = parse_relation(tape, &mut pos)?;
    // trailing content (other than blanks) invalidates the output
    tape[pos..].iter().all(|&c| c == BLANK).then_some(inst)
}

fn expect(tape: &[Cell], pos: &mut usize, c: Cell) -> Option<()> {
    if tape.get(*pos) == Some(&c) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_relation(tape: &[Cell], pos: &mut usize) -> Option<Instance> {
    expect(tape, pos, OPEN)?;
    let mut inst = Instance::empty();
    if expect(tape, pos, CLOSE).is_some() {
        return Some(inst);
    }
    loop {
        inst.insert(parse_tuple(tape, pos)?);
        if expect(tape, pos, CLOSE).is_some() {
            return Some(inst);
        }
        expect(tape, pos, COMMA)?;
    }
}

fn parse_tuple(tape: &[Cell], pos: &mut usize) -> Option<Value> {
    expect(tape, pos, OPEN_TUPLE)?;
    let mut items: Vec<Value> = Vec::new();
    loop {
        let Some(&Cell::Dom(a)) = tape.get(*pos) else {
            return None;
        };
        items.push(Value::Atom(a));
        *pos += 1;
        if expect(tape, pos, CLOSE_TUPLE).is_some() {
            return Some(Value::Tuple(items));
        }
        expect(tape, pos, COMMA)?;
    }
}

/// All enumeration orders of an instance (|I|! of them — small inputs only),
/// for exhaustive input-order-independence checks.
pub fn all_orders(inst: &Instance) -> Vec<Vec<Value>> {
    let members: Vec<Value> = inst.iter().cloned().collect();
    let mut out = Vec::new();
    let mut cur = members;
    permute(&mut cur, 0, &mut out);
    out
}

fn permute(items: &mut Vec<Value>, k: usize, out: &mut Vec<Vec<Value>>) {
    if k == items.len() {
        out.push(items.clone());
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, out);
        items.swap(k, i);
    }
}

/// Convenience: the atoms appearing on a tape.
pub fn tape_atoms(tape: &[TapeSym]) -> Vec<Atom> {
    tape.iter()
        .filter_map(|s| match s {
            TapeSym::Dom(a) => Some(*a),
            TapeSym::Work(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, tuple};

    fn rel() -> Instance {
        Instance::from_rows([[atom(1), atom(2)], [atom(3), atom(4)]])
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tape = encode_instance(&rel()).unwrap();
        assert_eq!(decode_instance(&tape), Some(rel()));
    }

    #[test]
    fn empty_relation_roundtrip() {
        let tape = encode_instance(&Instance::empty()).unwrap();
        assert_eq!(tape, vec![TapeSym::work("("), TapeSym::work(")")]);
        assert_eq!(decode_instance(&tape), Some(Instance::empty()));
    }

    #[test]
    fn decoding_ignores_trailing_blanks_only() {
        let mut tape = encode_instance(&rel()).unwrap();
        tape.push(TapeSym::blank());
        tape.push(TapeSym::blank());
        assert_eq!(decode_instance(&tape), Some(rel()));
        tape.push(TapeSym::work("["));
        assert_eq!(decode_instance(&tape), None);
    }

    #[test]
    fn malformed_tapes_decode_to_none() {
        assert_eq!(decode_instance(&[]), None);
        assert_eq!(decode_instance(&[TapeSym::work("(")]), None);
        let missing_bracket = vec![
            TapeSym::work("("),
            TapeSym::dom(Atom::new(1)),
            TapeSym::work(")"),
        ];
        assert_eq!(decode_instance(&missing_bracket), None);
    }

    #[test]
    fn order_must_cover_instance_exactly() {
        let r = rel();
        let short = vec![tuple([atom(1), atom(2)])];
        assert_eq!(
            encode_instance_ordered(&r, &short),
            Err(EncodeError::BadOrder)
        );
        let dup = vec![tuple([atom(1), atom(2)]), tuple([atom(1), atom(2)])];
        assert_eq!(
            encode_instance_ordered(&r, &dup),
            Err(EncodeError::BadOrder)
        );
    }

    #[test]
    fn different_orders_encode_same_instance() {
        let r = rel();
        let orders = all_orders(&r);
        assert_eq!(orders.len(), 2);
        for o in orders {
            let tape = encode_instance_ordered(&r, &o).unwrap();
            assert_eq!(decode_instance(&tape), Some(r.clone()));
        }
    }

    #[test]
    fn non_flat_instances_rejected() {
        let bad = Instance::from_values([uset_object::set([atom(1)])]);
        assert_eq!(encode_instance(&bad), Err(EncodeError::NotFlat));
        let bare = Instance::from_values([atom(1)]);
        assert_eq!(encode_instance(&bare), Err(EncodeError::NotFlat));
    }

    #[test]
    fn database_encoding_concatenates_relations() {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows([[atom(1)]]));
        db.set("S", Instance::from_rows([[atom(2)]]));
        let schema = Schema::flat([("R", 1), ("S", 1)]);
        let tape = encode_database(&db, &schema).unwrap();
        let text: Vec<String> = tape.iter().map(|s| s.to_string()).collect();
        assert_eq!(text.join(""), "([a1])([a2])");
    }
}
