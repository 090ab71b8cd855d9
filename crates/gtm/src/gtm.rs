//! The generic Turing machine: definition, validation, simulation.
//!
//! A GTM is the six-tuple `M = (K, W, C, δ, s0, h)` of the paper. The
//! builder takes states and working symbols as strings, constants as
//! [`Atom`]s, and δ as `(state, pat1, pat2)` templates with actions; the
//! templates stay as the machine's source form ([`Gtm::transitions`]).
//! Matching a concrete pair of tape symbols against the template space is
//! deterministic because the template patterns partition the concrete
//! symbol space: working symbols and constants match exactly, any other
//! domain element matches `α`, and on tape 2 the same element as tape 1
//! matches `α` and a different one matches `β`.
//!
//! [`GtmBuilder::build`] compiles δ once. States, working symbols and
//! constants are numbered (the six punctuation symbols `_ , ( ) [ ]`
//! have the fixed ids 0–5), and δ becomes a dense table from
//! `state × class₁ × class₂` to an action, where a tape-1 class is a
//! working symbol, a constant or `α` and a tape-2 class adds `β`. A run
//! steps on tapes of `Copy` cells holding those ids, so a step looks up
//! one table entry and allocates nothing. The string forms ([`TapeSym`],
//! [`Config`]) appear only where a run starts, resumes, trips, commits
//! a checkpoint or ends.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, Budget, EngineId, Exhausted, Governor};
use uset_object::{Atom, EvalStats};

/// Engine label carried by every GTM trace event.
///
/// Machine steps are far too fine-grained to trace one-by-one, so
/// [`Gtm::run_governed`] emits one `RoundEnd` every
/// [`TRACE_STRIDE`] steps (and none in between): `round` is the
/// cumulative step count and `facts` is the longer tape's length —
/// the same quantity the value-size cap governs.
const ENGINE: EngineId = EngineId::Gtm;

/// Machine steps between strided `RoundEnd` trace events.
const TRACE_STRIDE: u64 = 1024;

/// A concrete tape symbol: a working symbol or a domain element.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TapeSym {
    /// A working (punctuation) symbol from the finite set `W`.
    Work(String),
    /// An element of **U** (a constant of `C` or an arbitrary atom).
    Dom(Atom),
}

impl TapeSym {
    /// The distinguished blank working symbol.
    pub fn blank() -> TapeSym {
        TapeSym::Work("_".to_owned())
    }

    /// A working symbol.
    pub fn work(s: &str) -> TapeSym {
        TapeSym::Work(s.to_owned())
    }

    /// A domain symbol.
    pub fn dom(a: Atom) -> TapeSym {
        TapeSym::Dom(a)
    }
}

impl fmt::Display for TapeSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeSym::Work(s) => write!(f, "{s}"),
            TapeSym::Dom(a) => write!(f, "{a}"),
        }
    }
}

/// Head movement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Move {
    /// One square left (tapes are one-way: at square 0 the head stays put).
    L,
    /// One square right.
    R,
    /// Stay (the paper's `-`).
    S,
}

/// A read pattern in a transition template.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum SymPat {
    /// Exact working symbol.
    Work(String),
    /// Exact constant from `C`.
    Const(Atom),
    /// Any element of `U − C` (binds α; on tape 2, *the same* element as
    /// tape 1's α).
    Alpha,
    /// Any element of `U − C` distinct from α (tape 2 only, and only when
    /// tape 1 reads α).
    Beta,
}

/// A write symbol in a transition template.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SymOut {
    /// Write a working symbol.
    Work(String),
    /// Write a constant from `C`.
    Const(Atom),
    /// Write the element bound to α.
    Alpha,
    /// Write the element bound to β.
    Beta,
}

/// The action part of a transition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Action {
    /// Next state.
    pub to: String,
    /// Symbol written on tape 1.
    pub write1: SymOut,
    /// Symbol written on tape 2.
    pub write2: SymOut,
    /// Tape-1 head move.
    pub move1: Move,
    /// Tape-2 head move.
    pub move2: Move,
}

/// A validation error raised when assembling a GTM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GtmError {
    /// δ mentions a state outside `K`.
    UnknownState(String),
    /// δ mentions a working symbol outside `W`.
    UnknownWork(String),
    /// δ mentions a constant outside `C`.
    UnknownConst(Atom),
    /// `β` read on tape 2 without `α` on tape 1 (violates the paper's side
    /// condition `b = β only if a = α`), or `α` read on tape 2 alone.
    UnboundGenericRead,
    /// An output mentions `α`/`β` that the reads did not bind.
    UnboundGenericWrite,
    /// A transition is defined for the halting state.
    TransitionFromHalt,
    /// Duplicate template key (would make δ a relation, not a function).
    DuplicateTransition,
}

impl fmt::Display for GtmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtmError::UnknownState(s) => write!(f, "unknown state {s:?}"),
            GtmError::UnknownWork(s) => write!(f, "unknown working symbol {s:?}"),
            GtmError::UnknownConst(a) => write!(f, "unknown constant {a}"),
            GtmError::UnboundGenericRead => {
                write!(f, "β (or lone tape-2 α) read without tape-1 α")
            }
            GtmError::UnboundGenericWrite => {
                write!(f, "output uses α/β that the reads did not bind")
            }
            GtmError::TransitionFromHalt => write!(f, "transition defined from halt state"),
            GtmError::DuplicateTransition => write!(f, "duplicate transition template"),
        }
    }
}

impl std::error::Error for GtmError {}

/// A validated generic Turing machine.
#[derive(Clone)]
pub struct Gtm {
    states: BTreeSet<String>,
    work: BTreeSet<String>,
    constants: BTreeSet<Atom>,
    start: String,
    halt: String,
    delta: BTreeMap<(String, SymPat, SymPat), Action>,
    table: Table,
}

/// The six source fields, printed as a derived `Debug` prints them. The
/// checkpoint fingerprint hashes this string, so the compiled table
/// stays out of it.
impl fmt::Debug for Gtm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gtm")
            .field("states", &self.states)
            .field("work", &self.work)
            .field("constants", &self.constants)
            .field("start", &self.start)
            .field("halt", &self.halt)
            .field("delta", &self.delta)
            .finish()
    }
}

/// The punctuation working symbols of the relational tape encoding, in
/// the order of their fixed ids `0..6`. [`GtmBuilder::new`] registers
/// them; the ids are reserved whether or not a machine does.
pub(crate) const PUNCT: [&str; 6] = ["_", ",", "(", ")", "[", "]"];

/// The blank cell.
pub(crate) const BLANK: Cell = Cell::Work(0);

/// A tape cell: a [`TapeSym`] with its working symbol or constant
/// replaced by its id.
///
/// A tape in *relational form* holds only [`PUNCT`] ids and `Dom` atoms,
/// and needs no machine to read: the tape codec writes and reads this
/// form. A running machine numbers the constants of `C` as `Const`, so
/// its `Dom` cells are exactly the elements of `U − C`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Cell {
    /// A working symbol: [`PUNCT`] first, then the rest of `W` in order,
    /// then the foreign symbols (outside `W`) one run's input brought.
    Work(u32),
    /// A constant of `C`, by its position in `C`.
    Const(u32),
    /// An element of **U**.
    Dom(Atom),
}

/// δ compiled for stepping: states, working symbols and constants by id,
/// and one action slot per `state × class₁ × class₂`.
///
/// The classes of tape 1 are the working symbol ids, then the constant
/// ids, then α; tape 2 has one more class, β. A table entry therefore
/// matches exactly the concrete pairs its template matches. With `c`
/// tape-1 classes the table has `|K| · c · (c + 1)` slots: 728 for
/// [`crate::machines::swap_pairs_gtm`], at most a few thousand for the
/// machines in this crate.
#[derive(Clone)]
struct Table {
    /// State names by id, in `K`'s order.
    states: Vec<String>,
    /// Working symbol names by id: [`PUNCT`], then the rest of `W`.
    work: Vec<String>,
    /// Constants by id, in `C`'s order.
    consts: Vec<Atom>,
    start: u32,
    halt: u32,
    /// Tape-1 class count (α is the last tape-1 class, β the one after).
    classes: usize,
    /// Action ids by [`Table::slot`]; [`NO_ACTION`] where δ is undefined.
    index: Vec<u32>,
    actions: Vec<Step>,
}

/// The empty table slot: no template matches.
const NO_ACTION: u32 = u32::MAX;

/// A compiled [`Action`].
#[derive(Clone, Copy)]
struct Step {
    to: u32,
    write1: Write,
    write2: Write,
    move1: Move,
    move2: Move,
}

/// A compiled [`SymOut`]: a fixed cell, or the element bound to α or β.
#[derive(Clone, Copy)]
enum Write {
    Cell(Cell),
    Alpha,
    Beta,
}

/// A machine configuration on cells: [`Config`] with ids.
struct Machine {
    state: u32,
    tape1: Vec<Cell>,
    tape2: Vec<Cell>,
    head1: usize,
    head2: usize,
}

impl Table {
    /// Number a validated machine's symbols and compile its δ.
    fn compile(
        states: &BTreeSet<String>,
        work: &BTreeSet<String>,
        constants: &BTreeSet<Atom>,
        start: &str,
        halt: &str,
        delta: &BTreeMap<(String, SymPat, SymPat), Action>,
    ) -> Table {
        let rest = work.iter().filter(|w| !PUNCT.contains(&w.as_str()));
        let work: Vec<String> = PUNCT
            .iter()
            .map(|&p| p.to_owned())
            .chain(rest.cloned())
            .collect();
        let classes = work.len() + constants.len() + 1;
        let mut table = Table {
            states: states.iter().cloned().collect(),
            work,
            consts: constants.iter().copied().collect(),
            start: 0,
            halt: 0,
            classes,
            index: vec![NO_ACTION; states.len() * classes * (classes + 1)],
            actions: Vec::with_capacity(delta.len()),
        };
        for ((from, r1, r2), a) in delta {
            let at = table.slot(table.state(from), table.pattern(r1), table.pattern(r2));
            table.index[at] = table.actions.len() as u32;
            let step = Step {
                to: table.state(&a.to),
                write1: table.output(&a.write1),
                write2: table.output(&a.write2),
                move1: a.move1,
                move2: a.move2,
            };
            table.actions.push(step);
        }
        table.start = table.state(start);
        table.halt = table.state(halt);
        table
    }

    fn slot(&self, state: u32, class1: usize, class2: usize) -> usize {
        (state as usize * self.classes + class1) * (self.classes + 1) + class2
    }

    /// The id of a validated state.
    fn state(&self, name: &str) -> u32 {
        self.state_id(name).expect("validated: state in K")
    }

    fn state_id(&self, name: &str) -> Option<u32> {
        let i = self
            .states
            .binary_search_by(|s| s.as_str().cmp(name))
            .ok()?;
        Some(i as u32)
    }

    fn work_id(&self, name: &str) -> Option<u32> {
        let i = match PUNCT.iter().position(|&p| p == name) {
            Some(i) => i,
            None => {
                let rest = &self.work[PUNCT.len()..];
                PUNCT.len() + rest.binary_search_by(|w| w.as_str().cmp(name)).ok()?
            }
        };
        Some(i as u32)
    }

    /// The class a validated read pattern matches.
    fn pattern(&self, pat: &SymPat) -> usize {
        match pat {
            SymPat::Work(w) => self.work_index(w),
            SymPat::Const(c) => self.class(self.number(Cell::Dom(*c))),
            SymPat::Alpha => self.classes - 1,
            SymPat::Beta => self.classes,
        }
    }

    fn output(&self, out: &SymOut) -> Write {
        match out {
            SymOut::Work(w) => Write::Cell(Cell::Work(self.work_index(w) as u32)),
            SymOut::Const(c) => Write::Cell(self.number(Cell::Dom(*c))),
            SymOut::Alpha => Write::Alpha,
            SymOut::Beta => Write::Beta,
        }
    }

    /// The id of a validated working symbol.
    fn work_index(&self, name: &str) -> usize {
        self.work_id(name).expect("validated: symbol in W") as usize
    }

    /// The tape-1 class of a numbered cell; a foreign working symbol
    /// gets a class past every slot, which no template names.
    fn class(&self, cell: Cell) -> usize {
        match cell {
            Cell::Work(w) if (w as usize) < self.work.len() => w as usize,
            Cell::Work(_) => usize::MAX,
            Cell::Const(k) => self.work.len() + k as usize,
            Cell::Dom(_) => self.classes - 1,
        }
    }

    /// Number a relational-form cell: an atom of `C` becomes `Const`.
    fn number(&self, cell: Cell) -> Cell {
        match cell {
            Cell::Dom(a) => match self.consts.binary_search(&a) {
                Ok(k) => Cell::Const(k as u32),
                Err(_) => cell,
            },
            other => other,
        }
    }

    /// The relational form of a numbered cell: a `Const` becomes its atom.
    fn relational(&self, cell: Cell) -> Cell {
        match cell {
            Cell::Const(k) => Cell::Dom(self.consts[k as usize]),
            other => other,
        }
    }

    /// Execute one step; false if no template matches (stuck).
    fn step(&self, m: &mut Machine) -> bool {
        let c1 = read(&m.tape1, m.head1);
        let c2 = read(&m.tape2, m.head2);
        let alpha = match c1 {
            Cell::Dom(a) => Some(a),
            _ => None,
        };
        let (class2, beta) = match (c2, alpha) {
            (Cell::Dom(b), Some(a)) if a == b => (self.classes - 1, None),
            (Cell::Dom(b), Some(_)) => (self.classes, Some(b)),
            // tape 2 reads an element of U − C while tape 1 binds no α:
            // δ cannot name it, so no transition applies
            (Cell::Dom(_), None) => return false,
            (fixed, _) => (self.class(fixed), None),
        };
        let class1 = self.class(c1);
        if class1 >= self.classes || class2 > self.classes {
            return false;
        }
        let id = self.index[self.slot(m.state, class1, class2)];
        if id == NO_ACTION {
            return false;
        }
        let step = self.actions[id as usize];
        let cell = |w: Write| match w {
            Write::Cell(c) => c,
            Write::Alpha => Cell::Dom(alpha.expect("validated: α bound")),
            Write::Beta => Cell::Dom(beta.expect("validated: β bound")),
        };
        write(&mut m.tape1, m.head1, cell(step.write1));
        write(&mut m.tape2, m.head2, cell(step.write2));
        m.head1 = step_head(m.head1, step.move1);
        m.head2 = step_head(m.head2, step.move2);
        m.state = step.to;
        true
    }
}

/// The conversions between one run's cells and the public [`TapeSym`]
/// and [`Config`] forms: the machine's numbering plus the foreign working
/// symbols of the run's input tape, numbered after `W`.
struct Syms<'m> {
    table: &'m Table,
    foreign: Vec<String>,
}

impl Syms<'_> {
    /// The numbered cell of a tape symbol, or `None` for a working symbol
    /// this run has not numbered.
    fn cell(&self, s: &TapeSym) -> Option<Cell> {
        match s {
            TapeSym::Dom(a) => Some(self.table.number(Cell::Dom(*a))),
            TapeSym::Work(w) => {
                let id = match self.table.work_id(w) {
                    Some(id) => id as usize,
                    None => self.table.work.len() + self.foreign.iter().position(|f| f == w)?,
                };
                Some(Cell::Work(id as u32))
            }
        }
    }

    /// [`Syms::cell`], numbering a foreign working symbol on first sight.
    fn enter(&mut self, s: &TapeSym) -> Cell {
        if let Some(cell) = self.cell(s) {
            return cell;
        }
        let TapeSym::Work(w) = s else {
            unreachable!("every atom has a cell")
        };
        self.foreign.push(w.clone());
        Cell::Work((self.table.work.len() + self.foreign.len() - 1) as u32)
    }

    fn sym(&self, cell: Cell) -> TapeSym {
        match self.table.relational(cell) {
            Cell::Work(w) => {
                let name = match self.table.work.get(w as usize) {
                    Some(name) => name,
                    None => &self.foreign[w as usize - self.table.work.len()],
                };
                TapeSym::Work(name.clone())
            }
            Cell::Dom(a) => TapeSym::Dom(a),
            Cell::Const(_) => unreachable!("relational cells hold no Const"),
        }
    }

    fn tape(&self, cells: &[Cell]) -> Vec<TapeSym> {
        cells.iter().map(|&c| self.sym(c)).collect()
    }

    fn config(&self, m: &Machine) -> Config {
        Config {
            state: self.table.states[m.state as usize].clone(),
            tape1: self.tape(&m.tape1),
            tape2: self.tape(&m.tape2),
            head1: m.head1,
            head2: m.head2,
        }
    }

    /// The cell form of a recovered configuration; `None` if it names a
    /// state or working symbol this run does not know.
    fn machine(&self, cfg: &Config) -> Option<Machine> {
        let tape = |t: &[TapeSym]| t.iter().map(|s| self.cell(s)).collect::<Option<Vec<_>>>();
        Some(Machine {
            state: self.table.state_id(&cfg.state)?,
            tape1: tape(&cfg.tape1)?,
            tape2: tape(&cfg.tape2)?,
            head1: cfg.head1,
            head2: cfg.head2,
        })
    }
}

/// How a run on cells ended, short of a trip.
enum Ended {
    /// Tape 1 at the halting state, in relational form, trailing blanks
    /// trimmed.
    Halted(Vec<Cell>),
    /// No template matched.
    Stuck { state: String, steps: u64 },
}

/// Builder for [`Gtm`], performing the paper's well-formedness checks.
#[derive(Clone, Debug, Default)]
pub struct GtmBuilder {
    states: BTreeSet<String>,
    work: BTreeSet<String>,
    constants: BTreeSet<Atom>,
    start: Option<String>,
    halt: Option<String>,
    delta: Vec<((String, SymPat, SymPat), Action)>,
}

impl GtmBuilder {
    /// Fresh builder with the required punctuation working symbols and the
    /// blank pre-registered.
    pub fn new() -> Self {
        let mut b = GtmBuilder::default();
        for s in ["_", ",", "(", ")", "[", "]"] {
            b.work.insert(s.to_owned());
        }
        b
    }

    /// Register states.
    pub fn states<S: Into<String>, I: IntoIterator<Item = S>>(mut self, names: I) -> Self {
        self.states.extend(names.into_iter().map(Into::into));
        self
    }

    /// Register a single (possibly computed) state name.
    pub fn state_owned(mut self, name: String) -> Self {
        self.states.insert(name);
        self
    }

    /// Register extra working symbols.
    pub fn work_symbols<S: Into<String>, I: IntoIterator<Item = S>>(mut self, names: I) -> Self {
        self.work.extend(names.into_iter().map(Into::into));
        self
    }

    /// Register a single (possibly computed) working symbol.
    pub fn work_symbol_owned(mut self, name: String) -> Self {
        self.work.insert(name);
        self
    }

    /// Register constants `C ⊂ U`.
    pub fn constants<I: IntoIterator<Item = Atom>>(mut self, atoms: I) -> Self {
        self.constants.extend(atoms);
        self
    }

    /// Set the start state (auto-registered).
    pub fn start(mut self, s: &str) -> Self {
        self.states.insert(s.to_owned());
        self.start = Some(s.to_owned());
        self
    }

    /// Set the halting state (auto-registered).
    pub fn halt(mut self, s: &str) -> Self {
        self.states.insert(s.to_owned());
        self.halt = Some(s.to_owned());
        self
    }

    /// Add a transition template.
    #[allow(clippy::too_many_arguments)]
    pub fn transition(
        mut self,
        from: impl Into<String>,
        read1: SymPat,
        read2: SymPat,
        to: impl Into<String>,
        write1: SymOut,
        write2: SymOut,
        move1: Move,
        move2: Move,
    ) -> Self {
        self.delta.push((
            (from.into(), read1, read2),
            Action {
                to: to.into(),
                write1,
                write2,
                move1,
                move2,
            },
        ));
        self
    }

    /// Validate and build.
    pub fn build(self) -> Result<Gtm, GtmError> {
        let start = self.start.ok_or(GtmError::UnknownState("<start>".into()))?;
        let halt = self.halt.ok_or(GtmError::UnknownState("<halt>".into()))?;
        let mut delta = BTreeMap::new();
        for ((from, r1, r2), action) in self.delta {
            if !self.states.contains(&from) {
                return Err(GtmError::UnknownState(from));
            }
            if from == halt {
                return Err(GtmError::TransitionFromHalt);
            }
            if !self.states.contains(&action.to) {
                return Err(GtmError::UnknownState(action.to));
            }
            // read validity
            let alpha_bound = r1 == SymPat::Alpha;
            let beta_bound = r2 == SymPat::Beta;
            match &r1 {
                SymPat::Work(w) if !self.work.contains(w) => {
                    return Err(GtmError::UnknownWork(w.clone()))
                }
                SymPat::Const(c) if !self.constants.contains(c) => {
                    return Err(GtmError::UnknownConst(*c))
                }
                SymPat::Beta => return Err(GtmError::UnboundGenericRead),
                _ => {}
            }
            match &r2 {
                SymPat::Work(w) if !self.work.contains(w) => {
                    return Err(GtmError::UnknownWork(w.clone()))
                }
                SymPat::Const(c) if !self.constants.contains(c) => {
                    return Err(GtmError::UnknownConst(*c))
                }
                SymPat::Alpha | SymPat::Beta if !alpha_bound => {
                    return Err(GtmError::UnboundGenericRead)
                }
                _ => {}
            }
            // write validity
            for w in [&action.write1, &action.write2] {
                match w {
                    SymOut::Work(s) if !self.work.contains(s) => {
                        return Err(GtmError::UnknownWork(s.clone()))
                    }
                    SymOut::Const(c) if !self.constants.contains(c) => {
                        return Err(GtmError::UnknownConst(*c))
                    }
                    SymOut::Alpha if !alpha_bound => return Err(GtmError::UnboundGenericWrite),
                    SymOut::Beta if !beta_bound => return Err(GtmError::UnboundGenericWrite),
                    _ => {}
                }
            }
            if delta.insert((from, r1, r2), action).is_some() {
                return Err(GtmError::DuplicateTransition);
            }
        }
        if !self.states.contains(&start) {
            return Err(GtmError::UnknownState(start));
        }
        let table = Table::compile(
            &self.states,
            &self.work,
            &self.constants,
            &start,
            &halt,
            &delta,
        );
        Ok(Gtm {
            states: self.states,
            work: self.work,
            constants: self.constants,
            start,
            halt,
            delta,
            table,
        })
    }
}

/// Why a run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Reached the halting state; holds the final contents of tape 1
    /// (trailing blanks trimmed).
    Halted(Vec<TapeSym>),
    /// No transition applied (the machine is stuck — output undefined).
    Stuck {
        /// State the machine was stuck in.
        state: String,
        /// Steps executed before sticking.
        steps: u64,
    },
    /// The step bound was exhausted (possible divergence).
    FuelExhausted,
}

/// The GTM engine's exhaustion report: the partial result is the full
/// machine [`Config`] at the trip point.
pub type GtmExhausted = Exhausted<Config>;

/// A machine configuration during simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Config {
    /// Current state.
    pub state: String,
    /// Tape 1 contents (blank-extended on demand).
    pub tape1: Vec<TapeSym>,
    /// Tape 2 contents.
    pub tape2: Vec<TapeSym>,
    /// Tape-1 head position.
    pub head1: usize,
    /// Tape-2 head position.
    pub head2: usize,
}

fn put_tape_sym(e: &mut ckpt::Enc, s: &TapeSym) {
    match s {
        TapeSym::Work(w) => {
            e.put_u8(0);
            e.put_str(w);
        }
        TapeSym::Dom(a) => {
            e.put_u8(1);
            e.put_atom(*a);
        }
    }
}

fn take_tape_sym(d: &mut ckpt::Dec<'_>) -> Result<TapeSym, ckpt::CodecError> {
    match d.u8()? {
        0 => Ok(TapeSym::Work(d.str()?)),
        1 => Ok(TapeSym::Dom(d.atom()?)),
        _ => Err(ckpt::CodecError {
            at: 0,
            expected: "tape symbol tag",
        }),
    }
}

fn put_tape(e: &mut ckpt::Enc, tape: &[TapeSym]) {
    e.put_usize(tape.len());
    for s in tape {
        put_tape_sym(e, s);
    }
}

fn take_tape(d: &mut ckpt::Dec<'_>) -> Result<Vec<TapeSym>, ckpt::CodecError> {
    let n = d.len_prefix()?;
    let mut tape = Vec::with_capacity(n);
    for _ in 0..n {
        tape.push(take_tape_sym(d)?);
    }
    Ok(tape)
}

fn gtm_encode(cfg: &Config, steps: u64) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(steps);
    e.put_str(&cfg.state);
    put_tape(&mut e, &cfg.tape1);
    put_tape(&mut e, &cfg.tape2);
    e.put_u64(cfg.head1 as u64);
    e.put_u64(cfg.head2 as u64);
    e.finish()
}

/// The loop state a GTM checkpoint restores: the machine [`Config`] plus
/// the step counter, committed every [`TRACE_STRIDE`] machine steps
/// (per-step commits would dominate the run).
fn gtm_decode(rec: &ckpt::Recovered) -> Option<(Config, u64)> {
    let mut d = ckpt::Dec::new(&rec.payload);
    let steps = d.u64().ok()?;
    let state = d.str().ok()?;
    let tape1 = take_tape(&mut d).ok()?;
    let tape2 = take_tape(&mut d).ok()?;
    let head1 = d.u64().ok()? as usize;
    let head2 = d.u64().ok()? as usize;
    let cfg = Config {
        state,
        tape1,
        tape2,
        head1,
        head2,
    };
    d.done().then_some((cfg, steps))
}

impl Gtm {
    /// The start state.
    pub fn start_state(&self) -> &str {
        &self.start
    }

    /// The halting state.
    pub fn halt_state(&self) -> &str {
        &self.halt
    }

    /// The constant set `C`.
    pub fn constants(&self) -> &BTreeSet<Atom> {
        &self.constants
    }

    /// The states `K`.
    pub fn states(&self) -> &BTreeSet<String> {
        &self.states
    }

    /// The working symbols `W`.
    pub fn work_symbols(&self) -> &BTreeSet<String> {
        &self.work
    }

    /// Number of transition templates.
    pub fn template_count(&self) -> usize {
        self.delta.len()
    }

    /// Iterate the transition templates `((from, read1, read2), action)`
    /// in sorted key order. Determinism matters here: the simulations turn
    /// templates into rules, so template order becomes rule-index order in
    /// traces and provenance.
    pub fn transitions(&self) -> impl Iterator<Item = ((&String, &SymPat, &SymPat), &Action)> {
        self.delta.iter().map(|((q, r1, r2), a)| ((q, r1, r2), a))
    }

    /// Run from tape-1 contents until halt/stuck/fuel.
    ///
    /// Thin shim over [`Gtm::run_governed`] with a steps-only budget; a
    /// budget trip maps back to [`RunOutcome::FuelExhausted`].
    pub fn run(&self, tape1: Vec<TapeSym>, fuel: u64) -> RunOutcome {
        let governor = Governor::new(Budget::unlimited().with_steps(fuel));
        match self.run_governed(tape1, &governor) {
            Ok(outcome) => outcome,
            Err(_) => RunOutcome::FuelExhausted,
        }
    }

    /// Run under a [`Governor`]: each machine step charges one budget step
    /// and the larger tape length is checked against the value-size cap. A
    /// trip surrenders the exact machine [`Config`] at the trip point plus
    /// run statistics.
    pub fn run_governed(
        &self,
        tape1: Vec<TapeSym>,
        governor: &Governor,
    ) -> Result<RunOutcome, Box<GtmExhausted>> {
        let mut syms = Syms {
            table: &self.table,
            foreign: Vec::new(),
        };
        let cells = tape1.iter().map(|s| syms.enter(s)).collect();
        Ok(match self.run_cells(cells, &syms, governor)? {
            Ended::Halted(out) => RunOutcome::Halted(syms.tape(&out)),
            Ended::Stuck { state, steps } => RunOutcome::Stuck { state, steps },
        })
    }

    /// [`Gtm::run_governed`] on a tape in relational form, which the tape
    /// codec writes: the constants of `C` are numbered at entry. Returns
    /// the halted tape 1 in relational form, or `None` if the machine
    /// gets stuck.
    pub(crate) fn run_relational(
        &self,
        mut tape1: Vec<Cell>,
        governor: &Governor,
    ) -> Result<Option<Vec<Cell>>, Box<GtmExhausted>> {
        if !self.table.consts.is_empty() {
            for cell in &mut tape1 {
                *cell = self.table.number(*cell);
            }
        }
        let syms = Syms {
            table: &self.table,
            foreign: Vec::new(),
        };
        Ok(match self.run_cells(tape1, &syms, governor)? {
            Ended::Halted(out) => Some(out),
            Ended::Stuck { .. } => None,
        })
    }

    /// The one step loop. `tape1` is numbered by `syms`, which converts
    /// to the public forms where the run starts or resumes from a
    /// checkpoint, trips, commits a checkpoint, or ends.
    fn run_cells(
        &self,
        tape1: Vec<Cell>,
        syms: &Syms<'_>,
        governor: &Governor,
    ) -> Result<Ended, Box<GtmExhausted>> {
        let table = &self.table;
        // the fingerprint reads the input tape, and a fresh run moves it
        // into the machine's first configuration
        let tape1 = RefCell::new(tape1);
        let fingerprint = || self.fingerprint(&syms.tape(&tape1.borrow()));
        let decode = |rec: &ckpt::Recovered| {
            let (cfg, steps) = gtm_decode(rec)?;
            Some((syms.machine(&cfg)?, steps))
        };
        let stats = &mut EvalStats::default();
        governor.run(ENGINE, stats, fingerprint, decode, |run, stats, at| {
            let trace = &governor.trace;
            let (mut m, mut steps) = at.unwrap_or_else(|| {
                let m = Machine {
                    state: table.start,
                    tape1: tape1.take(),
                    tape2: Vec::new(),
                    head1: 0,
                    head2: 0,
                };
                (m, 0)
            });
            loop {
                if m.state == table.halt {
                    let mut out = m.tape1;
                    while out.last() == Some(&BLANK) {
                        out.pop();
                    }
                    for cell in &mut out {
                        *cell = table.relational(*cell);
                    }
                    return Ok(Ended::Halted(out));
                }
                let tape = m.tape1.len().max(m.tape2.len());
                stats.observe_facts(tape);
                let stepped = run.guard.step();
                if let Err(trip) = stepped.and_then(|()| run.guard.check_value(tape, None)) {
                    return Err(Box::new(Exhausted::new(trip, syms.config(&m), *stats)));
                }
                if !table.step(&mut m) {
                    let state = table.states[m.state as usize].clone();
                    return Ok(Ended::Stuck { state, steps });
                }
                steps += 1;
                stats.rounds += 1;
                if steps.is_multiple_of(TRACE_STRIDE) {
                    let round = run.guard.steps();
                    let tape = m.tape1.len().max(m.tape2.len()) as u64;
                    let value_hwm = run.guard.value_hwm() as u64;
                    trace.emit(|| TraceEvent::RoundEnd {
                        engine: ENGINE.as_str().into(),
                        round,
                        delta: TRACE_STRIDE,
                        facts: tape,
                        value_hwm,
                        wall_micros: 0,
                    });
                    run.commit(steps, stats, || gtm_encode(&syms.config(&m), steps));
                }
            }
        })
    }

    /// Run fingerprint tying a checkpoint directory to this machine and
    /// its input tape: δ, K, W, C, start/halt, and the initial tape-1
    /// contents all participate.
    fn fingerprint(&self, tape1: &[TapeSym]) -> u64 {
        let mut e = ckpt::Enc::new();
        e.put_str(ENGINE.as_str());
        e.put_str(&format!("{self:?}"));
        put_tape(&mut e, tape1);
        ckpt::fnv64(&e.finish())
    }
}

fn read(tape: &[Cell], head: usize) -> Cell {
    tape.get(head).copied().unwrap_or(BLANK)
}

fn write(tape: &mut Vec<Cell>, head: usize, cell: Cell) {
    if head >= tape.len() {
        tape.resize(head + 1, BLANK);
    }
    tape[head] = cell;
}

fn step_head(head: usize, mv: Move) -> usize {
    match mv {
        Move::L => head.saturating_sub(1),
        Move::R => head + 1,
        Move::S => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> Atom {
        Atom::new(i)
    }

    /// A machine that moves right over its input replacing every domain
    /// element with the constant c, halting at the first blank.
    fn overwrite_machine(c: Atom) -> Gtm {
        GtmBuilder::new()
            .start("s")
            .halt("h")
            .constants([c])
            .transition(
                "s",
                SymPat::Alpha,
                SymPat::Work("_".into()),
                "s",
                SymOut::Const(c),
                SymOut::Work("_".into()),
                Move::R,
                Move::S,
            )
            .transition(
                "s",
                SymPat::Const(c),
                SymPat::Work("_".into()),
                "s",
                SymOut::Const(c),
                SymOut::Work("_".into()),
                Move::R,
                Move::S,
            )
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn overwrite_replaces_domain_elements() {
        let c = Atom::named("gtm-c");
        let m = overwrite_machine(c);
        let tape = vec![TapeSym::dom(a(1)), TapeSym::dom(a(2)), TapeSym::dom(c)];
        match m.run(tape, 100) {
            RunOutcome::Halted(out) => {
                assert_eq!(out, vec![TapeSym::dom(c), TapeSym::dom(c), TapeSym::dom(c)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn generic_template_matches_any_non_constant() {
        let c = Atom::named("gtm-c2");
        let m = overwrite_machine(c);
        // works identically for disjoint atom sets: genericity in action
        for base in [10u64, 500, 77777] {
            let tape = vec![TapeSym::dom(a(base)), TapeSym::dom(a(base + 1))];
            match m.run(tape, 100) {
                RunOutcome::Halted(out) => assert_eq!(out.len(), 2),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn copy_to_tape2_and_back_uses_alpha() {
        // copy first symbol to tape 2, then write it back one square right
        let m = GtmBuilder::new()
            .start("s")
            .halt("h")
            .states(["back"])
            .transition(
                "s",
                SymPat::Alpha,
                SymPat::Work("_".into()),
                "back",
                SymOut::Work("_".into()),
                SymOut::Alpha, // stash α on tape 2
                Move::R,
                Move::S,
            )
            .transition(
                "back",
                SymPat::Work("_".into()),
                SymPat::Alpha, // re-read the stashed element (tape1 blank is Work, so α unbound!)
                "h",
                SymOut::Work("_".into()),
                SymOut::Alpha,
                Move::S,
                Move::S,
            )
            .build();
        // tape-2 α with tape-1 non-α must be rejected at build time
        assert_eq!(m.unwrap_err(), GtmError::UnboundGenericRead);
    }

    #[test]
    fn alpha_alpha_tests_equality_across_tapes() {
        // state s: stash first element on tape 2 and move both heads right?
        // Simpler machine: compare tape1[0] with tape1[1] via tape 2.
        // s: read α on tape1/blank on tape2 → write α to tape2, move tape1
        //    head right, stay on tape2 → state cmp
        // cmp: read (α, α) → equal → halt writing 'Y' on tape1
        //      read (α, β) → differ → halt writing 'N' on tape1
        let m = GtmBuilder::new()
            .start("s")
            .halt("h")
            .states(["cmp"])
            .work_symbols(["Y", "N"])
            .transition(
                "s",
                SymPat::Alpha,
                SymPat::Work("_".into()),
                "cmp",
                SymOut::Alpha,
                SymOut::Alpha,
                Move::R,
                Move::S,
            )
            .transition(
                "cmp",
                SymPat::Alpha,
                SymPat::Alpha,
                "h",
                SymOut::Work("Y".into()),
                SymOut::Alpha,
                Move::S,
                Move::S,
            )
            .transition(
                "cmp",
                SymPat::Alpha,
                SymPat::Beta,
                "h",
                SymOut::Work("N".into()),
                SymOut::Beta,
                Move::S,
                Move::S,
            )
            .build()
            .unwrap();

        let equal = vec![TapeSym::dom(a(5)), TapeSym::dom(a(5))];
        match m.run(equal, 10) {
            RunOutcome::Halted(out) => assert_eq!(out[1], TapeSym::work("Y")),
            other => panic!("unexpected {other:?}"),
        }
        let differ = vec![TapeSym::dom(a(5)), TapeSym::dom(a(6))];
        match m.run(differ, 10) {
            RunOutcome::Halted(out) => assert_eq!(out[1], TapeSym::work("N")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stuck_when_no_transition() {
        let c = Atom::named("gtm-c3");
        let m = overwrite_machine(c);
        // a '[' is not covered by any template in state s
        let tape = vec![TapeSym::work("[")];
        assert!(matches!(m.run(tape, 10), RunOutcome::Stuck { .. }));
    }

    #[test]
    fn fuel_exhaustion_detected() {
        // spin in place forever
        let m = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "s",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap();
        assert_eq!(m.run(vec![], 100), RunOutcome::FuelExhausted);
    }

    #[test]
    fn governed_run_surrenders_config_on_trip() {
        // the spinning machine from fuel_exhaustion_detected, governed
        let m = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "s",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap();
        let gov = Governor::new(Budget::unlimited().with_steps(10));
        let e = m.run_governed(vec![], &gov).unwrap_err();
        assert_eq!(e.engine(), EngineId::Gtm);
        assert_eq!(e.resource(), uset_guard::Resource::Steps);
        assert_eq!(e.partial.state, "s");
        assert_eq!(e.stats.rounds, 10);
    }

    #[test]
    fn failpoint_cancels_run_mid_tape() {
        let c = Atom::named("gtm-fp-c");
        let m = overwrite_machine(c);
        let tape = vec![TapeSym::dom(a(1)), TapeSym::dom(a(2)), TapeSym::dom(a(3))];
        let gov = Governor::unlimited().with_failpoint(uset_guard::FailPoint::cancel_at(2));
        let e = m.run_governed(tape, &gov).unwrap_err();
        assert_eq!(e.resource(), uset_guard::Resource::Cancelled);
        // exactly one overwrite step completed before the cancel landed
        assert_eq!(e.partial.tape1[0], TapeSym::dom(c));
        assert_eq!(e.partial.tape1[1], TapeSym::dom(a(2)));
    }

    #[test]
    fn builder_rejects_bad_machines() {
        // unknown state in action
        let e = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "nowhere",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap_err();
        assert_eq!(e, GtmError::UnknownState("nowhere".into()));

        // duplicate template
        let dup = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "s",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap_err();
        assert_eq!(dup, GtmError::DuplicateTransition);

        // α written without being read
        let bad_write = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Alpha,
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap_err();
        assert_eq!(bad_write, GtmError::UnboundGenericWrite);

        // transition out of halt state
        let from_halt = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "h",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap_err();
        assert_eq!(from_halt, GtmError::TransitionFromHalt);

        // unknown working symbol
        let unknown_w = GtmBuilder::new()
            .start("s")
            .halt("h")
            .transition(
                "s",
                SymPat::Work("Z".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Work("_".into()),
                SymOut::Work("_".into()),
                Move::S,
                Move::S,
            )
            .build()
            .unwrap_err();
        assert_eq!(unknown_w, GtmError::UnknownWork("Z".into()));
    }

    /// The checkpoint fingerprint hashes `format!("{gtm:?}")`, and
    /// checkpoint directories on disk are keyed by it: the `Debug` string
    /// of a machine must not change with its in-memory representation.
    #[test]
    fn debug_string_is_pinned() {
        use crate::machines::{identity_gtm, parity_gtm, swap_pairs_gtm};
        let digest = |m: &Gtm| format!("{:016x}", ckpt::fnv64(format!("{m:?}").as_bytes()));
        assert_eq!(digest(&identity_gtm()), "90ab4382190d1d4d");
        assert_eq!(digest(&parity_gtm(Atom::new(900))), "a72d5ffeee8d00af");
        assert_eq!(digest(&swap_pairs_gtm()), "a7e990e8c2658dbc");
    }

    #[test]
    fn one_way_tape_left_of_zero_stays() {
        // move left at square 0 must not underflow
        let m = GtmBuilder::new()
            .start("s")
            .halt("h")
            .work_symbols(["X"])
            .transition(
                "s",
                SymPat::Work("_".into()),
                SymPat::Work("_".into()),
                "h",
                SymOut::Work("X".into()),
                SymOut::Work("_".into()),
                Move::L,
                Move::L,
            )
            .build()
            .unwrap();
        match m.run(vec![], 10) {
            RunOutcome::Halted(out) => assert_eq!(out, vec![TapeSym::work("X")]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
