//! The generic Turing machine: definition, validation, simulation.
//!
//! A GTM is the six-tuple `M = (K, W, C, δ, s0, h)` of the paper. We
//! represent states and working symbols by interned strings, constants by
//! [`Atom`]s, and δ by a map from `(state, pat1, pat2)` template keys to
//! actions. Matching a concrete pair of tape symbols against the template
//! space is deterministic because the template patterns partition the
//! concrete symbol space (working symbols and constants match exactly; any
//! other domain element matches `α`; on tape 2, the same element as tape 1
//! matches `α` and a different one matches `β`).

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
#[derive(Clone, Debug)]
pub struct Gtm {
    states: BTreeSet<String>,
    work: BTreeSet<String>,
    constants: BTreeSet<Atom>,
    start: String,
    halt: String,
    delta: BTreeMap<(String, SymPat, SymPat), Action>,
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
        Ok(Gtm {
            states: self.states,
            work: self.work,
            constants: self.constants,
            start,
            halt,
            delta,
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
/// machine [`Config`] at the trip point, from which the run can be
/// inspected (or resumed by stepping manually).
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

    /// Initial configuration for the given tape-1 contents.
    pub fn initial_config(&self, tape1: Vec<TapeSym>) -> Config {
        Config {
            state: self.start.clone(),
            tape1,
            tape2: Vec::new(),
            head1: 0,
            head2: 0,
        }
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
        // the fingerprint reads the input tape, and a fresh run moves it
        // into the machine's first configuration
        let tape1 = RefCell::new(tape1);
        let fingerprint = || self.fingerprint(&tape1.borrow());
        let stats = &mut EvalStats::default();
        governor.run(ENGINE, stats, fingerprint, gtm_decode, |run, stats, at| {
            let trace = &governor.trace;
            let (mut cfg, mut steps) = at.unwrap_or_else(|| (self.initial_config(tape1.take()), 0));
            loop {
                if cfg.state == self.halt {
                    let mut out = cfg.tape1;
                    while out.last() == Some(&TapeSym::blank()) {
                        out.pop();
                    }
                    return Ok(RunOutcome::Halted(out));
                }
                let tape = cfg.tape1.len().max(cfg.tape2.len());
                stats.observe_facts(tape);
                let stepped = run.guard.step();
                if let Err(trip) = stepped.and_then(|()| run.guard.check_value(tape, None)) {
                    return Err(Box::new(Exhausted::new(trip, cfg, *stats)));
                }
                if !self.step(&mut cfg) {
                    return Ok(RunOutcome::Stuck {
                        state: cfg.state,
                        steps,
                    });
                }
                steps += 1;
                stats.rounds += 1;
                if steps.is_multiple_of(TRACE_STRIDE) {
                    let round = run.guard.steps();
                    let tape = cfg.tape1.len().max(cfg.tape2.len()) as u64;
                    let value_hwm = run.guard.value_hwm() as u64;
                    trace.emit(|| TraceEvent::RoundEnd {
                        engine: ENGINE.as_str().into(),
                        round,
                        delta: TRACE_STRIDE,
                        facts: tape,
                        value_hwm,
                        wall_micros: 0,
                    });
                    run.commit(steps, stats, || gtm_encode(&cfg, steps));
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

    /// Execute one step; false if no transition applies.
    pub fn step(&self, cfg: &mut Config) -> bool {
        let s1 = read(&cfg.tape1, cfg.head1);
        let s2 = read(&cfg.tape2, cfg.head2);
        let Some((action, alpha, beta)) = self.match_transition(&cfg.state, &s1, &s2) else {
            return false;
        };
        let w1 = materialize(&action.write1, alpha, beta);
        let w2 = materialize(&action.write2, alpha, beta);
        write(&mut cfg.tape1, cfg.head1, w1);
        write(&mut cfg.tape2, cfg.head2, w2);
        cfg.head1 = step_head(cfg.head1, action.move1);
        cfg.head2 = step_head(cfg.head2, action.move2);
        cfg.state = action.to.clone();
        true
    }

    /// Find the transition template matching concrete symbols, returning
    /// the action and any α/β bindings.
    fn match_transition(
        &self,
        state: &str,
        s1: &TapeSym,
        s2: &TapeSym,
    ) -> Option<(&Action, Option<Atom>, Option<Atom>)> {
        // classify tape-1 symbol
        let (p1, alpha): (SymPat, Option<Atom>) = match s1 {
            TapeSym::Work(w) => (SymPat::Work(w.clone()), None),
            TapeSym::Dom(a) if self.constants.contains(a) => (SymPat::Const(*a), None),
            TapeSym::Dom(a) => (SymPat::Alpha, Some(*a)),
        };
        // classify tape-2 symbol relative to α
        let (p2, beta): (SymPat, Option<Atom>) = match s2 {
            TapeSym::Work(w) => (SymPat::Work(w.clone()), None),
            TapeSym::Dom(b) if self.constants.contains(b) => (SymPat::Const(*b), None),
            TapeSym::Dom(b) => match alpha {
                Some(a) if a == *b => (SymPat::Alpha, None),
                Some(_) => (SymPat::Beta, Some(*b)),
                // tape 2 reads an unknown domain element while tape 1 does
                // not bind α: δ cannot name it, so no transition applies
                None => return None,
            },
        };
        self.delta
            .get(&(state.to_owned(), p1, p2))
            .map(|a| (a, alpha, beta))
    }
}

fn read(tape: &[TapeSym], head: usize) -> TapeSym {
    tape.get(head).cloned().unwrap_or_else(TapeSym::blank)
}

fn write(tape: &mut Vec<TapeSym>, head: usize, sym: TapeSym) {
    if head >= tape.len() {
        tape.resize(head + 1, TapeSym::blank());
    }
    tape[head] = sym;
}

fn step_head(head: usize, mv: Move) -> usize {
    match mv {
        Move::L => head.saturating_sub(1),
        Move::R => head + 1,
        Move::S => head,
    }
}

fn materialize(out: &SymOut, alpha: Option<Atom>, beta: Option<Atom>) -> TapeSym {
    match out {
        SymOut::Work(w) => TapeSym::Work(w.clone()),
        SymOut::Const(c) => TapeSym::Dom(*c),
        SymOut::Alpha => TapeSym::Dom(alpha.expect("validated: α bound")),
        SymOut::Beta => TapeSym::Dom(beta.expect("validated: β bound")),
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
