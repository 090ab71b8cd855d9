//! The compiled transition table against the paper's template rule.
//!
//! A reference simulator reads δ only through [`Gtm::transitions`] and
//! matches templates the way Prop 3.1 states them: a working symbol or a
//! constant matches exactly, `α` matches any element of `U − C`, and on
//! tape 2 `α` matches the element tape 1 bound and `β` any other element
//! of `U − C`. Every machine run is compared with it step by step: under
//! a steps budget of k for every k up to the end of the run, the machine
//! must halt with the same tape, stick in the same state after the same
//! number of steps, or trip and surrender the same [`Config`].

use uset_gtm::gtm::{Config, Gtm, GtmBuilder, Move, RunOutcome, SymOut, SymPat, TapeSym};
use uset_guard::{Budget, CkptConfig, Governor};
use uset_object::Atom;

/// Longest reference run compared budget by budget.
const MAX_STEPS: u64 = 48;

/// How often each matching rule decided a reference step, so the random
/// suite can show it reached every one of them.
#[derive(Default, Debug)]
struct Seen {
    tape2_alpha: u64,
    tape2_beta: u64,
    const_tape1: u64,
    const_tape2: u64,
    unbound_tape2: u64,
    halted: u64,
    stuck: u64,
    tripped: u64,
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

fn moved(head: usize, mv: Move) -> usize {
    match mv {
        Move::L => head.saturating_sub(1),
        Move::R => head + 1,
        Move::S => head,
    }
}

/// One reference step by the template rule; false when no template
/// matches. Asserts that at most one template matches.
fn reference_step(m: &Gtm, cfg: &mut Config, seen: &mut Seen) -> bool {
    let c = m.constants();
    let generic = |s: &TapeSym| match s {
        TapeSym::Dom(a) if !c.contains(a) => Some(*a),
        _ => None,
    };
    let s1 = read(&cfg.tape1, cfg.head1);
    let s2 = read(&cfg.tape2, cfg.head2);
    if generic(&s2).is_some() && generic(&s1).is_none() {
        seen.unbound_tape2 += 1;
    }
    let exact = |p: &SymPat, s: &TapeSym| match (p, s) {
        (SymPat::Work(w), TapeSym::Work(x)) => w == x,
        (SymPat::Const(k), TapeSym::Dom(a)) => k == a,
        _ => false,
    };
    let mut found = None;
    for ((q, r1, r2), action) in m.transitions() {
        if *q != cfg.state {
            continue;
        }
        let alpha = match r1 {
            SymPat::Alpha => match generic(&s1) {
                Some(a) => Some(a),
                None => continue,
            },
            p if exact(p, &s1) => None,
            _ => continue,
        };
        let beta = match r2 {
            SymPat::Alpha if generic(&s2).is_some() && generic(&s2) == alpha => None,
            SymPat::Beta if generic(&s2).is_some() && generic(&s2) != alpha => generic(&s2),
            p @ (SymPat::Work(_) | SymPat::Const(_)) if exact(p, &s2) => None,
            _ => continue,
        };
        assert!(found.is_none(), "two templates match in state {q}");
        found = Some((r1, r2, action, alpha, beta));
    }
    let Some((r1, r2, action, alpha, beta)) = found else {
        return false;
    };
    seen.tape2_alpha += u64::from(*r2 == SymPat::Alpha);
    seen.tape2_beta += u64::from(*r2 == SymPat::Beta);
    seen.const_tape1 += u64::from(matches!(r1, SymPat::Const(_)));
    seen.const_tape2 += u64::from(matches!(r2, SymPat::Const(_)));
    let out = |w: &SymOut| match w {
        SymOut::Work(s) => TapeSym::work(s),
        SymOut::Const(k) => TapeSym::dom(*k),
        SymOut::Alpha => TapeSym::dom(alpha.expect("α bound")),
        SymOut::Beta => TapeSym::dom(beta.expect("β bound")),
    };
    write(&mut cfg.tape1, cfg.head1, out(&action.write1));
    write(&mut cfg.tape2, cfg.head2, out(&action.write2));
    cfg.head1 = moved(cfg.head1, action.move1);
    cfg.head2 = moved(cfg.head2, action.move2);
    cfg.state = action.to.clone();
    true
}

/// The reference run under a steps budget: the outcome, or the
/// configuration and step count at which the budget trips.
fn reference(
    m: &Gtm,
    tape1: &[TapeSym],
    budget: u64,
    seen: &mut Seen,
) -> Result<RunOutcome, (Config, u64)> {
    let mut cfg = Config {
        state: m.start_state().to_owned(),
        tape1: tape1.to_vec(),
        tape2: Vec::new(),
        head1: 0,
        head2: 0,
    };
    let mut steps = 0;
    loop {
        if cfg.state == m.halt_state() {
            let mut out = cfg.tape1;
            while out.last() == Some(&TapeSym::blank()) {
                out.pop();
            }
            return Ok(RunOutcome::Halted(out));
        }
        if steps == budget {
            return Err((cfg, steps));
        }
        if !reference_step(m, &mut cfg, seen) {
            return Ok(RunOutcome::Stuck {
                state: cfg.state,
                steps,
            });
        }
        steps += 1;
    }
}

/// Compare the machine with the reference under every steps budget up to
/// the end of the run (or [`MAX_STEPS`]); returns the reference's outcome
/// without a budget, or `None` if it ran past [`MAX_STEPS`].
fn agree(m: &Gtm, tape1: &[TapeSym], seen: &mut Seen) -> Option<RunOutcome> {
    for budget in 0..=MAX_STEPS {
        let want = reference(m, tape1, budget, seen);
        let gov =
            Governor::new(Budget::unlimited().with_steps(budget)).with_ckpt_config(CkptConfig::Off);
        let got = m.run_governed(tape1.to_vec(), &gov);
        match (&want, got) {
            (Ok(w), Ok(g)) => {
                assert_eq!(*w, g, "budget {budget}, machine {m:?}, tape {tape1:?}");
                match w {
                    RunOutcome::Stuck { .. } => seen.stuck += 1,
                    _ => seen.halted += 1,
                }
                return Some(g);
            }
            (Err((cfg, steps)), Err(ex)) => {
                assert_eq!(
                    *cfg, ex.partial,
                    "budget {budget}, machine {m:?}, tape {tape1:?}"
                );
                assert_eq!(*steps, ex.stats.rounds, "budget {budget}");
                seen.tripped += 1;
            }
            (w, g) => panic!("budget {budget}: reference {w:?}, table {g:?}, machine {m:?}"),
        }
    }
    None
}

/// SplitMix64: a fixed, dependency-free generator for seeded cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Working symbols the random machines read and write: punctuation plus
/// one extra symbol.
const WORK: [&str; 4] = ["_", ",", "[", "x"];

/// Atoms of `U − C` the random tapes draw from (few, so α = β happens).
const ATOMS: [u64; 3] = [1, 2, 3];

/// Candidate constants.
const CONSTS: [u64; 2] = [100, 101];

/// The read patterns over the test alphabet: every working symbol and
/// constant, plus α (and on tape 2 β) when `generic`.
fn reads(constants: &[Atom], generic: bool) -> Vec<SymPat> {
    let mut pats: Vec<SymPat> = WORK.iter().map(|w| SymPat::Work((*w).into())).collect();
    pats.extend(constants.iter().map(|&c| SymPat::Const(c)));
    if generic {
        pats.extend([SymPat::Alpha, SymPat::Beta]);
    }
    pats
}

fn random_write(rng: &mut Rng, constants: &[Atom], alpha: bool, beta: bool) -> SymOut {
    let mut outs: Vec<SymOut> = WORK.iter().map(|w| SymOut::Work((*w).into())).collect();
    outs.extend(constants.iter().map(|&c| SymOut::Const(c)));
    if alpha {
        outs.extend([SymOut::Alpha, SymOut::Alpha]);
    }
    if beta {
        outs.extend([SymOut::Beta, SymOut::Beta]);
    }
    rng.pick(&outs).clone()
}

/// A random valid GTM: up to 4 states besides the halting state, the
/// punctuation plus `x`, 0–2 constants, templates over all four pattern
/// kinds.
fn random_machine(rng: &mut Rng) -> Gtm {
    let nstates = 1 + rng.below(4);
    let states: Vec<String> = (0..nstates).map(|i| format!("s{i}")).collect();
    let constants: Vec<Atom> = CONSTS[..rng.below(3)]
        .iter()
        .map(|&c| Atom::new(c))
        .collect();
    let mut targets = states.clone();
    targets.push("h".into());
    let mut b = GtmBuilder::new()
        .start("s0")
        .halt("h")
        .states(states.iter().cloned())
        .work_symbols(["x"])
        .constants(constants.iter().copied());
    // each template key over the alphabet is in δ with probability 1/2
    let moves = [Move::L, Move::R, Move::S];
    for from in &states {
        for r1 in reads(&constants, true) {
            if r1 == SymPat::Beta {
                continue;
            }
            let alpha = r1 == SymPat::Alpha;
            for r2 in reads(&constants, alpha) {
                if rng.below(2) == 0 {
                    continue;
                }
                let beta = r2 == SymPat::Beta;
                b = b.transition(
                    from.clone(),
                    r1.clone(),
                    r2,
                    rng.pick(&targets).clone(),
                    random_write(rng, &constants, alpha, beta),
                    // stash the bound element on tape 2 half the time, so
                    // later steps compare it with tape 1's
                    match rng.below(2) {
                        0 if alpha => SymOut::Alpha,
                        _ => random_write(rng, &constants, alpha, beta),
                    },
                    *rng.pick(&moves),
                    *rng.pick(&moves),
                );
            }
        }
    }
    b.build().expect("random machines are valid")
}

/// A random input tape over the working symbols, three atoms and the
/// candidate constants.
fn random_tape(rng: &mut Rng) -> Vec<TapeSym> {
    let mut syms: Vec<TapeSym> = WORK.iter().map(|w| TapeSym::work(w)).collect();
    for a in ATOMS.iter().chain(&CONSTS) {
        syms.push(TapeSym::dom(Atom::new(*a)));
        syms.push(TapeSym::dom(Atom::new(*a)));
    }
    (0..rng.below(9)).map(|_| rng.pick(&syms).clone()).collect()
}

#[test]
fn table_matches_templates_on_random_machines() {
    let mut seen = Seen::default();
    for seed in 0..600u64 {
        let mut rng = Rng(seed);
        let m = random_machine(&mut rng);
        for _ in 0..4 {
            agree(&m, &random_tape(&mut rng), &mut seen);
        }
    }
    // the suite reached every matching rule and every kind of ending
    for (what, n) in [
        ("tape-2 α", seen.tape2_alpha),
        ("tape-2 β", seen.tape2_beta),
        ("tape-1 constant", seen.const_tape1),
        ("tape-2 constant", seen.const_tape2),
        ("tape-2 element without tape-1 α", seen.unbound_tape2),
        ("halted", seen.halted),
        ("stuck", seen.stuck),
        ("tripped", seen.tripped),
    ] {
        assert!(n > 0, "no random case exercised {what}: {seen:?}");
    }
}

fn a(i: u64) -> TapeSym {
    TapeSym::dom(Atom::new(i))
}

fn blank() -> SymPat {
    SymPat::Work("_".into())
}

fn keep(w: &str) -> SymOut {
    SymOut::Work(w.into())
}

/// Stash tape 1's α on tape 2 and step tape 1 right, into state `q`.
fn stash(b: GtmBuilder) -> GtmBuilder {
    b.start("s").halt("h").states(["q"]).transition(
        "s",
        SymPat::Alpha,
        blank(),
        "q",
        SymOut::Alpha,
        SymOut::Alpha,
        Move::R,
        Move::S,
    )
}

#[test]
fn tape2_alpha_and_beta_against_tape1_alpha() {
    let m = stash(GtmBuilder::new().work_symbols(["Y", "N"]))
        .transition(
            "q",
            SymPat::Alpha,
            SymPat::Alpha,
            "h",
            keep("Y"),
            SymOut::Alpha,
            Move::S,
            Move::S,
        )
        .transition(
            "q",
            SymPat::Alpha,
            SymPat::Beta,
            "h",
            keep("N"),
            SymOut::Beta,
            Move::S,
            Move::S,
        )
        .build()
        .unwrap();
    let mut seen = Seen::default();
    let same = agree(&m, &[a(1), a(1)], &mut seen);
    assert_eq!(
        same,
        Some(RunOutcome::Halted(vec![a(1), TapeSym::work("Y")]))
    );
    let differ = agree(&m, &[a(1), a(2)], &mut seen);
    assert_eq!(
        differ,
        Some(RunOutcome::Halted(vec![a(1), TapeSym::work("N")]))
    );
}

#[test]
fn constants_match_exactly_on_either_tape() {
    let c = Atom::new(100);
    let m = GtmBuilder::new()
        .start("s")
        .halt("h")
        .states(["q"])
        .constants([c])
        .work_symbols(["Y"])
        // a constant on tape 1 is copied to tape 2 as a constant
        .transition(
            "s",
            SymPat::Const(c),
            blank(),
            "q",
            SymOut::Const(c),
            SymOut::Const(c),
            Move::R,
            Move::S,
        )
        // tape 2's constant is not a generic element: α on tape 1 still
        // binds, and tape 2 matches the constant template
        .transition(
            "q",
            SymPat::Alpha,
            SymPat::Const(c),
            "h",
            keep("Y"),
            SymOut::Alpha,
            Move::S,
            Move::S,
        )
        .build()
        .unwrap();
    let mut seen = Seen::default();
    let out = agree(&m, &[TapeSym::dom(c), a(1)], &mut seen);
    assert_eq!(
        out,
        Some(RunOutcome::Halted(vec![
            TapeSym::dom(c),
            TapeSym::work("Y")
        ]))
    );
    // a constant is no α: a constant in tape 1's second square sticks
    let out = agree(&m, &[TapeSym::dom(c), TapeSym::dom(c)], &mut seen);
    assert_eq!(
        out,
        Some(RunOutcome::Stuck {
            state: "q".into(),
            steps: 1
        })
    );
    // and α matches no constant: a generic first square sticks at once
    let out = agree(&m, &[a(1)], &mut seen);
    assert_eq!(
        out,
        Some(RunOutcome::Stuck {
            state: "s".into(),
            steps: 0
        })
    );
}

#[test]
fn tape2_element_without_tape1_alpha_is_stuck() {
    // in q, tape 1 reads the blank and tape 2 the stashed element; the
    // only template in q reads blanks on both tapes, and no template can
    // name tape 2's element without an α on tape 1
    let m = stash(GtmBuilder::new())
        .transition(
            "q",
            blank(),
            blank(),
            "h",
            keep("_"),
            keep("_"),
            Move::S,
            Move::S,
        )
        .build()
        .unwrap();
    let mut seen = Seen::default();
    let out = agree(&m, &[a(1)], &mut seen);
    assert_eq!(
        out,
        Some(RunOutcome::Stuck {
            state: "q".into(),
            steps: 1
        })
    );
    assert!(seen.unbound_tape2 > 0);
}
