//! Span-style round bookkeeping shared by the engines.
//!
//! Every fixpoint engine emits the same event shape — an
//! [`EngineStart`](crate::TraceEvent::EngineStart)/
//! [`EngineEnd`](crate::TraceEvent::EngineEnd) bracket around rounds of
//! [`RoundStart`](crate::TraceEvent::RoundStart), per-rule
//! [`RuleFired`](crate::TraceEvent::RuleFired) aggregates, and a
//! [`RoundEnd`](crate::TraceEvent::RoundEnd) summary. This module holds
//! the bookkeeping for that shape so each engine only decides *where* its
//! rounds begin and end, not how to count firings.
//!
//! The helpers deliberately know nothing about guards or engine state:
//! round numbers, fact counts, and the value high-water mark are passed
//! in as plain integers, keeping this crate at the bottom of the
//! dependency graph.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{TraceEvent, TraceHandle};

/// Emit [`TraceEvent::EngineStart`] and return the run clock; the clock
/// only ticks when a tracer is attached, so disabled runs never call
/// [`Instant::now`].
pub fn engine_start(engine: &'static str, trace: &TraceHandle) -> Option<Instant> {
    trace.emit(|| TraceEvent::EngineStart {
        engine: engine.into(),
    });
    trace.enabled().then(Instant::now)
}

/// Emit [`TraceEvent::EngineEnd`] for a successfully completed run.
/// Exhausted runs end with the guard's `GuardTrip` event instead.
pub fn engine_end(
    engine: &'static str,
    trace: &TraceHandle,
    rounds: u64,
    run_start: Option<Instant>,
) {
    trace.emit(|| TraceEvent::EngineEnd {
        engine: engine.into(),
        rounds,
        wall_micros: run_start.map_or(0, |t| t.elapsed().as_micros() as u64),
    });
}

/// One recorded rule firing: `(rule index, tuples produced, wall µs)`.
type Firing = (usize, u64, u64);

/// Per-round firing bookkeeping for [`TraceEvent::RuleFired`] events.
///
/// Engines record one entry per rule firing (a semi-naive round may
/// fire the same rule once per delta position); [`RuleFirings::emit_round`]
/// aggregates the entries per rule, splits produced tuples into derived
/// (newly inserted) vs deduplicated using the engine's insertion counts,
/// and closes the round with a [`TraceEvent::RoundEnd`]. All bookkeeping
/// is skipped when the handle is disabled.
#[derive(Debug)]
pub struct RuleFirings {
    engine: &'static str,
    enabled: bool,
    want_prov: bool,
    firings: Vec<Firing>,
}

impl RuleFirings {
    /// Bookkeeping for one engine run; snapshots the handle's enablement
    /// so hot loops test a plain bool.
    pub fn new(engine: &'static str, trace: &TraceHandle) -> RuleFirings {
        RuleFirings {
            engine,
            enabled: trace.enabled(),
            want_prov: trace.provenance(),
            firings: Vec::new(),
        }
    }

    /// True if a tracer is attached (cached at construction).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// True if the attached tracer wants per-fact `Derivation` events.
    pub fn want_provenance(&self) -> bool {
        self.want_prov
    }

    /// Start a fresh round (drops the previous round's firing records).
    pub fn clear(&mut self) {
        self.firings.clear();
    }

    /// Record one rule firing. No-op when disabled.
    pub fn record(&mut self, rule: usize, produced: u64, wall_micros: u64) {
        if self.enabled {
            self.firings.push((rule, produced, wall_micros));
        }
    }

    /// Emit the round's [`TraceEvent::RuleFired`] events (aggregated per
    /// rule across delta-position firings) followed by
    /// [`TraceEvent::RoundEnd`]. `new_per_rule` maps rule index → tuples
    /// that round actually inserted for it; the difference against the
    /// recorded produced counts is reported as `deduped`.
    pub fn emit_round(
        &self,
        trace: &TraceHandle,
        round: u64,
        new_per_rule: &BTreeMap<usize, u64>,
        facts: u64,
        value_hwm: u64,
        round_start: Option<Instant>,
    ) {
        if !self.enabled {
            return;
        }
        let mut agg: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for &(rule, produced, wall_micros) in &self.firings {
            let e = agg.entry(rule).or_default();
            e.0 += produced;
            e.1 += wall_micros;
        }
        for (rule, (produced, wall_micros)) in agg {
            let new = new_per_rule.get(&rule).copied().unwrap_or(0);
            trace.emit(|| TraceEvent::RuleFired {
                engine: self.engine.into(),
                round,
                rule,
                derived: new,
                deduped: produced.saturating_sub(new),
                wall_micros,
            });
        }
        trace.emit(|| TraceEvent::RoundEnd {
            engine: self.engine.into(),
            round,
            delta: new_per_rule.values().sum(),
            facts,
            value_hwm,
            wall_micros: round_start.map_or(0, |t| t.elapsed().as_micros() as u64),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceHandle;

    #[test]
    fn disabled_handle_records_nothing() {
        let off = TraceHandle::off();
        let mut ctx = RuleFirings::new("test", &off);
        assert!(!ctx.enabled());
        ctx.record(0, 10, 5);
        assert!(ctx.firings.is_empty());
        // emit_round on a disabled handle is a no-op, not a panic
        ctx.emit_round(&off, 1, &BTreeMap::new(), 0, 0, None);
    }

    #[test]
    fn firings_aggregate_per_rule_and_split_deduped() {
        let (handle, mem) = TraceHandle::mem();
        let mut ctx = RuleFirings::new("test", &handle);
        // rule 1 fired twice (two delta positions): 5 + 3 produced
        ctx.record(1, 5, 10);
        ctx.record(1, 3, 7);
        ctx.record(2, 4, 2);
        let mut new_per_rule = BTreeMap::new();
        new_per_rule.insert(1usize, 6u64); // 8 produced, 6 new → 2 deduped
        new_per_rule.insert(2usize, 4u64); // all new
        ctx.emit_round(&handle, 3, &new_per_rule, 100, 7, None);
        let events = mem.events();
        assert_eq!(events.len(), 3); // two RuleFired + one RoundEnd
        assert_eq!(
            events[0],
            TraceEvent::RuleFired {
                engine: "test".into(),
                round: 3,
                rule: 1,
                derived: 6,
                deduped: 2,
                wall_micros: 17,
            }
        );
        match &events[2] {
            TraceEvent::RoundEnd {
                round,
                delta,
                facts,
                value_hwm,
                ..
            } => {
                assert_eq!((*round, *delta, *facts, *value_hwm), (3, 10, 100, 7));
            }
            other => panic!("expected RoundEnd, got {other:?}"),
        }
    }

    #[test]
    fn engine_brackets_emit_start_and_end() {
        let (handle, mem) = TraceHandle::mem();
        let t0 = engine_start("test", &handle);
        assert!(t0.is_some());
        engine_end("test", &handle, 4, t0);
        let events = mem.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], TraceEvent::EngineStart { .. }));
        assert!(matches!(events[1], TraceEvent::EngineEnd { rounds: 4, .. }));
    }
}
