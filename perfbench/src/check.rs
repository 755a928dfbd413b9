//! The correctness gate: every run checks the program's outputs, and a
//! unit whose outcome differs from its reference counts as failed.

use std::collections::HashSet;

use causaliot::{IngestGuard, IngestPolicy, OwnedMonitor, Verdict};
use causaliot_bench::eval::contextual_confusion;
use iot_model::BinaryEvent;
use iot_stats::metrics::ConfusionMatrix;
use testbed::inject::ChaosCounts;

use causaliot::DeadLetterCounts;

/// Tally of checked units.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Records one unit; a failure is reported loudly on stderr.
    pub fn unit(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            eprintln!("CORRECTNESS FAILURE: {why}");
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Bit-identity of two verdicts: score and confidence compared by bit
/// pattern, alarms structurally.
fn same_verdict(a: &Verdict, b: &Verdict) -> bool {
    a.score.to_bits() == b.score.to_bits()
        && a.confidence.to_bits() == b.confidence.to_bits()
        && a.exceeds_threshold == b.exceeds_threshold
        && a.alarms == b.alarms
}

/// Compares a served verdict stream with its reference, naming the first
/// difference.
pub fn verdicts_match(home: &str, served: &[Verdict], reference: &[Verdict]) -> Result<(), String> {
    if served.len() != reference.len() {
        return Err(format!(
            "{home}: served {} verdicts, reference has {}",
            served.len(),
            reference.len()
        ));
    }
    match served
        .iter()
        .zip(reference)
        .position(|(a, b)| !same_verdict(a, b))
    {
        Some(i) => Err(format!(
            "{home}: verdict {i} differs from the direct replay"
        )),
        None => Ok(()),
    }
}

/// The reference for a guarded home: the same delivery-ordered stream
/// through a direct `IngestGuard` and `OwnedMonitor`, flushed at the end
/// as the hub flushes at shutdown.
pub fn guarded_replay(
    mut monitor: OwnedMonitor,
    policy: IngestPolicy,
    num_devices: usize,
    delivered: &[BinaryEvent],
) -> (Vec<Verdict>, DeadLetterCounts) {
    let mut guard: IngestGuard<BinaryEvent> = IngestGuard::new(policy, num_devices);
    let mut out = Vec::with_capacity(delivered.len());
    let mut score =
        |monitor: &mut OwnedMonitor, guard: &IngestGuard<BinaryEvent>, ready: Vec<BinaryEvent>| {
            if ready.is_empty() {
                return;
            }
            let stale = guard.stale_set();
            for event in ready {
                out.push(if stale.count() > 0 {
                    monitor.observe_degraded(event, &stale)
                } else {
                    monitor.observe(event)
                });
            }
        };
    for &event in delivered {
        let step = guard.offer(event);
        score(&mut monitor, &guard, step.ready);
    }
    let rest = guard.flush();
    score(&mut monitor, &guard, rest);
    (out, guard.counts())
}

/// Dead letters by cause must equal what the chaos injection planted.
pub fn dead_letters_match(
    home: &str,
    got: &DeadLetterCounts,
    expected: &ChaosCounts,
) -> Result<(), String> {
    let ok = got.late_arrival == expected.late_arrival
        && got.clock_regression == expected.clock_regression
        && got.unknown_device == expected.unknown_device
        && got.total() == expected.total();
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{home}: dead letters {got:?}, expected {expected:?}"
        ))
    }
}

/// A recovered home must report every submitted event as durable.
pub fn durable_count_matches(home: &str, durable: u64, submitted: u64) -> Result<(), String> {
    if durable == submitted {
        Ok(())
    } else {
        Err(format!(
            "{home}: {durable} durable events, {submitted} submitted"
        ))
    }
}

/// A committed model must come back from the store with its content hash.
pub fn hash_round_trips(home: &str, committed: u32, fetched: u32) -> Result<(), String> {
    if committed == fetched {
        Ok(())
    } else {
        Err(format!(
            "{home}: committed hash {committed:08x}, store returned {fetched:08x}"
        ))
    }
}

/// Stream positions flagged by any alarm in a served verdict stream.
pub fn alarm_positions(verdicts: &[Verdict]) -> HashSet<usize> {
    verdicts
        .iter()
        .flat_map(|v| v.alarms.iter())
        .flat_map(|a| a.events.iter().map(|e| e.ordinal as usize))
        .collect()
}

/// Adds one home's alarm positions against its injected positions.
pub fn add_confusion(
    total: &mut ConfusionMatrix,
    injected: &HashSet<usize>,
    alarms: &HashSet<usize>,
    events: usize,
) {
    let m = contextual_confusion(injected, alarms, events);
    total.tp += m.tp;
    total.fp += m.fp;
    total.fn_ += m.fn_;
    total.tn += m.tn;
}

/// Alarm counts of a served verdict stream: (contextual, collective).
pub fn alarm_counts(verdicts: &[Verdict]) -> (u64, u64) {
    let mut ctx = 0;
    let mut coll = 0;
    for alarm in verdicts.iter().flat_map(|v| v.alarms.iter()) {
        match alarm.kind {
            causaliot::AlarmKind::Contextual => ctx += 1,
            causaliot::AlarmKind::Collective => coll += 1,
        }
    }
    (ctx, coll)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{serve_inputs, Size};

    #[test]
    fn gate_rejects_a_flipped_verdict() {
        let inputs = serve_inputs(3, &Size::tiny());
        let home = &inputs.homes[0];
        let model = &inputs.sites[home.site].model;
        let policy = IngestPolicy {
            reorder_window: inputs.chaos.reorder_window,
            max_skew: inputs.chaos.max_skew,
            ..IngestPolicy::default()
        };
        let (reference, dead) = guarded_replay(
            model.clone().into_monitor(),
            policy,
            model.num_devices(),
            &home.chaotic,
        );
        let (again, _) = guarded_replay(
            model.clone().into_monitor(),
            policy,
            model.num_devices(),
            &home.chaotic,
        );
        assert!(verdicts_match(&home.name, &again, &reference).is_ok());
        assert!(dead_letters_match(&home.name, &dead, &home.expected_dead).is_ok());

        let mut flipped = again.clone();
        flipped[7].exceeds_threshold = !flipped[7].exceeds_threshold;
        let err = verdicts_match(&home.name, &flipped, &reference).unwrap_err();
        assert!(err.contains("verdict 7"), "{err}");
        let mut nudged = again;
        nudged[3].score = f64::from_bits(nudged[3].score.to_bits() ^ 1);
        assert!(verdicts_match(&home.name, &nudged, &reference).is_err());

        let mut gate = Gate::default();
        gate.unit(verdicts_match(&home.name, &flipped, &reference));
        gate.unit(Ok(()));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.ok_ratio(), 0.5);
    }

    #[test]
    fn gate_rejects_a_short_durable_count_and_a_wrong_hash() {
        assert!(durable_count_matches("h", 4096, 4096).is_ok());
        assert!(durable_count_matches("h", 4095, 4096).is_err());
        assert!(hash_round_trips("h", 0xdead_beef, 0xdead_beef).is_ok());
        assert!(hash_round_trips("h", 0xdead_beef, 0xdead_beee).is_err());
    }
}
