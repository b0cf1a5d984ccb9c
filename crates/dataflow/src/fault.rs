//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] decides, purely as a function of `(seed, stage name,
//! partition, attempt)`, whether a task attempt is sabotaged before it
//! runs — and how. Because the decision never consults the wall clock,
//! the OS, or scheduling order, a chaos test that replays the same plan
//! observes byte-identical faults on every run, which is what lets the
//! retry/speculation machinery be tested with exact-count assertions.
//!
//! Two fault sources compose:
//!
//! * **Seeded faults** — a hash of the stage name and partition picks a
//!   fault count in `0..=max_faults_per_task`; the first that many
//!   attempts of the task fail (kind chosen by the same hash), and every
//!   later attempt succeeds. This models a flaky cluster whose failures
//!   are bounded per task.
//! * **Scripted faults** — explicit `(stage substring, partition,
//!   attempt)` entries for tests that need a fault in one exact place.

use std::time::Duration;

/// What an injected fault does to a task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt fails as if the user closure panicked.
    Panic,
    /// The attempt fails with a transient (retryable) task error.
    Transient,
    /// The attempt is delayed by the given duration, then runs normally —
    /// a straggler, not a failure.
    Delay(Duration),
}

/// One scripted fault: fires when the stage name contains
/// `stage_contains` (or always, when `None`) for an exact
/// `(partition, attempt)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScriptedFault {
    stage_contains: Option<String>,
    partition: usize,
    attempt: usize,
    kind: FaultKind,
}

/// A reproducible schedule of task faults (see the module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    max_faults_per_task: u32,
    stage_filter: Option<String>,
    scripted: Vec<ScriptedFault>,
}

impl FaultPlan {
    /// Starts building a plan from a seed.
    pub fn builder(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            plan: FaultPlan {
                seed,
                ..FaultPlan::default()
            },
        }
    }

    /// The fault (if any) to inject for this `(stage, partition, attempt)`.
    pub fn decide(&self, stage: &str, partition: usize, attempt: usize) -> Option<FaultKind> {
        for s in &self.scripted {
            let stage_matches = s
                .stage_contains
                .as_deref()
                .is_none_or(|needle| stage.contains(needle));
            if stage_matches && s.partition == partition && s.attempt == attempt {
                return Some(s.kind);
            }
        }
        if self.seeded_fault_count(stage, partition) > attempt as u64 {
            let kind = if mix(self.seed, stage, partition as u64, attempt as u64 ^ 0x51ED) & 1 == 0
            {
                FaultKind::Transient
            } else {
                FaultKind::Panic
            };
            return Some(kind);
        }
        None
    }

    /// How many failing attempts (Panic/Transient — delays excluded) this
    /// plan injects for `(stage, partition)` before the task is allowed to
    /// succeed. Property tests use this to bound retry budgets.
    pub fn fault_count(&self, stage: &str, partition: usize) -> usize {
        let scripted = self
            .scripted
            .iter()
            .filter(|s| {
                s.stage_contains
                    .as_deref()
                    .is_none_or(|needle| stage.contains(needle))
                    && s.partition == partition
                    && !matches!(s.kind, FaultKind::Delay(_))
            })
            .count();
        scripted + self.seeded_fault_count(stage, partition) as usize
    }

    /// Seeded fault count for `(stage, partition)`, honouring the stage
    /// filter. Attempts `0..count` fail; attempt `count` succeeds.
    fn seeded_fault_count(&self, stage: &str, partition: usize) -> u64 {
        if self.max_faults_per_task == 0 {
            return 0;
        }
        if let Some(needle) = self.stage_filter.as_deref() {
            if !stage.contains(needle) {
                return 0;
            }
        }
        mix(self.seed, stage, partition as u64, 0xC0DE) % (u64::from(self.max_faults_per_task) + 1)
    }
}

/// Builder for [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    plan: FaultPlan,
}

impl FaultPlanBuilder {
    /// Enables seeded faults: each `(stage, partition)` fails its first
    /// `0..=max` attempts (count drawn from the seed) before succeeding.
    pub fn max_faults_per_task(mut self, max: u32) -> Self {
        self.plan.max_faults_per_task = max;
        self
    }

    /// Restricts seeded faults to stages whose name contains `needle`
    /// (scripted faults carry their own filter).
    pub fn only_stages_containing(mut self, needle: impl Into<String>) -> Self {
        self.plan.stage_filter = Some(needle.into());
        self
    }

    /// Scripts one fault for an exact `(partition, attempt)` in any stage.
    pub fn inject(self, partition: usize, attempt: usize, kind: FaultKind) -> Self {
        self.inject_in_stages(None::<String>, partition, attempt, kind)
    }

    /// Scripts one fault for `(partition, attempt)` in stages whose name
    /// contains `stage` (pass `None` to match every stage).
    pub fn inject_in_stages(
        mut self,
        stage: Option<impl Into<String>>,
        partition: usize,
        attempt: usize,
        kind: FaultKind,
    ) -> Self {
        self.plan.scripted.push(ScriptedFault {
            stage_contains: stage.map(Into::into),
            partition,
            attempt,
            kind,
        });
        self
    }

    /// Finalises the plan.
    pub fn build(self) -> FaultPlan {
        self.plan
    }
}

/// FNV-1a over the stage name, mixed with the seed/partition/salt through
/// a SplitMix64 finaliser — deterministic and well distributed without
/// pulling in the engine RNG.
fn mix(seed: u64, stage: &str, partition: u64, salt: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in stage.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h
        ^ seed.rotate_left(17)
        ^ partition.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::builder(7).max_faults_per_task(3).build();
        let b = FaultPlan::builder(7).max_faults_per_task(3).build();
        for p in 0..32 {
            for attempt in 0..5 {
                assert_eq!(
                    a.decide("map", p, attempt),
                    b.decide("map", p, attempt),
                    "partition {p} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn seeded_faults_respect_the_count() {
        let plan = FaultPlan::builder(0xFA11).max_faults_per_task(4).build();
        for p in 0..64 {
            let count = plan.fault_count("reduce", p);
            assert!(count <= 4);
            for attempt in 0..count {
                assert!(plan.decide("reduce", p, attempt).is_some());
            }
            // The first attempt past the budget always succeeds.
            assert_eq!(plan.decide("reduce", p, count), None);
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let a = FaultPlan::builder(1).max_faults_per_task(3).build();
        let b = FaultPlan::builder(2).max_faults_per_task(3).build();
        let differs = (0..256).any(|p| a.fault_count("map", p) != b.fault_count("map", p));
        assert!(differs, "seeds 1 and 2 produced identical plans");
    }

    #[test]
    fn scripted_faults_hit_exactly() {
        let plan = FaultPlan::builder(0)
            .inject(3, 0, FaultKind::Transient)
            .inject_in_stages(Some("outlier"), 5, 1, FaultKind::Panic)
            .build();
        assert_eq!(plan.decide("map", 3, 0), Some(FaultKind::Transient));
        assert_eq!(plan.decide("map", 3, 1), None);
        assert_eq!(plan.decide("map", 5, 1), None);
        assert_eq!(
            plan.decide("outlier pass:join", 5, 1),
            Some(FaultKind::Panic)
        );
        assert_eq!(plan.fault_count("map", 3), 1);
        assert_eq!(plan.fault_count("outlier pass:join", 5), 1);
    }

    #[test]
    fn delays_do_not_count_as_faults() {
        let plan = FaultPlan::builder(0)
            .inject(0, 0, FaultKind::Delay(Duration::from_millis(1)))
            .build();
        assert_eq!(
            plan.decide("map", 0, 0),
            Some(FaultKind::Delay(Duration::from_millis(1)))
        );
        assert_eq!(plan.fault_count("map", 0), 0);
    }

    #[test]
    fn stage_filter_gates_seeded_faults() {
        let plan = FaultPlan::builder(0xFA11)
            .max_faults_per_task(4)
            .only_stages_containing("core-point")
            .build();
        let faulted: usize = (0..64)
            .map(|p| plan.fault_count("core-point pass:map", p))
            .sum();
        assert!(faulted > 0, "filter should still allow matching stages");
        let elsewhere: usize = (0..64)
            .map(|p| plan.fault_count("outlier pass:map", p))
            .sum();
        assert_eq!(elsewhere, 0, "filtered stages must be fault-free");
    }
}
