//! The campaign state machine.
//!
//! A tuning campaign used to be an opaque `for` loop inside
//! [`Tuner::run`](crate::Tuner::run); this module names every point the
//! loop can stand at as a serializable [`CampaignPhase`], so a campaign
//! becomes a *value*: something a checkpoint can capture mid-round, a
//! supervisor can park and resume, and a scheduler can migrate between
//! worker pools. [`Tuner::step`](crate::Tuner::step) advances exactly one
//! phase transition and returns a [`CampaignStatus`]; `run` is now just
//! `start` + `step` until done.
//!
//! The phases mirror the paper's draft-then-verify round structure:
//!
//! ```text
//! Init ──► Proposing ──► Measuring ──► Training ──► CheckpointDue ─┐
//!            ▲  │ (out of rounds)        (one program per step)    │
//!            │  └───────► Done ◄───────────(halt_after reached)────┤
//!            └─────────────────────────────────────────────────────┘
//!                                  Failed (checkpoint/store write error)
//! ```
//!
//! Determinism contract: stepping through the phases produces *exactly*
//! the trace records, RNG draws, and simulated-time charges of the
//! original loop, so goldens pinned before the refactor still hold, and
//! a campaign parked in any phase and resumed from its checkpoint is
//! byte-identical to one that never stopped.

use pruner_sketch::Program;
use serde::{Deserialize, Serialize};

use crate::task::FunnelCounts;

/// Where a campaign stands, precisely enough to resume mid-round.
///
/// Every field is plain data (no handles, no closures): the phase is
/// embedded verbatim in the [`Checkpoint`](crate::Checkpoint), which is
/// what makes mid-round park/resume possible at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignPhase {
    /// Nothing has run yet: store replay and the warmup sweep (fallback
    /// measurement per task) are still pending.
    Init,
    /// About to propose candidates for `round` (or to finish, if `round`
    /// is past the configured horizon).
    Proposing {
        /// The round about to run; rounds `0..round` are complete.
        round: usize,
    },
    /// Mid-measurement: the proposal funnel has run and `pending[next..]`
    /// are still waiting for the measurer. One program is measured per
    /// [`Tuner::step`](crate::Tuner::step), so a kill between any two
    /// measurements is resumable.
    Measuring {
        /// The round being measured.
        round: usize,
        /// Index of the task picked by the scheduler for this round.
        task: usize,
        /// The round's proposed programs, in measurement order.
        pending: Vec<Program>,
        /// Index of the next program in `pending` to measure.
        next: usize,
        /// Successful measurements so far this round.
        measured: u64,
        /// Failed (quarantined) measurements so far this round.
        failed: u64,
        /// Whether any measurement improved the task's incumbent.
        improved: bool,
        /// The proposal funnel counters, carried to the round record.
        funnel: FunnelCounts,
    },
    /// Measurements done; the cost-model (or MTL) update, curve point,
    /// and round record are pending.
    Training {
        /// The round being trained on.
        round: usize,
        /// The task tuned this round.
        task: usize,
        /// Successful measurements this round.
        measured: u64,
        /// Failed measurements this round.
        failed: u64,
        /// The proposal funnel counters for the round record.
        funnel: FunnelCounts,
    },
    /// Round `round - 1` just finished: decide whether to cut a cadence
    /// checkpoint, honor `halt_after`, and hand over to the next round.
    CheckpointDue {
        /// Rounds completed so far (the next round to propose).
        round: usize,
    },
    /// The campaign finished and emitted its end-of-campaign records.
    Done,
    /// The campaign hit a non-recoverable error (checkpoint or store
    /// write failure). [`Tuner::run`](crate::Tuner::run) panics with the
    /// reason; a supervisor turns it into a typed fault and restarts
    /// from the last good checkpoint.
    Failed {
        /// Human-readable description of what went wrong.
        reason: String,
    },
}

impl CampaignPhase {
    /// The round this phase belongs to: the next round to propose for
    /// boundary phases, the in-flight round for mid-round phases.
    pub fn round(&self) -> usize {
        match self {
            CampaignPhase::Init => 0,
            CampaignPhase::Proposing { round }
            | CampaignPhase::Measuring { round, .. }
            | CampaignPhase::Training { round, .. }
            | CampaignPhase::CheckpointDue { round } => *round,
            CampaignPhase::Done | CampaignPhase::Failed { .. } => usize::MAX,
        }
    }

    /// Stable snake_case name for trace records and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            CampaignPhase::Init => "init",
            CampaignPhase::Proposing { .. } => "proposing",
            CampaignPhase::Measuring { .. } => "measuring",
            CampaignPhase::Training { .. } => "training",
            CampaignPhase::CheckpointDue { .. } => "checkpoint_due",
            CampaignPhase::Done => "done",
            CampaignPhase::Failed { .. } => "failed",
        }
    }
}

/// What one [`Tuner::step`](crate::Tuner::step) reports back.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignStatus {
    /// More work remains; call `step` again.
    Running,
    /// The campaign completed; the result is ready.
    Done,
    /// The campaign failed with this reason (mirrors
    /// [`CampaignPhase::Failed`]).
    Failed(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_round_trips_through_json() {
        let phases = vec![
            CampaignPhase::Init,
            CampaignPhase::Proposing { round: 4 },
            CampaignPhase::Training {
                round: 2,
                task: 1,
                measured: 3,
                failed: 1,
                funnel: FunnelCounts::default(),
            },
            CampaignPhase::CheckpointDue { round: 6 },
            CampaignPhase::Done,
            CampaignPhase::Failed { reason: "disk gone".into() },
        ];
        for phase in phases {
            let json = serde_json::to_string(&phase).unwrap();
            let back: CampaignPhase = serde_json::from_str(&json).unwrap();
            assert_eq!(back, phase);
        }
    }

    #[test]
    fn labels_and_rounds_are_stable() {
        assert_eq!(CampaignPhase::Init.label(), "init");
        assert_eq!(CampaignPhase::Init.round(), 0);
        assert_eq!(CampaignPhase::Proposing { round: 7 }.round(), 7);
        assert_eq!(CampaignPhase::CheckpointDue { round: 3 }.label(), "checkpoint_due");
    }
}
