//! Training/prediction samples: featurized programs with optional labels.

use pruner_features::{
    features_arena_row, program_features, FLOW_DIM, MAX_FLOW, MAX_STMTS, MAX_TOKENS, STMT_DIM,
    TLP_DIM,
};
use pruner_nn::{Graph, Tensor};
use pruner_sketch::Program;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One featurized program, optionally labeled with a measured latency.
///
/// Features are extracted once at construction; models never see the
/// program itself. `task_id` groups samples that schedule the same
/// subgraph — ranking losses and ranking metrics only compare within a
/// group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// Flattened statement features, `MAX_STMTS × STMT_DIM`.
    pub stmt: Vec<f32>,
    /// Flattened data-flow features, `MAX_FLOW × FLOW_DIM`.
    pub flow: Vec<f32>,
    /// Flattened TLP tokens, `MAX_TOKENS × TLP_DIM`.
    pub tokens: Vec<f32>,
    /// Measured latency in seconds (`NaN` when unlabeled).
    pub latency: f64,
    /// Subgraph/tuning-task identifier for grouping.
    pub task_id: usize,
}

impl Sample {
    /// Featurizes a program with a measured latency label.
    pub fn labeled(prog: &Program, latency: f64, task_id: usize) -> Sample {
        let mut s = Sample::unlabeled(prog, task_id);
        s.latency = latency;
        s
    }

    /// Featurizes a program without a label (prediction-time candidates).
    pub fn unlabeled(prog: &Program, task_id: usize) -> Sample {
        let (stmt, flow, tokens) = program_features(prog);
        Sample { stmt, flow, tokens, latency: f64::NAN, task_id }
    }

    /// Whether the sample carries a latency label.
    pub(crate) fn is_labeled(&self) -> bool {
        self.latency.is_finite()
    }

    /// Featurizes arena candidate `i` without materializing a [`Program`]:
    /// the same feature writers as [`Sample::unlabeled`], fed from the
    /// arena's stats row, data-flow row and genes, so the bits equal those
    /// of the materialized program.
    ///
    /// # Panics
    /// Panics if `i` is out of range or the arena's stats are still
    /// deferred (see [`pruner_features::features_arena_row`]).
    pub fn from_arena(
        arena: &pruner_sketch::CandidateArena,
        i: usize,
        task_id: usize,
    ) -> Sample {
        let (stmt, flow, tokens) = features_arena_row(arena, i);
        Sample { stmt, flow, tokens, latency: f64::NAN, task_id }
    }
}

/// Groups the indices of the *labeled* samples by task id (groups sorted
/// by task, indices ascending, for determinism) — the ranking groups every
/// model's `fit` iterates. Unlabeled samples belong to no group.
pub(crate) fn labeled_groups(samples: &[Sample]) -> Vec<Vec<usize>> {
    let mut map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate().filter(|(_, s)| s.is_labeled()) {
        map.entry(s.task_id).or_default().push(i);
    }
    map.into_values().collect()
}

/// Copies one fixed-width feature block per pick into `dst`.
fn fill_stack(dst: &mut [f32], samples: &[Sample], picks: &[usize], f: impl Fn(&Sample) -> &[f32]) {
    let width = dst.len() / picks.len().max(1);
    for (block, &i) in dst.chunks_mut(width).zip(picks) {
        block.copy_from_slice(f(&samples[i]));
    }
}

/// Stacks statement features of the picked samples: `[n·MAX_STMTS, STMT_DIM]`,
/// drawn from `g`'s buffer pool — allocation-free once warm.
pub(crate) fn stack_stmt_in(g: &mut Graph, samples: &[Sample], picks: &[usize]) -> Tensor {
    let mut t = g.scratch(picks.len() * MAX_STMTS, STMT_DIM);
    fill_stack(t.as_mut_slice(), samples, picks, |s| &s.stmt);
    t
}

/// Stacks data-flow features: `[n·MAX_FLOW, FLOW_DIM]`, drawn from `g`'s
/// buffer pool — allocation-free once warm.
pub(crate) fn stack_flow_in(g: &mut Graph, samples: &[Sample], picks: &[usize]) -> Tensor {
    let mut t = g.scratch(picks.len() * MAX_FLOW, FLOW_DIM);
    fill_stack(t.as_mut_slice(), samples, picks, |s| &s.flow);
    t
}

/// Stacks TLP tokens: `[n·MAX_TOKENS, TLP_DIM]`, drawn from `g`'s buffer
/// pool — allocation-free once warm.
pub(crate) fn stack_tokens_in(g: &mut Graph, samples: &[Sample], picks: &[usize]) -> Tensor {
    let mut t = g.scratch(picks.len() * MAX_TOKENS, TLP_DIM);
    fill_stack(t.as_mut_slice(), samples, picks, |s| &s.tokens);
    t
}

/// Stacks statement features summed over statements: `[n, STMT_DIM]`,
/// drawn from `g`'s buffer pool — allocation-free once warm.
pub(crate) fn stack_pooled_in(g: &mut Graph, samples: &[Sample], picks: &[usize]) -> Tensor {
    let mut t = g.scratch(picks.len(), STMT_DIM);
    for (row, &i) in t.as_mut_slice().chunks_mut(STMT_DIM).zip(picks) {
        let mut acc = [0.0f32; STMT_DIM];
        for chunk in samples[i].stmt.chunks(STMT_DIM) {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a += v;
            }
        }
        row.copy_from_slice(&acc);
    }
    t
}

/// Builds attention masks for a stacked `[n·group, dim]` sequence tensor
/// whose padding rows are all-zero.
///
/// Returns `(col_mask, row_mask)`: `col_mask` is `[n·group, group]` holding
/// `0.0` at real key positions and `-1e9` at padded ones (added to attention
/// logits); `row_mask` is `[n·group, width]` holding `1.0` on real rows and
/// `0.0` on padded rows (multiplied into the encoder output before pooling
/// so padding contributes nothing).
///
/// The masks are drawn from `g`'s buffer pool — allocation-free once warm.
///
/// # Panics
/// Panics if the row count is not a multiple of `group`.
pub(crate) fn attention_masks_in(
    g: &mut Graph,
    stacked: &Tensor,
    group: usize,
    width: usize,
) -> (Tensor, Tensor) {
    let rows = stacked.rows();
    let mut col = g.scratch(rows, group);
    let mut row = g.scratch(rows, width);
    // Scratch buffers carry stale contents; the fill below writes every cell.
    col.as_mut_slice().fill(0.0);
    row.as_mut_slice().fill(0.0);
    fill_masks(stacked, group, &mut col, &mut row);
    (col, row)
}

fn fill_masks(stacked: &Tensor, group: usize, col: &mut Tensor, row: &mut Tensor) {
    let rows = stacked.rows();
    assert!(group > 0 && rows.is_multiple_of(group), "rows must divide into groups");
    // Each row is tested once: a real row lights its own `row_mask` row, a
    // padded one masks its key column for every query row of its group.
    for base in (0..rows).step_by(group) {
        for j in 0..group {
            if stacked.row(base + j).iter().any(|&v| v != 0.0) {
                row.row_mut(base + j).fill(1.0);
            } else {
                for r in base..base + group {
                    *col.at_mut(r, j) = -1e9;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pruner_ir::Workload;
    use pruner_sketch::HardwareLimits;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn samples() -> Vec<Sample> {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let limits = HardwareLimits::default();
        let mut out = Vec::new();
        for (task, wl) in
            [Workload::matmul(1, 128, 128, 128), Workload::matmul(1, 256, 256, 256)]
                .iter()
                .enumerate()
        {
            for k in 0..3 {
                let p = Program::sample(wl, &limits, &mut rng);
                out.push(Sample::labeled(&p, 1e-3 * (k + 1) as f64, task));
            }
        }
        out
    }

    #[test]
    fn feature_lengths() {
        let s = &samples()[0];
        assert_eq!(s.stmt.len(), MAX_STMTS * STMT_DIM);
        assert_eq!(s.flow.len(), MAX_FLOW * FLOW_DIM);
        assert_eq!(s.tokens.len(), MAX_TOKENS * TLP_DIM);
        assert!(s.is_labeled());
    }

    #[test]
    fn from_arena_matches_unlabeled_bitwise() {
        for wl in [
            Workload::matmul(1, 256, 256, 256),
            Workload::elementwise(pruner_ir::EwKind::Gelu, 1 << 16),
            Workload::reduction(1024, 512),
        ] {
            let ctx = std::sync::Arc::new(pruner_sketch::WorkloadCtx::new(&wl));
            let mut arena = pruner_sketch::evolve::init_arena_par(
                &ctx,
                13,
                &HardwareLimits::default(),
                5,
                0,
                1,
            );
            arena.ensure_stats();
            for i in 0..arena.len() {
                let via_arena = Sample::from_arena(&arena, i, 3);
                let legacy = Sample::unlabeled(&arena.program(i), 3);
                assert_eq!(via_arena.stmt, legacy.stmt);
                assert_eq!(via_arena.flow, legacy.flow);
                assert_eq!(via_arena.tokens, legacy.tokens);
                assert_eq!(via_arena.task_id, 3);
                assert!(!via_arena.is_labeled());
            }
        }
    }

    #[test]
    fn unlabeled_is_nan() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = Program::sample(
            &Workload::matmul(1, 64, 64, 64),
            &HardwareLimits::default(),
            &mut rng,
        );
        assert!(!Sample::unlabeled(&p, 0).is_labeled());
    }

    #[test]
    fn grouping_by_task() {
        let mut s = samples();
        let groups = labeled_groups(&s);
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(|g| g.len() == 3));
        assert!(groups[0].iter().all(|&i| s[i].task_id == 0));
        // Unlabeled samples drop out; indices still refer to `s`.
        s[0].latency = f64::NAN;
        assert_eq!(labeled_groups(&s), vec![vec![1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn stacking_shapes() {
        let s = samples();
        let picks: Vec<usize> = (0..4).collect();
        let g = &mut Graph::new();
        assert_eq!(stack_stmt_in(g, &s, &picks).shape(), (4 * MAX_STMTS, STMT_DIM));
        assert_eq!(stack_flow_in(g, &s, &picks).shape(), (4 * MAX_FLOW, FLOW_DIM));
        assert_eq!(stack_tokens_in(g, &s, &picks).shape(), (4 * MAX_TOKENS, TLP_DIM));
        assert_eq!(stack_pooled_in(g, &s, &picks).shape(), (4, STMT_DIM));
    }

    #[test]
    fn pooled_equals_manual_sum() {
        let s = samples();
        let pooled = stack_pooled_in(&mut Graph::new(), &s, &[0]);
        let manual: f32 = s[0].stmt.iter().step_by(STMT_DIM).sum();
        assert!((pooled.at(0, 0) - manual).abs() < 1e-5);
    }
}
