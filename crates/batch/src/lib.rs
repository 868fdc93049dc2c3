//! # atena-batch
//!
//! Lane-batched inference planning. Every lane in a rollout shard
//! evaluates the same small actor-critic MLP over one observation per env
//! step; the hot path is therefore many tiny matmuls plus their per-call
//! overhead. [`BatchPlanner`] turns N single-row forwards into one
//! `[B, obs_dim]` forward: rows are packed in a fixed order into
//! `max_batch`-sized chunks, the batched forward runs once per chunk, and
//! per-row outputs are handed back in exactly the input order.
//!
//! Batching here is **execution-only** under the determinism contract: the
//! kernels in `atena-nn` guarantee that row `i` of a batched forward is
//! bit-identical to a one-row forward of the same observation, and the
//! planner keys every result to its input row — so transcripts and
//! checkpoints cannot depend on batch size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use atena_nn::Tensor;

/// Pack per-source observation rows into one `[B, obs_dim]` tensor.
///
/// # Panics
/// Panics if any row's length differs from `obs_dim`.
fn gather(rows: &[Vec<f32>], obs_dim: usize) -> Tensor {
    let mut data = Vec::with_capacity(rows.len() * obs_dim);
    for row in rows {
        assert_eq!(row.len(), obs_dim, "observation width mismatch in batch");
        data.extend_from_slice(row);
    }
    Tensor::from_vec(rows.len(), obs_dim, data)
}

/// Synchronous gather → batched forward → scatter, in fixed input order.
///
/// The planner owns no model: callers pass the batched forward as a
/// closure mapping `[B, obs_dim]` to one output per row, which keeps the
/// crate usable for any per-row result type (policy rows, logits, values).
#[derive(Debug, Clone, Copy)]
pub struct BatchPlanner {
    obs_dim: usize,
    max_batch: usize,
}

impl BatchPlanner {
    /// A planner for `obs_dim`-wide observations flushing at most
    /// `max_batch` rows per forward (`0` is treated as `1`).
    pub fn new(obs_dim: usize, max_batch: usize) -> Self {
        Self {
            obs_dim,
            max_batch: max_batch.max(1),
        }
    }

    /// Observation width.
    pub fn obs_dim(&self) -> usize {
        self.obs_dim
    }

    /// Maximum rows per batched forward.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Gather `rows` into ≤ `max_batch`-row chunks, run `forward` once per
    /// chunk, and return one output per input row **in input order**. The
    /// chunk boundaries never reorder rows, so output `i` always belongs
    /// to `rows[i]`.
    ///
    /// # Panics
    /// Panics if a row's width differs from `obs_dim` or `forward` returns
    /// a different number of outputs than its chunk has rows.
    pub fn run<R>(&self, rows: &[Vec<f32>], mut forward: impl FnMut(&Tensor) -> Vec<R>) -> Vec<R> {
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(self.max_batch) {
            let batch = gather(chunk, self.obs_dim);
            let results = forward(&batch);
            assert_eq!(
                results.len(),
                chunk.len(),
                "batched forward returned {} outputs for {} rows",
                results.len(),
                chunk.len()
            );
            out.extend(results);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Batched "model": each row maps to its sum.
    fn row_sums(batch: &Tensor) -> Vec<f32> {
        (0..batch.rows())
            .map(|r| batch.row(r).iter().sum::<f32>())
            .collect()
    }

    #[test]
    fn planner_preserves_input_order_across_chunks() {
        let planner = BatchPlanner::new(2, 4);
        let rows: Vec<Vec<f32>> = (0..11).map(|i| vec![i as f32, 1.0]).collect();
        let mut chunk_sizes = Vec::new();
        let out = planner.run(&rows, |batch| {
            chunk_sizes.push(batch.rows());
            row_sums(batch)
        });
        assert_eq!(chunk_sizes, vec![4, 4, 3]);
        let expect: Vec<f32> = (0..11).map(|i| i as f32 + 1.0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn planner_batch_zero_means_one() {
        let planner = BatchPlanner::new(1, 0);
        assert_eq!(planner.max_batch(), 1);
        let out = planner.run(&[vec![2.0], vec![3.0]], row_sums);
        assert_eq!(out, vec![2.0, 3.0]);
    }
}
