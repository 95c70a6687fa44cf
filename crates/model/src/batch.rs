//! Batch configuration: sequence length, micro-batch size and count.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-iteration batching parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Sequence length per sample.
    pub seq_len: u64,
    /// Samples per micro-batch per model replica.
    pub microbatch_size: u64,
    /// Micro-batches per pipeline per iteration.
    pub num_microbatches: u32,
}

impl BatchConfig {
    /// GPT-3/MLPerf default: 2 048-token sequences, micro-batch 1.
    pub fn gpt3_default(num_microbatches: u32) -> Self {
        BatchConfig {
            seq_len: 2_048,
            microbatch_size: 1,
            num_microbatches,
        }
    }

    /// Tokens processed per micro-batch per replica.
    pub fn tokens_per_microbatch(&self) -> u64 {
        self.seq_len * self.microbatch_size
    }

    /// Global batch size in samples across `dp` replicas.
    pub fn global_batch(&self, dp: u32) -> u64 {
        self.microbatch_size * self.num_microbatches as u64 * dp as u64
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::gpt3_default(8)
    }
}

impl fmt::Display for BatchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seq={} mbs={} num_mb={}",
            self.seq_len, self.microbatch_size, self.num_microbatches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let b = BatchConfig {
            seq_len: 2048,
            microbatch_size: 2,
            num_microbatches: 8,
        };
        assert_eq!(b.tokens_per_microbatch(), 4096);
        assert_eq!(b.global_batch(4), 64);
    }
}
