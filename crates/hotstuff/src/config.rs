//! HotStuff baseline configuration.

use leopard_crypto::provider::{CryptoMode, SharedKeys};
use leopard_simnet::SimDuration;
use leopard_types::{quorum_size, CostModelKind, PAPER_PAYLOAD_SIZE};
use std::sync::Arc;

/// Configuration of one HotStuff replica.
#[derive(Debug, Clone)]
pub struct HotStuffConfig {
    /// Number of replicas `n = 3f + 1`.
    pub n: usize,
    /// Request payload size in bytes.
    pub payload_size: usize,
    /// Number of requests batched into one block.
    pub batch_size: usize,
    /// Offered client load in requests per second (clients submit to the leader).
    pub aggregate_rps: u64,
    /// Pacemaker timeout: the view is abandoned if no block commits for this long while
    /// requests are outstanding.
    pub progress_timeout: SimDuration,
    /// Whether crypto executes its field work for real or skips it while charging
    /// identical modeled time.
    pub crypto_mode: CryptoMode,
    /// Which per-operation compute-cost calibration the replicas charge.
    pub cost_model: CostModelKind,
}

impl HotStuffConfig {
    /// The paper's HotStuff batch: requests per block (Table II).
    pub const PAPER_BATCH_SIZE: usize = 800;

    /// The paper's configuration for scale `n` ([`PAPER_PAYLOAD_SIZE`]-byte payloads,
    /// [`Self::PAPER_BATCH_SIZE`] requests per block) with an open-loop load of
    /// `aggregate_rps` requests per second.
    pub fn paper(n: usize, aggregate_rps: u64) -> Self {
        Self {
            n,
            payload_size: PAPER_PAYLOAD_SIZE,
            batch_size: Self::PAPER_BATCH_SIZE,
            aggregate_rps,
            progress_timeout: SimDuration::from_secs(2),
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// A small, fast configuration for tests.
    pub fn small_test(n: usize) -> Self {
        Self {
            n,
            payload_size: PAPER_PAYLOAD_SIZE,
            batch_size: 16,
            aggregate_rps: 2_000,
            progress_timeout: SimDuration::from_millis(500),
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// Quorum size, [`quorum_size`].
    pub fn quorum(&self) -> usize {
        quorum_size(self.n)
    }

    /// Generates the shared threshold-signature key material for this configuration,
    /// honouring its crypto mode and cost model.
    pub fn shared_keys(&self, seed: u64) -> Arc<SharedKeys> {
        Arc::new(SharedKeys::generate(
            self.quorum(),
            self.n,
            seed,
            self.crypto_mode,
            self.cost_model.model(),
        ))
    }

    /// Validates the configuration.
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 4 {
            return Err(format!("n must be at least 4, got {}", self.n));
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".to_string());
        }
        if self.payload_size == 0 {
            return Err("payload_size must be positive".to_string());
        }
        if self.aggregate_rps == 0 {
            return Err("aggregate_rps must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_and_test_configs_validate() {
        assert!(HotStuffConfig::paper(128, 100_000).validate().is_ok());
        assert!(HotStuffConfig::small_test(4).validate().is_ok());
    }

    #[test]
    fn validation_catches_errors() {
        let mut config = HotStuffConfig::small_test(4);
        config.n = 3;
        assert!(config.validate().is_err());
        let mut config = HotStuffConfig::small_test(4);
        config.batch_size = 0;
        assert!(config.validate().is_err());
        // Zero offered load is a misconfiguration, not a mode.
        let mut config = HotStuffConfig::small_test(4);
        config.aggregate_rps = 0;
        let message = config.validate().unwrap_err();
        assert!(message.contains("aggregate_rps"), "{message}");
    }

    #[test]
    fn quorum_math() {
        let config = HotStuffConfig::paper(301, 100_000);
        assert_eq!(config.quorum(), 201);
    }

    #[test]
    fn shared_keys_match_scale() {
        let config = HotStuffConfig::small_test(7);
        let keys = config.shared_keys(3);
        assert_eq!(keys.keypairs.len(), 7);
        assert_eq!(keys.provider.scheme().threshold(), 5);
    }
}
