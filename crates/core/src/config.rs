//! Configuration of a Leopard deployment: protocol parameters, timers, workload model
//! and the shared key material.

use crate::byzantine::ByzantineBehavior;
use leopard_crypto::provider::{CryptoMode, SharedKeys};
use leopard_simnet::SimDuration;
use leopard_types::{CostModelKind, ProtocolParams};
use std::sync::Arc;

/// How client requests enter the system.
///
/// In the paper clients are separate machines submitting to their neighbouring replica
/// (with the deterministic assignment function `µ(req)` balancing load). In this
/// reproduction the client stub lives inside each replica: it injects synthetic requests
/// into the replica's mempool and measures acknowledgement latency, which keeps the
/// simulation's event count proportional to protocol messages rather than requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadMode {
    /// Clients submit an aggregate of `aggregate_rps` requests per second, spread evenly
    /// over the non-leader replicas (open loop).
    OpenLoop {
        /// Total offered load in requests per second across the whole system.
        aggregate_rps: u64,
    },
    /// Every non-leader replica always has enough pending requests to fill a datablock
    /// (the paper's "saturated request rate" stress test). `pacing` bounds how often a
    /// replica may emit a datablock, modelling the per-datablock CPU cost measured in
    /// Table IV.
    Saturated {
        /// Minimum interval between two datablocks from the same replica.
        pacing: SimDuration,
    },
}

/// Full configuration of one Leopard replica.
#[derive(Debug, Clone)]
pub struct LeopardConfig {
    /// Structural protocol parameters (n, f, batch sizes, payload and header sizes).
    pub params: ProtocolParams,
    /// Workload model of the embedded client stub.
    pub workload: WorkloadMode,
    /// How often a non-leader replica flushes a partially filled datablock.
    pub batch_timeout: SimDuration,
    /// How often the leader checks whether it can propose a new BFTblock.
    pub propose_interval: SimDuration,
    /// How long a replica waits for a missing datablock before querying the committee.
    pub retrieval_timeout: SimDuration,
    /// Confirmation-progress watchdog: if no BFTblock is confirmed for this long while
    /// work is outstanding, the replica complains (timeout message → view-change).
    pub progress_timeout: SimDuration,
    /// Stop generating client traffic at this offset from the start of the run, or
    /// `None` to offer load for the whole run. The large-scale sweeps (`fig9xl`) use
    /// this as a drain window: at n ≥ 2000 disseminating one datablock takes a large
    /// fraction of the run, so load must stop early enough that in-flight datablocks
    /// land before the end-of-run invariant snapshot judges availability.
    pub workload_stop: Option<SimDuration>,
    /// Checkpoint period in BFTblocks (the paper uses `k / 2`).
    pub checkpoint_interval: u64,
    /// Byzantine behaviour injected into this replica (honest by default).
    pub byzantine: ByzantineBehavior,
    /// Whether crypto executes its field/erasure work for real or skips it while
    /// charging identical modeled time (see `leopard_crypto::provider`).
    pub crypto_mode: CryptoMode,
    /// Which per-operation compute-cost calibration the replicas charge.
    pub cost_model: CostModelKind,
}

impl LeopardConfig {
    /// A configuration following the paper's defaults for scale `n`, with an open-loop
    /// workload of `aggregate_rps` requests per second. (The harness keeps the timers
    /// and replaces the workload with [`WorkloadMode::Saturated`] paced to that rate.)
    pub fn paper(n: usize, aggregate_rps: u64) -> Self {
        let params = ProtocolParams::paper_defaults(n);
        Self {
            checkpoint_interval: (params.max_parallel_instances as u64 / 2).max(1),
            params,
            workload: WorkloadMode::OpenLoop { aggregate_rps },
            batch_timeout: SimDuration::from_millis(50),
            propose_interval: SimDuration::from_millis(20),
            retrieval_timeout: SimDuration::from_millis(100),
            progress_timeout: SimDuration::from_secs(2),
            workload_stop: None,
            byzantine: ByzantineBehavior::Honest,
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// A small, fast configuration for unit and integration tests.
    pub fn small_test(n: usize) -> Self {
        let mut params = ProtocolParams::paper_defaults(n);
        params.datablock_size = 8;
        params.bftblock_size = 4;
        params.max_parallel_instances = 16;
        Self {
            params,
            workload: WorkloadMode::OpenLoop { aggregate_rps: 2_000 },
            batch_timeout: SimDuration::from_millis(20),
            propose_interval: SimDuration::from_millis(10),
            retrieval_timeout: SimDuration::from_millis(50),
            progress_timeout: SimDuration::from_millis(500),
            workload_stop: None,
            checkpoint_interval: 8,
            byzantine: ByzantineBehavior::Honest,
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// Overrides the workload mode.
    pub fn with_workload(mut self, workload: WorkloadMode) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the number of concurrent proposers `p` (the PR 9 multi-proposer
    /// agreement plane; `1` = the classic single-leader protocol).
    pub fn with_proposers(mut self, proposers: usize) -> Self {
        self.params.proposers = proposers;
        self
    }

    /// Overrides the Byzantine behaviour.
    pub fn with_byzantine(mut self, behaviour: ByzantineBehavior) -> Self {
        self.byzantine = behaviour;
        self
    }

    /// Overrides the crypto mode (real vs metered execution).
    pub fn with_crypto_mode(mut self, mode: CryptoMode) -> Self {
        self.crypto_mode = mode;
        self
    }

    /// Generates the shared key material (crypto provider + per-replica key pairs) for
    /// a system with this configuration, honouring its crypto mode and cost model.
    pub fn shared_keys(config: &LeopardConfig, seed: u64) -> Arc<SharedKeys> {
        Arc::new(SharedKeys::generate(
            config.params.quorum(),
            config.params.n,
            seed,
            config.crypto_mode,
            config.cost_model.model(),
        ))
    }

    /// Validates the configuration.
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.params.validate()?;
        if self.checkpoint_interval == 0 {
            return Err("checkpoint_interval must be positive".to_string());
        }
        if let WorkloadMode::OpenLoop { aggregate_rps } = self.workload {
            if aggregate_rps == 0 {
                return Err("aggregate_rps must be positive for an open-loop workload".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let config = LeopardConfig::paper(64, 100_000);
        assert!(config.validate().is_ok());
        assert_eq!(config.params.datablock_size, 2000);
        assert_eq!(config.checkpoint_interval, 50);
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(LeopardConfig::small_test(4).validate().is_ok());
        assert!(LeopardConfig::small_test(7).validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_rate_and_zero_interval() {
        let config = LeopardConfig::small_test(4).with_workload(WorkloadMode::OpenLoop { aggregate_rps: 0 });
        assert!(config.validate().is_err());
        let mut config = LeopardConfig::small_test(4);
        config.checkpoint_interval = 0;
        assert!(config.validate().is_err());
    }

    #[test]
    fn shared_keys_cover_every_replica() {
        let config = LeopardConfig::small_test(7);
        let keys = LeopardConfig::shared_keys(&config, 1);
        assert_eq!(keys.keypairs.len(), 7);
        assert_eq!(keys.provider.scheme().threshold(), 5);
        assert_eq!(keys.keypair(3).index, 4); // 1-based signer index
    }

    #[test]
    fn builder_style_overrides() {
        let config = LeopardConfig::small_test(4)
            .with_workload(WorkloadMode::Saturated {
                pacing: SimDuration::from_millis(5),
            })
            .with_byzantine(ByzantineBehavior::SilentLeader);
        assert_eq!(
            config.workload,
            WorkloadMode::Saturated {
                pacing: SimDuration::from_millis(5)
            }
        );
        assert_eq!(config.byzantine, ByzantineBehavior::SilentLeader);
    }
}
