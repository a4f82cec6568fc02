//! Configuration of a Leopard deployment: protocol parameters, timers, workload model
//! and the shared key material.

use crate::byzantine::ByzantineBehavior;
use crate::retrieval::REQUERY_TIMEOUTS;
use leopard_crypto::provider::{CryptoMode, SharedKeys};
use leopard_erasure::ReedSolomon;
use leopard_simnet::{LinkConfig, SimDuration};
use leopard_types::{CostModelKind, ProtocolParams};
use std::sync::Arc;

/// How client requests enter the system.
///
/// As in the paper's evaluation (Algorithm 1, §VI), every non-proposer replica is a
/// saturated producer: it always has a full datablock's worth of requests and packs one
/// datablock per `pacing` period, numbering the requests itself and measuring their
/// latency from the datablock's creation to its execution.
///
/// `#[non_exhaustive]` because the benchmark's `mirror.rs` matches it with a wildcard
/// arm, which a one-variant enum would otherwise turn into an unreachable-pattern
/// warning.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WorkloadMode {
    /// Every non-proposer replica always has enough pending requests to fill a
    /// datablock (the paper's "saturated request rate" stress test). `pacing` bounds
    /// how often a replica emits a datablock, modelling the per-datablock CPU cost
    /// measured in Table IV.
    Saturated {
        /// Interval between two datablocks from the same replica.
        pacing: SimDuration,
    },
}

impl WorkloadMode {
    /// The saturated pacing at which the `n − p` producers of `params` together offer
    /// `aggregate_rps` requests per second in full datablocks (proposers produce none).
    ///
    /// # Panics
    ///
    /// Panics if `aggregate_rps` is zero (the pacing divides by it).
    pub fn paced(params: &ProtocolParams, aggregate_rps: u64) -> Self {
        assert!(
            aggregate_rps > 0,
            "saturated pacing: aggregate_rps must be positive"
        );
        let producers = (params.n - params.proposers.max(1)).max(1) as f64;
        let pacing_secs = producers * params.datablock_size as f64 / aggregate_rps as f64;
        WorkloadMode::Saturated {
            pacing: SimDuration::from_secs_f64(pacing_secs),
        }
    }
}

/// Full configuration of one Leopard replica.
#[derive(Debug, Clone)]
pub struct LeopardConfig {
    /// Structural protocol parameters (n, f, batch sizes, payload and header sizes).
    pub params: ProtocolParams,
    /// How often each producer packs a datablock.
    pub workload: WorkloadMode,
    /// The re-query spacing: a retrieval still pending [`REQUERY_TIMEOUTS`] of these
    /// after its last query is queried again (its query or the responses were lost).
    /// A missing datablock's first query waits [`Self::first_query_wait`] instead.
    pub retrieval_timeout: SimDuration,
    /// How long after a replica notes a datablock missing it first queries the
    /// committee for it, from the retrieval wake-up: long enough that a datablock still in
    /// honest flight arrives first (derived from the network by the harness, see
    /// [`Self::first_query_wait_for`]).
    pub first_query_wait: SimDuration,
    /// Confirmation-progress watchdog: if no BFTblock is confirmed for this long while
    /// work is outstanding, the replica complains (timeout message → view-change).
    pub progress_timeout: SimDuration,
    /// Stop generating client traffic at this offset from the start of the run, or
    /// `None` to offer load for the whole run. The large-scale sweeps (`fig9xl`) use
    /// this as a drain window: at n ≥ 2000 disseminating one datablock takes a large
    /// fraction of the run, so load must stop early enough that in-flight datablocks
    /// land before the end-of-run invariant snapshot judges availability.
    pub workload_stop: Option<SimDuration>,
    /// Byzantine behaviour injected into this replica (honest by default).
    pub byzantine: ByzantineBehavior,
    /// Whether crypto executes its field/erasure work for real or skips it while
    /// charging identical modeled time (see `leopard_crypto::provider`).
    pub crypto_mode: CryptoMode,
    /// Which per-operation compute-cost calibration the replicas charge.
    pub cost_model: CostModelKind,
}

impl LeopardConfig {
    /// A configuration following the paper's defaults for scale `n`, with saturated
    /// producers paced to offer `aggregate_rps` requests per second altogether.
    ///
    /// # Panics
    ///
    /// Panics if `aggregate_rps` is zero.
    pub fn paper(n: usize, aggregate_rps: u64) -> Self {
        let params = ProtocolParams::paper_defaults(n);
        // The paper's network: every replica on the same 9.8 Gbps LAN.
        let uplink_bps = LinkConfig::paper_default().uplink_bps as f64;
        let dissemination_secs = (n - 1) as f64 * params.alpha_bytes() as f64 * 8.0 / uplink_bps;
        Self {
            workload: WorkloadMode::paced(&params, aggregate_rps),
            params,
            retrieval_timeout: SimDuration::from_millis(100),
            first_query_wait: Self::first_query_wait_for(dissemination_secs, SimDuration::ZERO),
            progress_timeout: SimDuration::from_secs(2),
            workload_stop: None,
            byzantine: ByzantineBehavior::Honest,
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// A small, fast configuration for unit and integration tests (2,000 requests per
    /// second in datablocks of 8).
    pub fn small_test(n: usize) -> Self {
        let mut params = ProtocolParams::paper_defaults(n);
        params.datablock_size = 8;
        params.bftblock_size = 4;
        params.max_parallel_instances = 16;
        Self {
            workload: WorkloadMode::paced(&params, 2_000),
            params,
            retrieval_timeout: SimDuration::from_millis(50),
            first_query_wait: Self::MIN_FIRST_QUERY_WAIT,
            progress_timeout: SimDuration::from_millis(500),
            workload_stop: None,
            byzantine: ByzantineBehavior::Honest,
            crypto_mode: CryptoMode::Real,
            cost_model: CostModelKind::Calibrated,
        }
    }

    /// The shortest [`Self::first_query_wait`] a derivation gives.
    pub const MIN_FIRST_QUERY_WAIT: SimDuration = SimDuration(10_000_000);

    /// The first-query wait for a network on which one datablock takes
    /// `dissemination_secs` to leave its producer's uplink for all `n − 1` peers, with
    /// `headroom` on top for propagation: two dissemination times plus the headroom, at
    /// least [`Self::MIN_FIRST_QUERY_WAIT`]. One dissemination time is not enough: a
    /// receiver late in a fan-out also waits behind its own downlink backlog (at n = 400
    /// on the paper's LAN a copy lands up to 243 ms after its digest was noted missing,
    /// against 167 ms for one dissemination), and a query sent before its copy lands is
    /// wasted work on every responder.
    pub fn first_query_wait_for(dissemination_secs: f64, headroom: SimDuration) -> SimDuration {
        (SimDuration::from_secs_f64(2.0 * dissemination_secs) + headroom)
            .max(Self::MIN_FIRST_QUERY_WAIT)
    }

    /// Checkpoint period in BFTblocks: `k / 2`, as in the paper.
    pub fn checkpoint_interval(&self) -> u64 {
        (self.params.max_parallel_instances as u64 / 2).max(1)
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
        let WorkloadMode::Saturated { pacing } = self.workload;
        if pacing == SimDuration::ZERO {
            return Err("the saturated pacing must be positive".to_string());
        }
        // Retrieval erasure-codes a datablock into one shard per replica; real bytes
        // stop at the field's size, while metered crypto only charges the cost.
        if self.crypto_mode == CryptoMode::Real && self.params.n > ReedSolomon::MAX_SHARDS {
            return Err(format!(
                "real crypto supports at most {} replicas (retrieval's Reed–Solomon code \
                 works over GF(2^8)), got n = {}; use metered crypto above that",
                ReedSolomon::MAX_SHARDS,
                self.params.n
            ));
        }
        // The first query must come before the loss detector's requery would.
        let requery_after = self.retrieval_timeout.saturating_mul(REQUERY_TIMEOUTS);
        if self.first_query_wait == SimDuration::ZERO || self.first_query_wait > requery_after {
            return Err(format!(
                "the first-query wait must be positive and at most {REQUERY_TIMEOUTS} retrieval \
                 timeouts ({requery_after}), got {}",
                self.first_query_wait
            ));
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
        assert_eq!(config.checkpoint_interval(), 50);
        // 63 producers × 2000 requests / 100,000 requests per second.
        assert_eq!(
            config.workload,
            WorkloadMode::Saturated {
                pacing: SimDuration::from_millis(1_260)
            }
        );
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(LeopardConfig::small_test(4).validate().is_ok());
        assert!(LeopardConfig::small_test(7).validate().is_ok());
        assert_eq!(LeopardConfig::small_test(4).checkpoint_interval(), 8);
    }

    #[test]
    fn validation_rejects_zero_pacing() {
        let mut config = LeopardConfig::small_test(4);
        config.workload = WorkloadMode::Saturated {
            pacing: SimDuration::ZERO,
        };
        let message = config.validate().unwrap_err();
        assert!(message.contains("pacing"), "{message}");
    }

    #[test]
    fn validation_rejects_a_first_query_wait_outside_the_requery_window() {
        let mut config = LeopardConfig::small_test(4);
        config.first_query_wait = SimDuration::ZERO;
        let message = config.validate().unwrap_err();
        assert!(message.contains("first-query wait"), "{message}");
        config.first_query_wait = config.retrieval_timeout.saturating_mul(REQUERY_TIMEOUTS);
        assert!(config.validate().is_ok());
        config.first_query_wait = SimDuration(config.first_query_wait.as_nanos() + 1);
        let message = config.validate().unwrap_err();
        assert!(message.contains("first-query wait"), "{message}");
    }

    /// The paper's configuration waits two dissemination times on the paper's LAN, and
    /// a small datablock waits the floor.
    #[test]
    fn the_first_query_waits_two_dissemination_times() {
        // n = 400: 399 peers × 4000 × 128 B × 8 bit / 9.8 Gbps = 166.77 ms.
        let dissemination_secs = 399.0 * 4000.0 * 128.0 * 8.0 / 9.8e9;
        assert_eq!(
            LeopardConfig::paper(400, 130_000).first_query_wait,
            SimDuration::from_secs_f64(2.0 * dissemination_secs)
        );
        assert_eq!(
            LeopardConfig::first_query_wait_for(0.0, SimDuration::from_millis(3)),
            LeopardConfig::MIN_FIRST_QUERY_WAIT
        );
        assert_eq!(
            LeopardConfig::first_query_wait_for(0.01, SimDuration::from_millis(3)),
            SimDuration::from_millis(23)
        );
    }

    #[test]
    fn real_crypto_is_rejected_above_the_erasure_field() {
        let message = LeopardConfig::paper(257, 100_000).validate().unwrap_err();
        assert!(message.contains("GF(2^8)"), "{message}");
        assert!(LeopardConfig::paper(256, 100_000).validate().is_ok());
        assert!(LeopardConfig::paper(257, 100_000)
            .with_crypto_mode(CryptoMode::Metered)
            .validate()
            .is_ok());
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
            .with_proposers(2)
            .with_byzantine(ByzantineBehavior::SilentLeader);
        assert_eq!(config.params.proposers, 2);
        assert_eq!(config.byzantine, ByzantineBehavior::SilentLeader);
    }
}
