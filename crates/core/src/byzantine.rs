//! Protocol-level Byzantine behaviours that can be injected into a replica.
//!
//! Network-level interference (selective datablock dissemination, crashes) is injected
//! below the protocol by [`leopard_simnet::FaultPlan`]; the behaviours here change what
//! the replica itself does. Both are used by the failure experiments (§VI-D) and the
//! safety tests.

/// A replica's behaviour profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzantineBehavior {
    /// Follow the protocol.
    #[default]
    Honest,
    /// As leader, never propose any BFTblock (progress stalls until a view-change).
    SilentLeader,
    /// As leader, propose two conflicting BFTblocks with the same serial number: the
    /// first half of the replicas receives one block, the second half the other.
    /// Safety must still hold (at most one of them can ever be confirmed).
    EquivocatingLeader,
    /// Never vote (neither prepare nor commit) and never send ready messages.
    WithholdVotes,
    /// Produce datablocks but never respond to retrieval queries.
    IgnoreQueries,
    /// Answer state-transfer requests with a corrupted checkpoint proof and tampered
    /// confirmed entries. Honest requesters must reject every lie and still catch up
    /// from the remaining (honest) responders.
    LyingStateResponder,
    /// At every checkpoint height, send the leader a share over a divergent state
    /// digest instead of the honest one. The honest 2f+1 quorum must still form.
    EquivocatingCheckpointer,
    /// Never answer state-transfer requests at all (the recovery-plane analogue of
    /// [`ByzantineBehavior::IgnoreQueries`]). Requesters fan out to f+1 responders,
    /// so at least one honest answer always arrives.
    SilentStateResponder,
}

impl ByzantineBehavior {
    /// True if the behaviour deviates from the protocol.
    pub fn is_byzantine(&self) -> bool {
        !matches!(self, ByzantineBehavior::Honest)
    }

    /// Every non-honest behaviour, in a fixed order the chaos generator draws from.
    pub fn all_byzantine() -> &'static [ByzantineBehavior] {
        &[
            ByzantineBehavior::SilentLeader,
            ByzantineBehavior::EquivocatingLeader,
            ByzantineBehavior::WithholdVotes,
            ByzantineBehavior::IgnoreQueries,
            ByzantineBehavior::LyingStateResponder,
            ByzantineBehavior::EquivocatingCheckpointer,
            ByzantineBehavior::SilentStateResponder,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_honest() {
        assert_eq!(ByzantineBehavior::default(), ByzantineBehavior::Honest);
        assert!(!ByzantineBehavior::Honest.is_byzantine());
    }

    #[test]
    fn all_byzantine_lists_every_non_honest_variant() {
        let all = ByzantineBehavior::all_byzantine();
        assert_eq!(all.len(), 7);
        assert!(all.iter().all(|b| b.is_byzantine()));
    }
}
