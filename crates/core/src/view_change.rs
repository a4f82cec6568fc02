//! View-change bookkeeping (paper, Appendix A).
//!
//! The view-change has three steps: *trigger* (timeout messages), *leader rotation*
//! (round-robin, `(v mod n)`-th replica) and *state synchronisation* (view-change
//! messages carrying notarized BFTblocks above the stable checkpoint, answered by the
//! next leader's new-view message). This module holds the pure bookkeeping; the replica
//! state machine drives it.

use crate::messages::NotarizedEntry;
use leopard_crypto::{hash_parts, Digest};
use leopard_types::{FastSet, NodeId, SeqNum, View, WireSize};
use std::collections::BTreeMap;

/// The digest a replica signs when complaining that `view` made no progress.
pub fn timeout_digest(view: View) -> Digest {
    hash_parts([b"timeout".as_slice(), &view.0.to_le_bytes()])
}

/// Bookkeeping for timeouts, view-change messages and new-view emission: one record
/// per view.
#[derive(Debug, Default)]
pub struct ViewChangeState {
    views: BTreeMap<u64, ViewRecord>,
}

/// One view's view-change round.
#[derive(Debug, Default)]
struct ViewRecord {
    /// Which replicas sent a timeout for this view.
    timeouts: FastSet<NodeId>,
    /// This replica already multicast its own timeout.
    complained: bool,
    /// This replica already abandoned the view (sent its view-change message).
    abandoned: bool,
    /// View-change messages received for this view by a prospective proposer.
    view_changes: BTreeMap<u32, (SeqNum, Vec<NotarizedEntry>, usize)>,
    /// This replica (as a proposer of this view) already sent a new-view.
    new_view_sent: bool,
}

impl ViewChangeState {
    /// Creates empty bookkeeping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a timeout complaint for `view` from `from`; returns the number of
    /// distinct complainers seen so far.
    pub fn record_timeout(&mut self, view: View, from: NodeId) -> usize {
        let set = &mut self.record(view).timeouts;
        set.insert(from);
        set.len()
    }

    /// Returns true the first time this replica decides to complain about `view`
    /// (subsequent calls return false so the timeout is multicast only once).
    pub fn mark_complained(&mut self, view: View) -> bool {
        !std::mem::replace(&mut self.record(view).complained, true)
    }

    /// True if this replica already complained about `view`.
    pub fn has_complained(&self, view: View) -> bool {
        self.views.get(&view.0).is_some_and(|record| record.complained)
    }

    /// Returns true the first time this replica abandons `view` (sends its view-change
    /// message for `view + 1`).
    pub fn mark_abandoned(&mut self, view: View) -> bool {
        !std::mem::replace(&mut self.record(view).abandoned, true)
    }

    fn record(&mut self, view: View) -> &mut ViewRecord {
        self.views.entry(view.0).or_default()
    }

    /// Drops the records of every view below `view` (on entering it).
    pub fn forget_views_before(&mut self, view: View) {
        self.views = self.views.split_off(&view.0);
    }

    /// Records a view-change message for `new_view` at the prospective leader.
    /// Returns the number of distinct senders recorded so far.
    pub fn record_view_change(
        &mut self,
        new_view: View,
        from: NodeId,
        checkpoint: SeqNum,
        entries: Vec<NotarizedEntry>,
        wire_bytes: usize,
    ) -> usize {
        let map = &mut self.record(new_view).view_changes;
        map.entry(from.0).or_insert((checkpoint, entries, wire_bytes));
        map.len()
    }

    /// Once `quorum` view-change messages for `new_view` are available, merges them into
    /// the new-view payload: for each serial number the entry from the highest view (the
    /// lowest sender id on a tie) is selected, as in PBFT: a block that confirmed at a
    /// serial is carried by every later view's notarized block there, while an older
    /// view's entry may have been superseded. Gaps between the highest stable
    /// checkpoint and the highest notarized serial number are reported so the caller
    /// can fill them with dummy blocks.
    ///
    /// Returns `None` until the quorum is reached or if a new-view was already produced
    /// for this view.
    pub fn build_new_view(
        &mut self,
        new_view: View,
        quorum: usize,
    ) -> Option<NewViewPayload> {
        let record = self.views.get_mut(&new_view.0)?;
        if record.new_view_sent || record.view_changes.len() < quorum {
            return None;
        }
        record.new_view_sent = true;
        let map = &record.view_changes;

        let mut by_seq: BTreeMap<u64, NotarizedEntry> = BTreeMap::new();
        let mut max_checkpoint = SeqNum(0);
        let mut total_bytes = 0usize;
        for (_, (checkpoint, entries, bytes)) in map.iter() {
            max_checkpoint = max_checkpoint.max(*checkpoint);
            total_bytes += bytes;
            for entry in entries {
                let kept = by_seq.entry(entry.block.id.seq.0).or_insert_with(|| entry.clone());
                if entry.block.id.view > kept.block.id.view {
                    *kept = entry.clone();
                }
            }
        }
        let highest = by_seq.keys().next_back().copied().unwrap_or(max_checkpoint.0);
        let mut gaps = Vec::new();
        // The serials in (checkpoint, highest], without overflowing at an (unproven)
        // claim of `u64::MAX`.
        for seq in (max_checkpoint.0..highest).map(|below| below + 1) {
            if !by_seq.contains_key(&seq) {
                gaps.push(SeqNum(seq));
            }
        }
        Some(NewViewPayload {
            stable_checkpoint: max_checkpoint,
            entries: by_seq.into_values().collect(),
            gaps,
            view_change_count: map.len() as u32,
            view_change_bytes: total_bytes as u64,
        })
    }
}

/// The merged content of `2f+1` view-change messages, ready to be turned into a
/// new-view message by the next leader.
#[derive(Debug)]
pub struct NewViewPayload {
    /// The highest stable checkpoint among the view-change messages.
    pub stable_checkpoint: SeqNum,
    /// Notarized blocks to re-propose, ordered by serial number.
    pub entries: Vec<NotarizedEntry>,
    /// Serial numbers between the checkpoint and the highest entry with no notarized
    /// block; they are filled with dummy blocks.
    pub gaps: Vec<SeqNum>,
    /// Number of view-change messages merged.
    pub view_change_count: u32,
    /// Total wire bytes of the merged view-change messages.
    pub view_change_bytes: u64,
}

/// The wire size of a view-change message carrying the given entries: the new view and
/// the checkpoint serial, then the entries.
pub fn view_change_wire_size(entries: &[NotarizedEntry]) -> usize {
    16 + entries.iter().map(WireSize::wire_size).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_crypto::threshold::ThresholdScheme;
    use leopard_types::BftBlock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn entry(seq: u64) -> NotarizedEntry {
        entry_in(View(1), seq)
    }

    /// A notarized entry for serial `seq`, proposed in `view`.
    fn entry_in(view: View, seq: u64) -> NotarizedEntry {
        let mut rng = StdRng::seed_from_u64(seq);
        let (scheme, keys) = ThresholdScheme::trusted_setup(3, 4, &mut rng);
        let block = Arc::new(BftBlock::new(view, SeqNum(seq), vec![]));
        let digest = block.digest();
        let shares: Vec<_> = keys.iter().map(|k| scheme.sign_share(k, &digest)).collect();
        NotarizedEntry {
            block,
            proof: scheme.combine(&shares[..3], &digest).unwrap(),
        }
    }

    #[test]
    fn timeout_digest_differs_per_view() {
        assert_ne!(timeout_digest(View(1)), timeout_digest(View(2)));
        assert_eq!(timeout_digest(View(3)), timeout_digest(View(3)));
    }

    #[test]
    fn timeout_counting_deduplicates_senders() {
        let mut state = ViewChangeState::new();
        assert_eq!(state.record_timeout(View(1), NodeId(0)), 1);
        assert_eq!(state.record_timeout(View(1), NodeId(0)), 1);
        assert_eq!(state.record_timeout(View(1), NodeId(2)), 2);
        // Views count their complainers independently.
        assert_eq!(state.record_timeout(View(2), NodeId(2)), 1);
    }

    #[test]
    fn complain_and_abandon_fire_once() {
        let mut state = ViewChangeState::new();
        assert!(state.mark_complained(View(1)));
        assert!(!state.mark_complained(View(1)));
        assert!(state.has_complained(View(1)));
        assert!(!state.has_complained(View(2)));
        assert!(state.mark_abandoned(View(1)));
        assert!(!state.mark_abandoned(View(1)));
    }

    #[test]
    fn new_view_needs_quorum_and_is_built_once() {
        let mut state = ViewChangeState::new();
        let e1 = entry(1);
        let e3 = entry(3);
        assert_eq!(
            state.record_view_change(View(2), NodeId(0), SeqNum(0), vec![e1.clone()], 100),
            1
        );
        assert!(state.build_new_view(View(2), 3).is_none());
        assert_eq!(
            state.record_view_change(View(2), NodeId(1), SeqNum(0), vec![e1.clone(), e3.clone()], 200),
            2
        );
        assert_eq!(
            state.record_view_change(View(2), NodeId(2), SeqNum(0), vec![e3.clone()], 150),
            3
        );
        let payload = state.build_new_view(View(2), 3).expect("quorum reached");
        assert_eq!(payload.entries.len(), 2);
        assert_eq!(payload.gaps, vec![SeqNum(2)]);
        assert_eq!(payload.view_change_count, 3);
        assert_eq!(payload.view_change_bytes, 450);
        // A second build for the same view is suppressed.
        assert!(state.build_new_view(View(2), 3).is_none());
    }

    /// PBFT's rule: for each serial the NewView keeps the entry from the highest view.
    /// A lower-id sender still carrying an older view's block must not displace the
    /// block a later view notarized, which may have confirmed there.
    #[test]
    fn new_view_keeps_the_highest_view_entry_per_serial() {
        let mut state = ViewChangeState::new();
        let later = entry_in(View(2), 1);
        state.record_view_change(View(3), NodeId(0), SeqNum(0), vec![entry_in(View(1), 1)], 100);
        state.record_view_change(View(3), NodeId(1), SeqNum(0), vec![later.clone()], 100);
        state.record_view_change(View(3), NodeId(2), SeqNum(0), vec![], 16);
        let payload = state.build_new_view(View(3), 3).expect("quorum reached");
        let [kept] = &payload.entries[..] else {
            panic!("expected one entry, got {:?}", payload.entries);
        };
        assert_eq!(kept.block.id.view, View(2));
        assert_eq!(kept.block.digest(), later.block.digest());
        assert!(payload.gaps.is_empty());
    }

    #[test]
    fn duplicate_view_change_from_same_sender_is_ignored() {
        let mut state = ViewChangeState::new();
        assert_eq!(
            state.record_view_change(View(2), NodeId(0), SeqNum(0), vec![], 10),
            1
        );
        assert_eq!(
            state.record_view_change(View(2), NodeId(0), SeqNum(4), vec![entry(9)], 10),
            1
        );
    }

    #[test]
    fn view_change_wire_size_grows_with_entries() {
        let empty = view_change_wire_size(&[]);
        let one = view_change_wire_size(&[entry(1)]);
        assert!(one > empty);
    }
}
