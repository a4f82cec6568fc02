//! End-to-end scenario runners: configure a system (scale, bandwidth, batches, faults),
//! run it on the simulator, check its invariants, and distil the metrics the paper
//! plots. One runner body, [`run_scenario`], serves both protocols.

use crate::invariants::{ConfirmedLog, ReplicaSnapshot, SystemSnapshot};
use crate::workload::WorkloadConfig;
use leopard_core::byzantine::ByzantineBehavior;
use leopard_core::{config::WorkloadMode, LeopardConfig, LeopardReplica};
use leopard_crypto::provider::CryptoMode;
use leopard_hotstuff::{HotStuffConfig, HotStuffReplica};
use leopard_simnet::{
    FaultPlan, NetworkConfig, ObservationKind, ProgressProbe, Protocol, SimDuration, SimTime,
    Simulation, SimulationReport, StragglerProfile, Topology,
};
use leopard_types::{quorum_size, CostModelKind, NodeId, ProtocolParams};

/// Description of one experiment run.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Number of replicas.
    pub n: usize,
    /// Offered workload.
    pub workload: WorkloadConfig,
    /// Per-replica link capacity in Mbps; `None` selects the paper's 9.8 Gbps NIC.
    pub bandwidth_mbps: Option<u64>,
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// Warm-up window excluded from the steady-state throughput figures, or `None`
    /// for the default of one third of the duration (see
    /// [`Self::effective_warmup`]). The full-window figures still cover
    /// `[0, duration]` so cross-PR numbers stay comparable; the steady-state split
    /// exists so a short run's pipeline-fill transient cannot masquerade as a
    /// throughput loss.
    pub warmup: Option<SimDuration>,
    /// Requests per datablock (Leopard).
    pub datablock_size: usize,
    /// Datablock links per BFTblock (Leopard).
    pub bftblock_size: usize,
    /// Requests per block (HotStuff).
    pub hotstuff_batch: usize,
    /// Simulation seed.
    pub seed: u64,
    /// Crash the initial leader at this offset (for the view-change experiments).
    pub leader_crash_at: Option<SimDuration>,
    /// Number of replicas performing the selective datablock attack (for the retrieval
    /// experiments).
    pub selective_attackers: usize,
    /// Event budget (safety valve for runaway configurations).
    pub max_events: u64,
    /// Whether crypto executes for real or is metered (identical modeled time, far
    /// less wall-clock). [`Self::paper`] picks metered above the validated n = 64
    /// equivalence scale; `tests/metered_equivalence.rs` guards that choice.
    pub crypto_mode: CryptoMode,
    /// Which per-operation compute-cost calibration the replicas charge.
    pub cost_model: CostModelKind,
    /// Number of replicas (counted from the highest id downwards, skipping the initial
    /// leader) whose CPU runs at [`Self::SLOW_CPU_FACTOR`] speed.
    pub slow_replicas: usize,
    /// Geo-distributed topology (regions, pairwise latency matrix). `None` keeps the
    /// paper's flat LAN. See [`Self::with_topology`] and [`Self::with_wan_regions`].
    pub topology: Option<Topology>,
    /// Fraction of the replicas (highest ids first, skipping the initial leader, count
    /// rounded up) degraded with [`StragglerProfile::wan_default`] — Raptr-style
    /// stragglers that are network- and CPU-slow at once. `0.0` disables stragglers.
    pub straggler_fraction: f64,
    /// Replicas running a protocol-level Byzantine behaviour (equivocation, vote
    /// withholding, silence — see [`ByzantineBehavior`]). These replicas are excluded
    /// from the invariant checker's honest set.
    pub byzantine: Vec<(NodeId, ByzantineBehavior)>,
    /// Crash-restart windows `(node, crash offset, restart offset)`: the node is down
    /// for the window and rejoins via state transfer at the restart instant.
    pub crash_restarts: Vec<(NodeId, SimDuration, SimDuration)>,
    /// Region-level partition windows `(region_a, region_b, from, until)` over the
    /// scenario's [`Self::topology`] — all traffic between the pair is dropped for
    /// the window, then heals.
    pub partitions: Vec<(usize, usize, SimDuration, SimDuration)>,
    /// Longest tolerated confirmation stall of an honest live replica after the last
    /// scheduled disturbance (the liveness invariant), or `None` for the default of
    /// four progress timeouts.
    pub liveness_bound: Option<SimDuration>,
    /// Overrides the protocol's progress timeout (the view-change trigger). The chaos
    /// engine shortens it so runs with consecutive faulty leaders recover within a
    /// few-second schedule; `None` keeps the protocol default.
    pub progress_timeout: Option<SimDuration>,
    /// Stop offering client load at this offset while the run continues to
    /// [`Self::duration`] (see [`Self::with_workload_stop`]); `None` offers load for
    /// the whole run.
    pub workload_stop: Option<SimDuration>,
    /// Reserved, always `false`: the simulator has one event engine, and the
    /// runners panic if this is set. Read only by the benchmark's mirror
    /// (`benchmark/src/mirror.rs`); goes with the mirror (ROADMAP item 22).
    pub parallel: bool,
    /// Number of concurrent BFTblock proposers (the PR 9 multi-proposer agreement
    /// plane). `1` is the classic single-leader protocol, bit for bit.
    pub proposers: usize,
    /// Worker lanes (cores) per replica in the simulator's compute model. `1` is the
    /// classic single-core horizon, bit for bit (see `NetworkConfig::with_cores`).
    pub cores: usize,
}

impl ScenarioConfig {
    /// CPU speed of the replicas [`Self::with_slow_replicas`] slows down: a quarter of
    /// the fleet's.
    pub const SLOW_CPU_FACTOR: f64 = 0.25;

    /// The paper's configuration for scale `n`: Table II batch sizes, 9.8 Gbps NICs,
    /// 128-byte payloads at the calibrated saturation rate, no faults.
    pub fn paper(n: usize) -> Self {
        let (datablock_size, bftblock_size) = ProtocolParams::table2_batches(n);
        Self {
            n,
            workload: WorkloadConfig::paper_default(),
            bandwidth_mbps: None,
            duration: SimDuration::from_secs(3),
            warmup: None,
            datablock_size,
            bftblock_size,
            hotstuff_batch: HotStuffConfig::PAPER_BATCH_SIZE,
            seed: 0xBEEF,
            leader_crash_at: None,
            selective_attackers: 0,
            max_events: 50_000_000,
            // Metered crypto above the equivalence-validated scale: identical modeled
            // schedule, a fraction of the wall-clock (the full fig9 sweep's time
            // budget depends on it).
            crypto_mode: if n > 64 { CryptoMode::Metered } else { CryptoMode::Real },
            cost_model: CostModelKind::Calibrated,
            slow_replicas: 0,
            topology: None,
            straggler_fraction: 0.0,
            byzantine: Vec::new(),
            crash_restarts: Vec::new(),
            partitions: Vec::new(),
            liveness_bound: None,
            progress_timeout: None,
            workload_stop: None,
            parallel: false,
            proposers: 1,
            cores: 1,
        }
    }

    /// A small, fast configuration for unit tests and doc examples: [`Self::paper`]
    /// with a light workload, small batches, a short run and real crypto.
    pub fn small(n: usize) -> Self {
        Self {
            workload: WorkloadConfig::small(),
            duration: SimDuration::from_secs(2),
            datablock_size: 16,
            bftblock_size: 8,
            hotstuff_batch: 16,
            max_events: 5_000_000,
            crypto_mode: CryptoMode::Real,
            ..Self::paper(n)
        }
    }

    /// The fault experiments' recipe (fig13, its view-change table and the chaos
    /// schedules): [`Self::paper`] under [`WorkloadConfig::fault_load`], with
    /// 200-request datablocks and 10-link BFTblocks.
    pub fn fault_load(n: usize) -> Self {
        Self::paper(n)
            .with_workload(WorkloadConfig::fault_load())
            .with_batches(200, 10)
    }

    /// Fig. 12's recipe, also fig13's withholding row: [`Self::fault_load`] with
    /// 2000-request datablocks and one selective attacker.
    pub fn withholding(n: usize) -> Self {
        Self::fault_load(n)
            .with_batches(2000, 10)
            .with_selective_attackers(1)
    }

    /// Overrides the number of concurrent proposers (`1` = single leader).
    pub fn with_proposers(mut self, proposers: usize) -> Self {
        self.proposers = proposers;
        self
    }

    /// Overrides the per-replica core count of the compute model (`1` = the classic
    /// single-core horizon).
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Overrides the per-replica bandwidth (Mbps).
    pub fn with_bandwidth_mbps(mut self, mbps: u64) -> Self {
        self.bandwidth_mbps = Some(mbps);
        self
    }

    /// Overrides the workload.
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Overrides the virtual duration. An explicit [`Self::with_warmup`] override is
    /// preserved regardless of call order; otherwise the warm-up stays at its default
    /// of one third of the (new) duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Overrides the warm-up window excluded from steady-state figures (the default
    /// is one third of the duration).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = Some(warmup);
        self
    }

    /// The warm-up window in effect: the explicit override, or one third of the
    /// duration.
    pub fn effective_warmup(&self) -> SimDuration {
        self.warmup
            .unwrap_or_else(|| SimDuration::from_nanos(self.duration.as_nanos() / 3))
    }

    /// Overrides the Leopard batch sizes.
    pub fn with_batches(mut self, datablock_size: usize, bftblock_size: usize) -> Self {
        self.datablock_size = datablock_size;
        self.bftblock_size = bftblock_size;
        self
    }

    /// Overrides the HotStuff batch size.
    pub fn with_hotstuff_batch(mut self, batch: usize) -> Self {
        self.hotstuff_batch = batch;
        self
    }

    /// Schedules a crash of the initial leader.
    pub fn with_leader_crash_at(mut self, at: SimDuration) -> Self {
        self.leader_crash_at = Some(at);
        self
    }

    /// Makes the last `count` replicas selective attackers (they disseminate datablocks
    /// only to a `2f+1`-sized prefix of the replicas).
    pub fn with_selective_attackers(mut self, count: usize) -> Self {
        self.selective_attackers = count;
        self
    }

    /// Runs `node` with a protocol-level Byzantine behaviour (it is excluded from the
    /// invariant checker's honest set).
    pub fn with_byzantine_replica(mut self, node: NodeId, behaviour: ByzantineBehavior) -> Self {
        self.byzantine.push((node, behaviour));
        self
    }

    /// Crashes `node` at offset `at` and restarts it at `until`; the restarted replica
    /// rejoins via state transfer (see the catch-up path in `leopard_core::replica`'s
    /// recovery plane, `crates/core/src/replica/recovery.rs`).
    ///
    /// # Panics
    ///
    /// Panics (in [`FaultPlan::with_crash_restart`], when the run starts) if the
    /// window is inverted.
    pub fn with_crash_restart(mut self, node: NodeId, at: SimDuration, until: SimDuration) -> Self {
        self.crash_restarts.push((node, at, until));
        self
    }

    /// Severs all traffic between `region_a` and `region_b` of the scenario's
    /// [`Self::topology`] for `from <= t < until` (then heals). To isolate one region
    /// of a `k`-region topology, add its `k - 1` pairwise windows.
    ///
    /// # Panics
    ///
    /// Panics (in [`FaultPlan::with_partition`], when the run starts) if the window
    /// is inverted or the regions are equal.
    pub fn with_partition_window(
        mut self,
        region_a: usize,
        region_b: usize,
        from: SimDuration,
        until: SimDuration,
    ) -> Self {
        self.partitions.push((region_a, region_b, from, until));
        self
    }

    /// Overrides the liveness-invariant stall bound (default: four progress timeouts).
    pub fn with_liveness_bound(mut self, bound: SimDuration) -> Self {
        self.liveness_bound = Some(bound);
        self
    }

    /// Overrides the protocol's progress timeout (the view-change trigger).
    pub fn with_progress_timeout(mut self, timeout: SimDuration) -> Self {
        self.progress_timeout = Some(timeout);
        self
    }

    /// Overrides the event budget (the runaway-configuration safety valve). The
    /// `fig9xl` sweep raises it: at n = 4000 a single dissemination wave alone is
    /// tens of millions of events, comfortably past the default 50 M cap.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Stops offering client load at `stop` (an offset from the run start) while the
    /// run itself continues to [`Self::duration`] — a drain window. The `fig9xl`
    /// sweep needs one: at n ≥ 2000 a datablock's dissemination is a large fraction
    /// of the run, and the end-of-run availability invariant must judge a quiesced
    /// system, not honest datablocks still in flight (see `EXPERIMENTS.md`).
    pub fn with_workload_stop(mut self, stop: SimDuration) -> Self {
        self.workload_stop = Some(stop);
        self
    }

    /// Number of scheduled disturbances: the leader crash, each crash-restart window,
    /// each partition window and each Byzantine replica. The default view-change
    /// thrash bound scales with this.
    pub fn disturbance_count(&self) -> usize {
        usize::from(self.leader_crash_at.is_some())
            + self.crash_restarts.len()
            + self.partitions.len()
            + self.byzantine.len()
    }

    /// The view-change-thrash bound: the most views honest replicas may enter beyond
    /// the initial one, `4 + 4 × `[`Self::disturbance_count`] — generous for any
    /// genuine recovery, far below a view-change livelock.
    pub fn effective_view_thrash_bound(&self) -> u64 {
        4 + 4 * self.disturbance_count() as u64
    }

    /// The instants at which scheduled disturbances begin or end (crash instants,
    /// restart instants, partition edges, the leader crash), sorted and deduplicated.
    /// The per-disturbance view accounting buckets view entries between consecutive
    /// instants.
    pub fn disturbance_instants(&self) -> Vec<SimTime> {
        let mut instants = Vec::new();
        if let Some(at) = self.leader_crash_at {
            instants.push(SimTime::ZERO + at);
        }
        for &(_, at, until) in &self.crash_restarts {
            instants.push(SimTime::ZERO + at);
            instants.push(SimTime::ZERO + until);
        }
        for &(_, _, from, until) in &self.partitions {
            instants.push(SimTime::ZERO + from);
            instants.push(SimTime::ZERO + until);
        }
        instants.sort();
        instants.dedup();
        instants
    }

    /// The instant the last scheduled disturbance acts within the run: the latest
    /// crash instant, restart instant or partition edge up to [`Self::duration`]. The
    /// liveness invariant only binds after this. A restart or heal scheduled past the
    /// end never acts, so its window is a permanent fault of the run, like
    /// [`Self::leader_crash_at`].
    pub fn quiet_after(&self) -> SimTime {
        let end = SimTime::ZERO + self.duration;
        self.disturbance_instants()
            .into_iter()
            .filter(|&at| at <= end)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the crypto mode (real vs metered execution).
    pub fn with_crypto_mode(mut self, mode: CryptoMode) -> Self {
        self.crypto_mode = mode;
        self
    }

    /// Overrides the compute-cost calibration.
    pub fn with_cost_model(mut self, kind: CostModelKind) -> Self {
        self.cost_model = kind;
        self
    }

    /// Makes the `count` highest-id replicas (skipping the initial leader) run their
    /// CPUs at [`Self::SLOW_CPU_FACTOR`] speed — the heterogeneous-CPU experiments.
    pub fn with_slow_replicas(mut self, count: usize) -> Self {
        self.slow_replicas = count;
        self
    }

    /// Installs a geo-distributed topology. A flat single-region topology reproduces
    /// the default LAN bit-identically (see `DESIGN.md` §7).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Spreads the replicas round-robin over a WAN of the named regions, with
    /// representative public-cloud inter-region latencies
    /// (see [`Topology::wan`]).
    pub fn with_wan_regions(self, regions: &[&str]) -> Self {
        self.with_topology(Topology::wan(regions))
    }

    /// Degrades `ceil(fraction · n)` replicas (highest ids first, skipping the initial
    /// leader) with [`StragglerProfile::wan_default`] — slow link, slow CPU and extra
    /// one-way latency at once, the Raptr straggler scenario.
    pub fn with_straggler_fraction(mut self, fraction: f64) -> Self {
        self.straggler_fraction = fraction;
        self
    }

    /// Number of stragglers this scenario degrades.
    pub fn straggler_count(&self) -> usize {
        if self.straggler_fraction <= 0.0 {
            return 0;
        }
        ((self.straggler_fraction * self.n as f64).ceil() as usize).min(self.n.saturating_sub(1))
    }

    /// The topology actually handed to the simulator: [`Self::topology`] (or
    /// [`Topology::lan`] when stragglers are requested without one) with the straggler
    /// profiles applied. `None` when the scenario is the plain LAN.
    pub fn effective_topology(&self) -> Option<Topology> {
        let stragglers = self.straggler_count();
        let mut topology = self.topology.clone();
        if stragglers > 0 {
            // The LAN a topology-less scenario runs on, so adding stragglers never
            // perturbs the non-straggler schedule.
            let mut with_stragglers = topology.take().unwrap_or_else(Topology::lan);
            for node in self.highest_non_leader_ids(stragglers) {
                with_stragglers =
                    with_stragglers.with_straggler(node, StragglerProfile::wan_default());
            }
            topology = Some(with_stragglers);
        }
        topology
    }

    /// The identifier of the initial leader (the leader of view 1).
    pub fn initial_leader(&self) -> NodeId {
        leopard_types::View::initial().leader(self.n)
    }

    /// The `count` highest replica ids, skipping the initial leader — the shared
    /// selection used for stragglers, slow-CPU replicas and selective attackers, so
    /// the three experiments always degrade the same node set.
    fn highest_non_leader_ids(&self, count: usize) -> Vec<usize> {
        let leader = self.initial_leader();
        (0..self.n)
            .rev()
            .filter(|&i| NodeId(i as u32) != leader)
            .take(count)
            .collect()
    }

    fn network(&self) -> NetworkConfig {
        let mut config = match self.bandwidth_mbps {
            Some(mbps) => NetworkConfig::throttled(self.n, mbps),
            None => NetworkConfig::datacenter(self.n),
        };
        if self.cores > 1 {
            config = config.with_cores(self.cores);
        }
        for node in self.highest_non_leader_ids(self.slow_replicas) {
            config = config.with_node_cpu_speed(node, Self::SLOW_CPU_FACTOR);
        }
        if let Some(topology) = self.effective_topology() {
            config = config.with_topology(topology);
        }
        config.with_seed(self.seed)
    }

    fn faults(&self) -> FaultPlan {
        let mut plan = if self.selective_attackers > 0 {
            let quorum = quorum_size(self.n);
            let attackers: Vec<NodeId> = self
                .highest_non_leader_ids(self.selective_attackers)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            FaultPlan::selective_attack(attackers, "datablock", quorum)
        } else {
            FaultPlan::none()
        };
        if let Some(at) = self.leader_crash_at {
            plan = plan.with_crash(self.initial_leader(), SimTime::ZERO + at);
        }
        for &(node, at, until) in &self.crash_restarts {
            plan = plan.with_crash_restart(node, SimTime::ZERO + at, SimTime::ZERO + until);
        }
        for &(region_a, region_b, from, until) in &self.partitions {
            plan = plan.with_partition(region_a, region_b, SimTime::ZERO + from, SimTime::ZERO + until);
        }
        plan
    }

    /// Seconds one producer's uplink of `uplink_bps` takes to serialise a datablock to
    /// the `n − 1` other replicas, `(n−1)·α·8 / uplink`.
    pub(crate) fn dissemination_secs(&self, uplink_bps: u64) -> f64 {
        let datablock_bytes = (self.datablock_size * self.workload.payload_size) as f64;
        (self.n - 1) as f64 * datablock_bytes * 8.0 / uplink_bps as f64
    }

    fn leopard_config(&self) -> LeopardConfig {
        assert!(
            self.workload.aggregate_rps > 0,
            "ScenarioConfig: workload.aggregate_rps must be positive (the saturated pacing \
             divides by it)"
        );
        let mut config = LeopardConfig::paper(self.n, self.workload.aggregate_rps);
        config.params.payload_size = self.workload.payload_size;
        config.params.datablock_size = self.datablock_size;
        config.params.bftblock_size = self.bftblock_size;
        config.params.proposers = self.proposers;
        // Saturated pacing calibrated so the aggregate datablock production matches the
        // offered load (see EXPERIMENTS.md, "calibration"), re-derived for the
        // overridden datablock size and proposer count.
        config.workload = WorkloadMode::paced(&config.params, self.workload.aggregate_rps);
        config.crypto_mode = self.crypto_mode;
        config.cost_model = self.cost_model;
        if let Some(timeout) = self.progress_timeout {
            config.progress_timeout = timeout;
        }
        config.workload_stop = self.workload_stop;
        // Scale-aware retrieval timeout: disseminating one datablock to `n − 1` peers
        // serialises `(n−1)·α` bytes through the producer's uplink, which at paper
        // scale exceeds the 100 ms default (≈ 114 ms at n = 256, ≈ 250 ms at n = 600).
        // When the tick sent every first query, a shorter period made every replica
        // query for datablocks still in honest flight (at n = 256, ~270k spurious
        // responses, 74% of the full fig9 sweep's wall-clock; DESIGN.md §6.5). First
        // queries now wait the first-query wait below, ticks included, so the factor
        // no longer guards them: it sets the re-query interval (`REQUERY_TIMEOUTS`
        // periods) and how often every replica's tick fires, and it stays at three
        // dissemination times because any other factor moves the schedule of every
        // retrieving run (fig12's retrieval runs use small datablocks, where the
        // 100 ms floor still applies).
        // Under a topology the slowest producer's uplink bounds honest dissemination
        // (a straggler's 1 Gbps NIC), and WAN propagation
        // adds up to `max_one_way_latency` per hop of query/response — so the timeout
        // gets four one-way latencies of deterministic headroom on top. Without a
        // topology the headroom is zero and the slowest uplink is the fleet's.
        let network = self.network();
        // An uplink of 0 bps is unlimited; with no limited link dissemination is
        // instant and the floor applies.
        let links = network.resolve().links;
        let min_uplink_bps = links.iter().map(|link| link.uplink_bps).filter(|&bps| bps > 0).min();
        let dissemination_secs = min_uplink_bps.map_or(0.0, |bps| self.dissemination_secs(bps));
        let wan_headroom = network
            .topology
            .as_ref()
            .map(|topology| topology.max_one_way_latency().saturating_mul(4))
            .unwrap_or(SimDuration::ZERO);
        config.retrieval_timeout = config
            .retrieval_timeout
            .max(SimDuration::from_secs_f64(3.0 * dissemination_secs) + wan_headroom);
        // A missing datablock is first queried two dissemination times plus the same
        // headroom after it was noted, not at the next retrieval tick, which can come
        // while the copy is still on the producer's uplink.
        config.first_query_wait =
            LeopardConfig::first_query_wait_for(dissemination_secs, wan_headroom);
        config
    }

    fn hotstuff_config(&self) -> HotStuffConfig {
        for (field, set) in [
            ("byzantine", !self.byzantine.is_empty()),
            ("selective_attackers", self.selective_attackers > 0),
            ("proposers", self.proposers != 1),
            ("workload_stop", self.workload_stop.is_some()),
        ] {
            assert!(!set, "ScenarioConfig::{field} is Leopard-only; keep its default for HotStuff");
        }
        let mut config = HotStuffConfig::paper(self.n, self.workload.aggregate_rps);
        config.payload_size = self.workload.payload_size;
        config.batch_size = self.hotstuff_batch;
        config.crypto_mode = self.crypto_mode;
        config.cost_model = self.cost_model;
        if let Some(timeout) = self.progress_timeout {
            config.progress_timeout = timeout;
        }
        config
    }
}

/// A protocol [`run_scenario`] can run: it builds its simulation from a
/// [`ScenarioConfig`] and shows each replica to the invariant checker.
pub trait ScenarioProtocol: Protocol + Sized {
    /// The protocol's name in [`ScenarioReport::protocol`].
    const NAME: &'static str;

    /// Builds the simulation of `config`, returned with the protocol's progress
    /// timeout (four of them are the checker's default stall bound).
    fn build(config: &ScenarioConfig) -> (Simulation<Self>, SimDuration);

    /// This replica's state as the invariant checker reads it, borrowed in place;
    /// `node` and `live` come from the simulation.
    fn snapshot(&self, node: NodeId, live: bool) -> ReplicaSnapshot<'_>;
}

impl ScenarioProtocol for LeopardReplica {
    const NAME: &'static str = "leopard";

    fn build(config: &ScenarioConfig) -> (Simulation<Self>, SimDuration) {
        let leopard_config = config.leopard_config();
        let progress_timeout = leopard_config.progress_timeout;
        let shared = LeopardConfig::shared_keys(&leopard_config, config.seed);
        let byzantine = config.byzantine.clone();
        let sim = Simulation::new(config.network(), config.faults(), move |id| {
            let mut replica_config = leopard_config.clone();
            if let Some(&(_, behaviour)) = byzantine.iter().find(|(node, _)| *node == id) {
                replica_config = replica_config.with_byzantine(behaviour);
            }
            LeopardReplica::new(id, replica_config, shared.clone())
        });
        (sim, progress_timeout)
    }

    fn snapshot(&self, node: NodeId, live: bool) -> ReplicaSnapshot<'_> {
        ReplicaSnapshot {
            node,
            honest: !self.config().byzantine.is_byzantine(),
            live,
            low_watermark: self.low_watermark().0,
            last_confirmation_at: self.last_confirmation_at(),
            view: self.view().0,
            log: ConfirmedLog::Linked(self.log_slots()),
            pool: Some(self.pool()),
        }
    }
}

impl ScenarioProtocol for HotStuffReplica {
    const NAME: &'static str = "hotstuff";

    fn build(config: &ScenarioConfig) -> (Simulation<Self>, SimDuration) {
        let hotstuff_config = config.hotstuff_config();
        let progress_timeout = hotstuff_config.progress_timeout;
        let keys = hotstuff_config.shared_keys(config.seed);
        let sim = Simulation::new(config.network(), config.faults(), move |id| {
            HotStuffReplica::new(id, hotstuff_config.clone(), keys.clone())
        });
        (sim, progress_timeout)
    }

    /// Every HotStuff replica is honest (the build rejects Byzantine roles) and keeps
    /// no checkpoint or datablock pool: its blocks carry their own payload.
    fn snapshot(&self, node: NodeId, live: bool) -> ReplicaSnapshot<'_> {
        ReplicaSnapshot {
            node,
            honest: true,
            live,
            low_watermark: 0,
            last_confirmation_at: self.last_confirmation_at(),
            view: self.view().0,
            log: ConfirmedLog::Chained(self.committed_log()),
            pool: None,
        }
    }
}

/// Throughput and latency of the replicas of one region (see
/// [`ScenarioReport::regions`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Region name (from the scenario's [`Topology`]).
    pub name: String,
    /// Number of replicas assigned to the region.
    pub nodes: usize,
    /// Confirmed requests per second, measured as the maximum per-replica confirmation
    /// count *within the region* over the full run window (the same server-side
    /// measure as the global figure, restricted to the region).
    pub throughput_rps: f64,
    /// Mean client latency in seconds over the requests acknowledged by this region's
    /// replicas, or `None` if none completed.
    pub average_latency_secs: Option<f64>,
    /// Number of latency samples behind [`Self::average_latency_secs`].
    pub latency_samples: u64,
}

impl RegionStats {
    /// Throughput in the paper's Kreqs/sec unit.
    pub fn throughput_kreqs(&self) -> f64 {
        self.throughput_rps / 1_000.0
    }
}

/// The distilled result of one scenario run.
#[derive(Debug)]
pub struct ScenarioReport {
    /// Which protocol produced it (`"leopard"` or `"hotstuff"`).
    pub protocol: &'static str,
    /// Number of replicas.
    pub n: usize,
    /// Virtual duration in seconds.
    pub duration_secs: f64,
    /// Requests confirmed (max over replicas).
    pub confirmed_requests: u64,
    /// Confirmed requests per second over the full `[0, duration]` window (warm-up
    /// transient included — the historical, cross-PR-comparable figure).
    pub throughput_rps: f64,
    /// Confirmed requests per second over the steady-state window
    /// `[warmup, duration]` only.
    pub steady_state_throughput_rps: f64,
    /// Confirmed payload bits per second.
    pub throughput_bps: f64,
    /// Average client latency in seconds (None if nothing completed).
    pub average_latency_secs: Option<f64>,
    /// Median client latency in seconds, from the O(1) fixed-bucket histogram
    /// (bucket-midpoint accuracy; see `leopard_simnet::LatencyHistogram`).
    pub latency_p50_secs: Option<f64>,
    /// 95th-percentile client latency in seconds (same histogram).
    pub latency_p95_secs: Option<f64>,
    /// 99th-percentile client latency in seconds (same histogram).
    pub latency_p99_secs: Option<f64>,
    /// Per-region throughput and latency, in the topology's region order. Empty when
    /// the scenario has no [`ScenarioConfig::topology`].
    pub regions: Vec<RegionStats>,
    /// Bits per second moved (sent + received) by the initial leader.
    pub leader_bandwidth_bps: f64,
    /// Number of view changes observed (across all replicas).
    pub view_changes: u64,
    /// Number of distinct views the system entered beyond the initial one (each view
    /// counted once however many replicas entered it). The view-change thrash
    /// invariant bounds the per-replica equivalent of this figure.
    pub views_entered: u64,
    /// The most distinct views entered within any one disturbance window (windows are
    /// delimited by [`ScenarioConfig::disturbance_instants`]; with no disturbances the
    /// whole run is one window).
    pub max_views_per_disturbance: u64,
    /// Average view-change completion time in seconds, if any completed.
    pub average_view_change_secs: Option<f64>,
    /// Total bytes of view-change traffic (timeout + view-change + new-view messages).
    pub view_change_bytes: u64,
    /// Number of completed datablock retrievals.
    pub retrievals: u64,
    /// Average retrieval time in seconds, if any completed.
    pub average_retrieval_secs: Option<f64>,
    /// Average bytes received to recover one datablock.
    pub average_retrieval_recv_bytes: Option<f64>,
    /// Average bytes sent per responding replica during retrievals.
    pub average_responder_bytes: Option<f64>,
    /// The initial leader's progress probe at the end of the run ("last confirmation
    /// at t, stalled on X since t′"), if the protocol is instrumented.
    pub leader_probe: Option<ProgressProbe>,
    /// Fraction of the run the initial leader's compute queue was busy with modeled
    /// crypto work (can exceed 1.0 when the queue ends the run backlogged).
    pub leader_compute_utilization: f64,
    /// The highest per-replica compute utilization of the run.
    pub max_compute_utilization: f64,
    /// The mean per-replica compute utilization of the run.
    pub mean_compute_utilization: f64,
    /// Invariant violations found by the always-on checker (rendered, one per line).
    /// Always empty for reports returned by [`run_leopard_scenario`] and
    /// [`run_hotstuff_scenario`], which panic on any violation; [`run_scenario`]
    /// reports them here instead.
    pub violations: Vec<String>,
    /// The raw simulation report (traffic matrix, observations) for detailed breakdowns.
    pub sim: SimulationReport,
}

impl ScenarioReport {
    fn from_sim(protocol: &'static str, config: &ScenarioConfig, sim: SimulationReport) -> Self {
        let duration_secs = sim.end_time.as_secs_f64();
        let confirmed = sim.metrics.max_confirmed_requests(config.n);
        let throughput_rps = sim.throughput_rps();
        let steady_state_throughput_rps =
            sim.steady_state_throughput_rps(config.effective_warmup());
        let leader = config.initial_leader();
        let leader_probe = sim.probes.get(leader.as_index()).cloned().flatten();
        let payload_bits = confirmed as f64 * config.workload.payload_size as f64 * 8.0;
        let throughput_bps = if duration_secs > 0.0 {
            payload_bits / duration_secs
        } else {
            0.0
        };
        let leader_bandwidth_bps = sim.node_bandwidth_bps(leader);
        let average_latency_secs = sim.average_latency_secs();
        let latency_p50_secs = sim.latency_percentile_secs(0.50);
        let latency_p95_secs = sim.latency_percentile_secs(0.95);
        let latency_p99_secs = sim.latency_percentile_secs(0.99);
        let regions = Self::region_stats(config, &sim);
        let leader_compute_utilization = sim.compute_utilization(leader);
        let max_compute_utilization = sim.max_compute_utilization();
        let mean_compute_utilization = sim.mean_compute_utilization();

        // One pass over the observation log: every view change, the distinct views
        // entered (with the instant the first replica entered each), each view change's
        // duration and each retrieval, every list in emission order.
        let mut view_changes = 0u64;
        let mut first_entered = std::collections::BTreeMap::<u64, SimTime>::new();
        let mut view_change_secs = Vec::new();
        let mut retrieval_times = Vec::new();
        let mut retrieval_bytes = Vec::new();
        for observation in &sim.metrics.observations {
            match observation.kind {
                ObservationKind::ViewChange { view } => {
                    view_changes += 1;
                    let at = first_entered.entry(view).or_insert(observation.at);
                    *at = (*at).min(observation.at);
                }
                ObservationKind::Custom {
                    label: "view_change_nanos",
                    value,
                } => view_change_secs.push(value as f64 / 1e9),
                ObservationKind::RetrievalCompleted {
                    nanos,
                    received_bytes,
                } => {
                    retrieval_times.push(nanos as f64 / 1e9);
                    retrieval_bytes.push(received_bytes as f64);
                }
                _ => {}
            }
        }
        // The densest disturbance window: a healthy recovery enters one or two views
        // per disturbance; thrash shows up here long before the invariant fires.
        let views_entered = first_entered.len() as u64;
        let mut instants = config.disturbance_instants();
        instants.insert(0, SimTime::ZERO);
        let max_views_per_disturbance = instants
            .windows(2)
            .map(|w| (w[0], Some(w[1])))
            .chain(std::iter::once((*instants.last().expect("non-empty"), None)))
            .map(|(from, until)| {
                first_entered
                    .values()
                    .filter(|&&at| at >= from && until.map_or(true, |u| at < u))
                    .count() as u64
            })
            .max()
            .unwrap_or(0);
        let average = |values: &[f64]| {
            (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
        };
        let view_change_bytes: u64 = (0..config.n as u32)
            .map(|node| {
                sim.metrics.traffic.sent_bytes_in(NodeId(node), "viewchange")
                    + sim.metrics.traffic.sent_bytes_in(NodeId(node), "newview")
            })
            .sum();

        let retrievals = retrieval_times.len() as u64;
        // Responder cost: average bytes of a single retrieval response (one erasure-coded
        // chunk plus its Merkle proof) — the per-replica "cost on responding" of Fig. 12.
        let (retrieval_bytes_sent, retrieval_messages) = sim
            .metrics
            .traffic
            .iter_sent()
            .filter(|(_, category, _, _)| *category == "retrieval")
            .fold((0u64, 0u64), |(bytes, count), (_, _, b, c)| (bytes + b, count + c));
        let average_responder_bytes = (retrieval_messages > 0)
            .then(|| retrieval_bytes_sent as f64 / retrieval_messages as f64);

        Self {
            protocol,
            n: config.n,
            duration_secs,
            confirmed_requests: confirmed,
            throughput_rps,
            steady_state_throughput_rps,
            throughput_bps,
            average_latency_secs,
            latency_p50_secs,
            latency_p95_secs,
            latency_p99_secs,
            regions,
            leader_bandwidth_bps,
            view_changes,
            views_entered,
            max_views_per_disturbance,
            average_view_change_secs: average(&view_change_secs),
            view_change_bytes,
            retrievals,
            average_retrieval_secs: average(&retrieval_times),
            average_retrieval_recv_bytes: average(&retrieval_bytes),
            average_responder_bytes,
            leader_probe,
            leader_compute_utilization,
            max_compute_utilization,
            mean_compute_utilization,
            violations: Vec::new(),
            sim,
        }
    }

    /// Groups confirmations and latency samples by region. Empty when the scenario has
    /// no topology.
    fn region_stats(config: &ScenarioConfig, sim: &SimulationReport) -> Vec<RegionStats> {
        let Some(topology) = &config.topology else {
            return Vec::new();
        };
        let r = topology.region_count();
        let duration_secs = sim.end_time.as_secs_f64();
        let mut latency_sum = vec![0f64; r];
        let mut latency_count = vec![0u64; r];
        for run in sim.metrics.latency_runs() {
            let region = topology.region_of(run.node.as_index());
            run.add_secs_to(&mut latency_sum[region]);
            latency_count[region] += run.count;
        }
        let mut max_confirmed = vec![0u64; r];
        let mut nodes_per_region = vec![0usize; r];
        for node in 0..config.n {
            let confirmed = sim.metrics.confirmed_requests_at(NodeId(node as u32));
            let region = topology.region_of(node);
            max_confirmed[region] = max_confirmed[region].max(confirmed);
            nodes_per_region[region] += 1;
        }
        (0..r)
            .map(|region| RegionStats {
                name: topology.region_name(region).to_string(),
                nodes: nodes_per_region[region],
                throughput_rps: if duration_secs > 0.0 {
                    max_confirmed[region] as f64 / duration_secs
                } else {
                    0.0
                },
                average_latency_secs: if latency_count[region] > 0 {
                    Some(latency_sum[region] / latency_count[region] as f64)
                } else {
                    None
                },
                latency_samples: latency_count[region],
            })
            .collect()
    }

    /// Throughput in the paper's Kreqs/sec unit.
    pub fn throughput_kreqs(&self) -> f64 {
        self.throughput_rps / 1_000.0
    }

    /// Steady-state throughput (warm-up excluded) in Kreqs/sec.
    pub fn steady_state_kreqs(&self) -> f64 {
        self.steady_state_throughput_rps / 1_000.0
    }

    /// The leader's stall label when the run ended stalled (e.g. `"AwaitingReady"`),
    /// `None` when the leader was healthy or the protocol is not instrumented.
    pub fn stall_annotation(&self) -> Option<&'static str> {
        self.leader_probe
            .as_ref()
            .filter(|probe| !probe.is_healthy())
            .map(|probe| probe.stall)
    }

    /// Human-readable leader diagnostics for table output: `"-"` when healthy,
    /// otherwise e.g. `"AwaitingReady since 0.020s; never confirmed"`.
    pub fn stall_summary(&self) -> String {
        match &self.leader_probe {
            Some(probe) if !probe.is_healthy() => probe.summary(),
            _ => "-".to_string(),
        }
    }

    /// Throughput in Mbps of confirmed payload (the unit of Fig. 10).
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps / 1_000_000.0
    }

    /// Leader bandwidth in Mbps (the unit of Fig. 11).
    pub fn leader_bandwidth_mbps(&self) -> f64 {
        self.leader_bandwidth_bps / 1_000_000.0
    }
}

/// Refuses a scenario that sets the reserved [`ScenarioConfig::parallel`] field:
/// silently running it on the one engine would misreport what was measured.
fn refuse_parallel(config: &ScenarioConfig) {
    assert!(
        !config.parallel,
        "ScenarioConfig::parallel is reserved and must stay false: the simulator has one event \
         engine (the shard-round parallel mode measured 0.4-0.6x of it and was removed, see \
         DESIGN.md §10); the field remains only because the benchmark's mirror reads it"
    );
}

/// Runs protocol `P` under the given scenario and checks every invariant of
/// [`crate::invariants`] on the finished simulation; violations land in
/// [`ScenarioReport::violations`]. Harness tests that provoke violations and the chaos
/// engine call this; everything else goes through [`run_leopard_scenario`] or
/// [`run_hotstuff_scenario`].
///
/// # Panics
///
/// Panics if the reserved [`ScenarioConfig::parallel`] field is set, or if the
/// scenario sets a field protocol `P` has no counterpart for.
pub fn run_scenario<P: ScenarioProtocol>(config: &ScenarioConfig) -> ScenarioReport {
    refuse_parallel(config);
    let (mut sim, progress_timeout) = P::build(config);
    // The report asks about the warm-up (steady-state throughput) and fig13 about the
    // quiet instant (recovery); nothing else, so the sink keeps totals, not records.
    let warmup = SimTime::ZERO + config.effective_warmup();
    sim.declare_metric_instants(&[warmup, config.quiet_after()]);
    sim.run_until(SimTime::ZERO + config.duration, config.max_events);
    let snapshot = SystemSnapshot::capture(
        &sim,
        config.n,
        config.quiet_after(),
        config.liveness_bound.unwrap_or_else(|| progress_timeout.saturating_mul(4)),
        config.disturbance_count(),
        config.effective_view_thrash_bound(),
    );
    let violations = snapshot.check().iter().map(ToString::to_string).collect();
    let mut report = ScenarioReport::from_sim(P::NAME, config, sim.into_report());
    report.violations = violations;
    report
}

/// [`run_scenario`], asserting the invariant checker found nothing: any safety fork,
/// post-quiesce liveness stall, unretrievable datablock or view-change thrash panics
/// with the rendered violations.
fn run_checked<P: ScenarioProtocol>(config: &ScenarioConfig) -> ScenarioReport {
    let report = run_scenario::<P>(config);
    assert!(
        report.violations.is_empty(),
        "{} scenario violated {} invariant(s):\n{}",
        P::NAME,
        report.violations.len(),
        report.violations.join("\n")
    );
    report
}

/// Runs Leopard under the given scenario and asserts the invariant checker found
/// nothing. Every experiment goes through this runner or [`run_hotstuff_scenario`], so
/// all published figures come from runs that passed the checker.
///
/// # Panics
///
/// As [`run_scenario`], and if the run violates any invariant.
pub fn run_leopard_scenario(config: &ScenarioConfig) -> ScenarioReport {
    run_checked::<LeopardReplica>(config)
}

/// Runs the HotStuff baseline under the given scenario and asserts the invariant
/// checker found nothing.
///
/// # Panics
///
/// As [`run_scenario`] — HotStuff rejects `byzantine`, `selective_attackers`,
/// `proposers != 1` and `workload_stop` — and if the run violates any invariant.
pub fn run_hotstuff_scenario(config: &ScenarioConfig) -> ScenarioReport {
    run_checked::<HotStuffReplica>(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ptr;

    #[test]
    fn small_leopard_scenario_confirms_requests() {
        let config = ScenarioConfig::small(4);
        let report = run_leopard_scenario(&config);
        assert_eq!(report.protocol, "leopard");
        assert!(report.confirmed_requests > 0);
        assert!(report.throughput_rps > 0.0);
        assert!(report.throughput_mbps() > 0.0);
        assert!(report.leader_bandwidth_bps > 0.0);
    }

    #[test]
    fn the_snapshot_shares_the_replicas_blocks() {
        let config = ScenarioConfig::small(4).with_duration(SimDuration::from_secs(2));
        let (mut sim, _) = LeopardReplica::build(&config);
        sim.run_until(SimTime::ZERO + config.duration, config.max_events);
        for node in (0..4).map(NodeId) {
            let replica = sim.node(node);
            let snapshot = replica.snapshot(node, true);
            let ConfirmedLog::Linked(log) = snapshot.log else {
                panic!("a Leopard snapshot holds a linked log");
            };
            assert!(log.iter().any(Option::is_some), "node {node} confirmed nothing");
            assert!(ptr::eq(log, replica.log_slots()), "node {node} copied its log");
            let pool = snapshot.pool.expect("a Leopard snapshot reads the pool");
            assert!(ptr::eq(pool, replica.pool()), "node {node} copied its pool");
        }
    }

    #[test]
    fn the_snapshot_shares_the_replicas_committed_log() {
        let config = ScenarioConfig::small(4);
        let (mut sim, _) = HotStuffReplica::build(&config);
        sim.run_until(SimTime::ZERO + config.duration, config.max_events);
        for node in (0..4).map(NodeId) {
            let replica = sim.node(node);
            let ConfirmedLog::Chained(log) = replica.snapshot(node, true).log else {
                panic!("a HotStuff snapshot holds a chained log");
            };
            assert!(!log.is_empty(), "node {node} executed nothing");
            assert!(ptr::eq(log, replica.committed_log()), "node {node} copied its log");
        }
    }

    #[test]
    fn small_hotstuff_scenario_confirms_requests() {
        let config = ScenarioConfig::small(4);
        let report = run_hotstuff_scenario(&config);
        assert_eq!(report.protocol, "hotstuff");
        assert!(report.confirmed_requests > 0);
        assert!(report.average_latency_secs.is_some());
    }

    #[test]
    #[should_panic(expected = "ScenarioConfig::parallel is reserved")]
    fn leopard_runner_refuses_the_reserved_parallel_field() {
        let mut config = ScenarioConfig::small(4);
        config.parallel = true;
        run_leopard_scenario(&config);
    }

    #[test]
    #[should_panic(expected = "ScenarioConfig::parallel is reserved")]
    fn hotstuff_runner_refuses_the_reserved_parallel_field() {
        let mut config = ScenarioConfig::small(4);
        config.parallel = true;
        run_hotstuff_scenario(&config);
    }

    #[test]
    fn leader_crash_scenario_reports_view_changes() {
        let config = ScenarioConfig::small(4)
            .with_leader_crash_at(SimDuration::from_millis(300))
            .with_duration(SimDuration::from_secs(5));
        let report = run_leopard_scenario(&config);
        assert!(report.view_changes > 0, "no view change observed");
        assert!(report.view_change_bytes > 0);
    }

    #[test]
    fn selective_attack_scenario_reports_retrievals() {
        let config = ScenarioConfig::small(4)
            .with_selective_attackers(1)
            .with_duration(SimDuration::from_secs(4));
        let report = run_leopard_scenario(&config);
        assert!(report.confirmed_requests > 0);
        // The attacked replicas' datablocks must have been recovered at least once.
        assert!(report.retrievals > 0, "no retrieval was needed/completed");
        assert!(report.average_retrieval_secs.is_some());
    }

    /// Under the selective attack every first `Query` leaves exactly the first-query
    /// wait `D` after its datablock was noted missing, so every retrieval takes `D`
    /// plus one LAN round trip and decode (about 1.4 ms here), never up to `2D`.
    #[test]
    fn each_withheld_datablock_is_retrieved_one_wait_after_its_note() {
        let config = ScenarioConfig::withholding(4);
        let wait = config.leopard_config().first_query_wait.as_nanos();
        let report = run_leopard_scenario(&config);
        let times: Vec<u64> = report
            .sim
            .metrics
            .observations
            .iter()
            .filter_map(|observation| match observation.kind {
                ObservationKind::RetrievalCompleted { nanos, .. } => Some(nanos),
                _ => None,
            })
            .collect();
        assert!(!times.is_empty(), "the attack forced no retrieval");
        for nanos in times {
            assert!(nanos >= wait, "a retrieval of {nanos} ns was queried before D");
            assert!(nanos < wait + wait / 4, "a retrieval of {nanos} ns waited past D");
        }
    }

    #[test]
    #[should_panic(expected = "workload.aggregate_rps must be positive")]
    fn zero_offered_load_panics_with_the_field_name() {
        let mut config = ScenarioConfig::small(4);
        config.workload.aggregate_rps = 0;
        run_leopard_scenario(&config);
    }

    #[test]
    fn builders_compose() {
        let config = ScenarioConfig::paper(16)
            .with_bandwidth_mbps(100)
            .with_batches(500, 50)
            .with_hotstuff_batch(400)
            .with_seed(1)
            .with_workload(WorkloadConfig::small())
            .with_duration(SimDuration::from_secs(1));
        assert_eq!(config.bandwidth_mbps, Some(100));
        assert_eq!(config.datablock_size, 500);
        assert_eq!(config.hotstuff_batch, 400);
        assert_eq!(config.initial_leader(), NodeId(1));
    }

    /// The retrieval timeout where the dissemination time sets it, and fig9xl's drain
    /// window at n = 2000 and 4000 (`(n−1)·α·8 / 9.8e9`), captured before the two sites
    /// shared `dissemination_secs`; and the first-query wait of the same configurations,
    /// captured when it was derived (two dissemination times plus the same headroom).
    #[test]
    fn dissemination_times_are_pinned() {
        let wan = ScenarioConfig::paper(256)
            .with_wan_regions(&["us-east", "eu-west", "ap-northeast", "sa-east"])
            .with_straggler_fraction(0.1);
        let cases = [
            (ScenarioConfig::paper(600), 751_072_653, 500_715_102),
            (ScenarioConfig::paper(256), 319_738_776, 213_159_184),
            (wan, 3_905_440_000, 2_860_960_000),
            (ScenarioConfig::paper(64).with_bandwidth_mbps(100), 3_870_720_000, 2_580_480_000),
        ];
        for (config, timeout, wait) in cases {
            let leopard = config.leopard_config();
            assert_eq!(leopard.retrieval_timeout.as_nanos(), timeout);
            assert_eq!(leopard.first_query_wait.as_nanos(), wait);
        }
        let fleet = leopard_simnet::LinkConfig::paper_default().uplink_bps;
        assert_eq!(ScenarioConfig::paper(2000).dissemination_secs(fleet), 0.8355004081632653);
        assert_eq!(ScenarioConfig::paper(4000).dissemination_secs(fleet), 1.6714187755102041);
    }

    /// `with_slow_replicas(k)` runs the `k` highest ids other than the initial leader
    /// at [`ScenarioConfig::SLOW_CPU_FACTOR`] and every other node at full speed.
    #[test]
    fn slow_replicas_run_at_a_quarter_speed() {
        let config = ScenarioConfig::paper(8).with_slow_replicas(2);
        let leader = config.initial_leader().as_index();
        let mut expected = vec![1.0; 8];
        for node in (0..8).rev().filter(|&i| i != leader).take(2) {
            expected[node] = 0.25;
        }
        assert_eq!(config.network().resolve().cpu_speeds, expected);
        assert_eq!(
            ScenarioConfig::paper(8).network().resolve().cpu_speeds,
            vec![1.0; 8]
        );
    }

    #[test]
    fn topology_builders_compose() {
        let config = ScenarioConfig::paper(16)
            .with_wan_regions(&["us-east", "eu-west"])
            .with_straggler_fraction(0.10);
        assert_eq!(config.topology.as_ref().unwrap().region_count(), 2);
        assert_eq!(config.straggler_count(), 2);
        let topology = config.effective_topology().unwrap();
        assert_eq!(topology.stragglers().len(), 2);
        assert_eq!(topology.stragglers()[0].1, StragglerProfile::wan_default());
        assert!(config.network().validate().is_ok());

        // Stragglers without a topology ride `Topology::lan()`.
        let lan = ScenarioConfig::small(4).with_straggler_fraction(0.25);
        assert_eq!(lan.effective_topology().unwrap().region_count(), 1);

        // No topology, no stragglers: the network stays the default LAN.
        let flat = ScenarioConfig::small(4);
        assert!(flat.effective_topology().is_none());
        assert!(flat.network().topology.is_none());
    }

    #[test]
    fn fault_schedule_builders_compose() {
        let config = ScenarioConfig::small(4)
            .with_byzantine_replica(NodeId(1), ByzantineBehavior::EquivocatingLeader)
            .with_crash_restart(NodeId(2), SimDuration::from_secs(1), SimDuration::from_secs(2))
            .with_partition_window(0, 1, SimDuration::from_millis(500), SimDuration::from_millis(800))
            .with_liveness_bound(SimDuration::from_secs(3));
        assert_eq!(config.byzantine, vec![(NodeId(1), ByzantineBehavior::EquivocatingLeader)]);
        assert_eq!(config.crash_restarts.len(), 1);
        assert_eq!(config.partitions.len(), 1);
        assert_eq!(config.liveness_bound, Some(SimDuration::from_secs(3)));
        // The restart at 2 s is the last scheduled disturbance.
        assert_eq!(config.quiet_after(), SimTime::ZERO + SimDuration::from_secs(2));
        let plan = config.faults();
        assert_eq!(plan.crash_windows().len(), 1);
        assert_eq!(plan.partitions().len(), 1);
    }

    #[test]
    fn leader_crash_reports_views_entered() {
        let config = ScenarioConfig::small(4)
            .with_leader_crash_at(SimDuration::from_millis(300))
            .with_duration(SimDuration::from_secs(5));
        let report = run_leopard_scenario(&config);
        // One leader crash consumes exactly one view (view 1 -> view 2).
        assert_eq!(report.views_entered, 1, "views entered: {}", report.views_entered);
        assert_eq!(report.max_views_per_disturbance, 1);
    }

    #[test]
    fn healthy_run_enters_no_views() {
        let report = run_leopard_scenario(&ScenarioConfig::small(4));
        assert_eq!(report.views_entered, 0);
        assert_eq!(report.max_views_per_disturbance, 0);
    }

    #[test]
    fn crash_restart_scenario_recovers_and_passes_the_checker() {
        let config = ScenarioConfig::small(4)
            .with_crash_restart(NodeId(2), SimDuration::from_secs(1), SimDuration::from_secs(2))
            .with_duration(SimDuration::from_secs(5));
        // run_leopard_scenario panics on any violation, so reaching the asserts means
        // the restarted replica caught up and every invariant held.
        let report = run_leopard_scenario(&config);
        assert!(report.violations.is_empty());
        assert!(report.confirmed_requests > 0);
        assert!(
            report.sim.metrics.traffic.sent_bytes_in(NodeId(2), "statesync") > 0,
            "restarted replica never requested state transfer"
        );
    }

    /// A harness run declares the warm-up and the quiet instant, so its sink keeps
    /// totals, not records; a raw simulation of the same seed keeps the records. Both
    /// answer the windowed maximum and the first confirmations alike at both instants.
    #[test]
    fn declared_totals_answer_like_a_raw_simulations_records() {
        let config = ScenarioConfig::small(4)
            .with_seed(0x5EED)
            .with_crash_restart(
                NodeId(2),
                SimDuration::from_millis(700),
                SimDuration::from_millis(1400),
            )
            .with_duration(SimDuration::from_secs(3));
        let (warmup, quiet) = (SimTime::ZERO + config.effective_warmup(), config.quiet_after());
        assert!(warmup != quiet && warmup > SimTime::ZERO && quiet > SimTime::ZERO);
        let (mut sim, _) = LeopardReplica::build(&config);
        sim.run_until(SimTime::ZERO + config.duration, config.max_events);
        let raw = sim.into_report().metrics;
        let declared = run_leopard_scenario(&config).sim.metrics;
        assert!(raw.commit_state_bytes() > declared.commit_state_bytes());
        assert_eq!(declared.commit_digest(), raw.commit_digest());
        for start in [warmup, quiet] {
            let max = raw.max_confirmed_requests_since(config.n, start);
            assert!(max > 0, "nothing confirmed from {start:?} on");
            assert_eq!(declared.max_confirmed_requests_since(config.n, start), max);
            let first = raw.first_confirmations_since(config.n, start);
            assert!(first.iter().all(Option::is_some), "{first:?}");
            assert_eq!(declared.first_confirmations_since(config.n, start), first);
        }
    }

    /// The sink's commit state of a harness run does not grow with the run: three
    /// times the duration (and the warm-up) retains exactly the bytes of one.
    #[test]
    fn a_longer_run_retains_the_same_commit_state() {
        let retained = |secs: u64| {
            let config = ScenarioConfig::small(16).with_duration(SimDuration::from_secs(secs));
            let metrics = run_leopard_scenario(&config).sim.metrics;
            (metrics.commit_digest().executions, metrics.commit_state_bytes())
        };
        let (short_executions, short_bytes) = retained(1);
        let (long_executions, long_bytes) = retained(3);
        assert!(short_executions > 0);
        assert!(long_executions > 2 * short_executions, "{long_executions} vs {short_executions}");
        assert_eq!(long_bytes, short_bytes);
    }

    #[test]
    fn run_scenario_reports_a_real_liveness_loss() {
        // Two vote withholders exceed f = 1 at n = 4: the quorum of 3 is unreachable,
        // nothing ever confirms, and the two honest replicas stall from t = 0.
        // run_scenario must surface that as liveness violations (one per honest live
        // replica) instead of panicking.
        let config = ScenarioConfig::small(4)
            .with_byzantine_replica(NodeId(1), ByzantineBehavior::WithholdVotes)
            .with_byzantine_replica(NodeId(2), ByzantineBehavior::WithholdVotes)
            .with_duration(SimDuration::from_secs(4))
            // The default bound (four 2 s progress timeouts) outlasts this short run.
            .with_liveness_bound(SimDuration::from_secs(2));
        let report = run_scenario::<LeopardReplica>(&config);
        assert_eq!(report.confirmed_requests, 0);
        assert_eq!(report.violations.len(), 2, "violations: {:?}", report.violations);
        assert!(report.violations.iter().all(|v| v.contains("liveness stall")));
    }

    #[test]
    fn hotstuff_leader_crash_passes_the_checker() {
        let config = ScenarioConfig::small(4)
            .with_leader_crash_at(SimDuration::from_millis(300))
            .with_duration(SimDuration::from_secs(5));
        let report = run_hotstuff_scenario(&config);
        assert!(report.views_entered >= 1, "the pacemaker never rotated the leader");
        assert!(report.confirmed_requests > 0);
    }

    #[test]
    fn hotstuff_liveness_loss_is_reported_and_asserted() {
        // Two of four replicas down for the whole run exceed f = 1: no quorum, no
        // commit, and the two live replicas stall from t = 0. Node 2's restart lies
        // past the end of the run, so its crash is permanent and the checker judges.
        let config = ScenarioConfig::small(4)
            .with_leader_crash_at(SimDuration::ZERO)
            .with_crash_restart(NodeId(2), SimDuration::ZERO, SimDuration::from_secs(10))
            .with_duration(SimDuration::from_secs(5))
            .with_liveness_bound(SimDuration::from_secs(2));
        let report = run_scenario::<HotStuffReplica>(&config);
        assert_eq!(report.confirmed_requests, 0);
        assert_eq!(report.violations.len(), 2, "violations: {:?}", report.violations);
        assert!(report.violations.iter().all(|v| v.contains("liveness stall")));
        let panic = std::panic::catch_unwind(|| run_hotstuff_scenario(&config))
            .expect_err("the checked HotStuff runner must panic on a violation");
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        assert!(message.contains("hotstuff scenario violated 2 invariant(s)"), "{message}");
    }

    #[test]
    fn hotstuff_rejects_leopard_only_fields() {
        let base = ScenarioConfig::small(4);
        let silent = ByzantineBehavior::SilentLeader;
        let rejected = [
            ("byzantine", base.clone().with_byzantine_replica(NodeId(2), silent)),
            ("selective_attackers", base.clone().with_selective_attackers(1)),
            ("proposers", base.clone().with_proposers(2)),
            ("workload_stop", base.with_workload_stop(SimDuration::from_secs(1))),
        ];
        for (field, config) in rejected {
            let panic = std::panic::catch_unwind(|| run_hotstuff_scenario(&config));
            let panic = panic.expect_err(field);
            let message = panic.downcast_ref::<String>().expect("formatted panic message");
            let expected = format!("ScenarioConfig::{field} is Leopard-only");
            assert!(message.contains(&expected), "{message}");
        }
    }

    #[test]
    fn wan_topology_raises_the_retrieval_timeout() {
        let flat = ScenarioConfig::paper(16);
        let wan = ScenarioConfig::paper(16).with_wan_regions(&["us-east", "eu-west", "sa-east"]);
        let flat_timeout = flat.leopard_config().retrieval_timeout;
        let wan_timeout = wan.leopard_config().retrieval_timeout;
        // eu-west ↔ sa-east is 95 ms + 9.5 ms jitter; four one-way latencies of
        // headroom must push the timeout well past the flat configuration's 100 ms.
        assert!(
            wan_timeout.as_nanos() >= 4 * 95_000_000 && wan_timeout > flat_timeout,
            "wan timeout {wan_timeout} vs flat {flat_timeout}"
        );
    }

    #[test]
    fn small_wan_scenario_reports_region_stats() {
        let config = ScenarioConfig::small(4)
            .with_wan_regions(&["us-east", "eu-west"])
            .with_duration(SimDuration::from_secs(3));
        let report = run_leopard_scenario(&config);
        assert!(report.confirmed_requests > 0);
        assert_eq!(report.regions.len(), 2);
        assert_eq!(report.regions[0].name, "us-east");
        assert_eq!(report.regions[0].nodes + report.regions[1].nodes, 4);
        assert!(report.regions.iter().all(|r| r.throughput_rps > 0.0));
        assert!(report.latency_p50_secs.is_some());
    }
}
