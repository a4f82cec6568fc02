//! Network model configuration: link capacities, propagation latency, and the
//! geo-distributed [`Topology`] abstraction (named regions, a pairwise latency/jitter
//! matrix and per-node straggler profiles).

use crate::time::SimDuration;

/// Capacity of one node's network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Uplink capacity in bits per second (`0` means unlimited).
    pub uplink_bps: u64,
    /// Downlink capacity in bits per second (`0` means unlimited).
    pub downlink_bps: u64,
}

impl LinkConfig {
    /// A symmetric link of the given capacity in bits per second.
    pub fn symmetric(bps: u64) -> Self {
        Self {
            uplink_bps: bps,
            downlink_bps: bps,
        }
    }

    /// A symmetric link of the given capacity in megabits per second.
    pub fn symmetric_mbps(mbps: u64) -> Self {
        Self::symmetric(mbps * 1_000_000)
    }

    /// An unlimited link (no serialisation delay).
    pub fn unlimited() -> Self {
        Self::symmetric(0)
    }

    /// The EC2 c5.xlarge NIC used in the paper's evaluation: 9.8 Gbps.
    pub fn paper_default() -> Self {
        Self::symmetric(9_800_000_000)
    }
}

/// Degradations applied to a single straggler node: a slower NIC, a slower CPU and an
/// extra one-way propagation latency on every message it sends or receives.
///
/// This is the Raptr-style straggler (arXiv:2504.18649): geo-distributed validators
/// whose stragglers are *network*-slow and *CPU*-slow at once. The CPU factor
/// multiplies whatever [`NetworkConfig::with_node_cpu_speed`] already assigns the node,
/// so a straggler profile composes with the heterogeneous-CPU experiments instead of
/// overriding them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerProfile {
    /// NIC cap for the straggler, or `None` to keep the node's regular link. A profile
    /// *degrades*: the effective link is the direction-wise minimum of this cap and
    /// the link the node would otherwise have, so a 1 Gbps profile on an
    /// already-throttled 20 Mbps fleet leaves the node at 20 Mbps instead of silently
    /// upgrading it.
    pub link: Option<LinkConfig>,
    /// Multiplier applied to the node's CPU speed factor (`1.0` = no slowdown).
    pub cpu_factor: f64,
    /// Extra one-way latency added to every message the straggler sends *or* receives
    /// (a message between two stragglers pays both ends' extras). Deterministic — it
    /// consumes no randomness, so adding a straggler never shifts jitter draws of
    /// unrelated messages.
    pub extra_latency: SimDuration,
}

impl StragglerProfile {
    /// The WAN straggler used by the geo-distributed experiments: a 1 Gbps NIC cap
    /// (vs the fleet's 9.8 Gbps), a half-speed CPU and 25 ms of extra one-way latency.
    pub fn wan_default() -> Self {
        Self {
            link: Some(LinkConfig::symmetric_mbps(1_000)),
            cpu_factor: 0.5,
            extra_latency: SimDuration::from_millis(25),
        }
    }
}

/// A geo-distributed network topology: named regions, a symmetric pairwise
/// latency/jitter matrix between regions, and per-node straggler profiles.
///
/// Nodes are assigned to regions round-robin (`node % region_count`), so every region
/// holds an equal share of the replicas regardless of `n` and region membership never
/// depends on mutable state. A message from node `a` to node `b` propagates for
/// `base(region(a), region(b)) + U(0, jitter(region(a), region(b)))` plus the
/// deterministic straggler extras of both endpoints.
///
/// **RNG compatibility:** every topology draws exactly one uniform jitter sample per
/// routed message, in the same order, so a single-region [`Topology::flat`] with the
/// LAN's numbers is the default LAN ([`Topology::lan`]) bit for bit (see `DESIGN.md`
/// §7).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Region names, in region-index order.
    regions: Vec<String>,
    /// Base one-way latency between region pairs, row-major `r × r`, symmetric.
    base: Vec<SimDuration>,
    /// Maximum uniform jitter between region pairs, row-major `r × r`, symmetric.
    jitter: Vec<SimDuration>,
    /// Straggler profiles, sorted by node index.
    stragglers: Vec<(usize, StragglerProfile)>,
}

/// One-way latency in microseconds between two known WAN regions (representative
/// public-cloud inter-region figures; symmetric). Unknown pairs fall back to a
/// conservative 100 ms intercontinental default.
fn wan_one_way_micros(a: &str, b: &str) -> u64 {
    if a == b {
        return 500; // intra-region: the paper's LAN latency
    }
    let key = if a <= b { (a, b) } else { (b, a) };
    let ms = match key {
        ("us-east", "us-west") => 30,
        ("eu-west", "us-east") => 38,
        ("eu-central", "us-east") => 45,
        ("ap-northeast", "us-east") => 75,
        ("ap-southeast", "us-east") => 105,
        ("sa-east", "us-east") => 60,
        ("eu-west", "us-west") => 65,
        ("eu-central", "us-west") => 73,
        ("ap-northeast", "us-west") => 50,
        ("ap-southeast", "us-west") => 85,
        ("sa-east", "us-west") => 85,
        ("eu-central", "eu-west") => 10,
        ("ap-northeast", "eu-west") => 110,
        ("ap-southeast", "eu-west") => 80,
        ("eu-west", "sa-east") => 95,
        ("ap-northeast", "eu-central") => 115,
        ("ap-southeast", "eu-central") => 85,
        ("eu-central", "sa-east") => 100,
        ("ap-northeast", "ap-southeast") => 35,
        ("ap-northeast", "sa-east") => 130,
        ("ap-southeast", "sa-east") => 160,
        _ => 100,
    };
    ms * 1_000
}

impl Topology {
    /// A single-region topology with one base latency and jitter for every pair.
    pub fn flat(base: SimDuration, jitter: SimDuration) -> Self {
        Self {
            regions: vec!["flat".to_string()],
            base: vec![base],
            jitter: vec![jitter],
            stragglers: Vec::new(),
        }
    }

    /// The paper's LAN: one region, 500 µs one-way latency plus up to 50 µs of
    /// uniform jitter. The network of a [`NetworkConfig`] without a topology.
    pub fn lan() -> Self {
        Self::flat(SimDuration::from_micros(500), SimDuration::from_micros(50))
    }

    /// A topology of `names.len()` regions with `intra` latency inside a region,
    /// `inter` latency between any two distinct regions, and the same `jitter` bound
    /// everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn uniform(names: &[&str], intra: SimDuration, inter: SimDuration, jitter: SimDuration) -> Self {
        assert!(!names.is_empty(), "a topology needs at least one region");
        let r = names.len();
        let mut base = Vec::with_capacity(r * r);
        for i in 0..r {
            for j in 0..r {
                base.push(if i == j { intra } else { inter });
            }
        }
        Self {
            regions: names.iter().map(|n| n.to_string()).collect(),
            base,
            jitter: vec![jitter; r * r],
            stragglers: Vec::new(),
        }
    }

    /// A WAN topology over the named regions, with representative public-cloud
    /// one-way latencies between known region names (`us-east`, `us-west`, `eu-west`,
    /// `eu-central`, `ap-northeast`, `ap-southeast`, `sa-east`; unknown pairs default
    /// to 100 ms) and jitter at a tenth of each pair's base latency.
    ///
    /// # Panics
    ///
    /// Panics if `names` is empty.
    pub fn wan(names: &[&str]) -> Self {
        assert!(!names.is_empty(), "a topology needs at least one region");
        let r = names.len();
        let mut base = Vec::with_capacity(r * r);
        let mut jitter = Vec::with_capacity(r * r);
        for i in 0..r {
            for j in 0..r {
                let micros = wan_one_way_micros(names[i], names[j]);
                base.push(SimDuration::from_micros(micros));
                jitter.push(SimDuration::from_micros(micros / 10));
            }
        }
        Self {
            regions: names.iter().map(|n| n.to_string()).collect(),
            base,
            jitter,
            stragglers: Vec::new(),
        }
    }

    /// Attaches a straggler profile to `node` (replacing any previous profile).
    /// Node-range validation happens in [`NetworkConfig::validate`], where `n` is known.
    pub fn with_straggler(mut self, node: usize, profile: StragglerProfile) -> Self {
        match self.stragglers.binary_search_by_key(&node, |(n, _)| *n) {
            Ok(position) => self.stragglers[position] = (node, profile),
            Err(position) => self.stragglers.insert(position, (node, profile)),
        }
        self
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The name of region `index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn region_name(&self, index: usize) -> &str {
        &self.regions[index]
    }

    /// The region `node` belongs to (round-robin assignment).
    pub fn region_of(&self, node: usize) -> usize {
        node % self.regions.len()
    }

    /// Base one-way latency between regions `a` and `b`.
    pub fn base_between(&self, a: usize, b: usize) -> SimDuration {
        self.base[a * self.regions.len() + b]
    }

    /// Maximum uniform jitter between regions `a` and `b`.
    pub fn jitter_between(&self, a: usize, b: usize) -> SimDuration {
        self.jitter[a * self.regions.len() + b]
    }

    /// The straggler profile of `node`, if any.
    pub fn straggler(&self, node: usize) -> Option<&StragglerProfile> {
        self.stragglers
            .binary_search_by_key(&node, |(n, _)| *n)
            .ok()
            .map(|position| &self.stragglers[position].1)
    }

    /// All straggler profiles, sorted by node index.
    pub fn stragglers(&self) -> &[(usize, StragglerProfile)] {
        &self.stragglers
    }

    /// An upper bound on the one-way propagation delay between any two nodes:
    /// the largest `base + jitter` over all region pairs plus twice the largest
    /// straggler extra (both endpoints could be stragglers). Used by the harness to
    /// give WAN deployments latency-aware timeouts.
    pub fn max_one_way_latency(&self) -> SimDuration {
        let matrix = self
            .base
            .iter()
            .zip(&self.jitter)
            .map(|(b, j)| b.as_nanos() + j.as_nanos())
            .max()
            .unwrap_or(0);
        let extra = self
            .stragglers
            .iter()
            .map(|(_, p)| p.extra_latency.as_nanos())
            .max()
            .unwrap_or(0);
        SimDuration::from_nanos(matrix + 2 * extra)
    }

    /// Validates structural constraints against a deployment of `nodes` replicas.
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        let r = self.regions.len();
        if r == 0 {
            return Err("topology must have at least one region".to_string());
        }
        if self.base.len() != r * r || self.jitter.len() != r * r {
            return Err(format!(
                "topology latency matrices must have {} entries, got {} base / {} jitter",
                r * r,
                self.base.len(),
                self.jitter.len()
            ));
        }
        for i in 0..r {
            for j in 0..i {
                if self.base[i * r + j] != self.base[j * r + i]
                    || self.jitter[i * r + j] != self.jitter[j * r + i]
                {
                    return Err(format!(
                        "topology latency matrix must be symmetric; regions {i} and {j} disagree"
                    ));
                }
            }
        }
        for (node, profile) in &self.stragglers {
            if *node >= nodes {
                return Err(format!(
                    "straggler node {node} out of range for a {nodes}-node network"
                ));
            }
            if !profile.cpu_factor.is_finite() || profile.cpu_factor <= 0.0 {
                return Err(format!(
                    "straggler node {node} must have a positive, finite cpu_factor, got {}",
                    profile.cpu_factor
                ));
            }
        }
        Ok(())
    }
}

/// The per-node view of a [`NetworkConfig`] that the simulation engine actually
/// consults on the hot path: region membership and the region-pair latency matrix in
/// nanoseconds, plus link capacities, CPU speeds and straggler extras already resolved
/// per node. Built once by [`NetworkConfig::resolve`] at [`crate::Simulation::new`].
#[derive(Debug, Clone)]
pub struct ResolvedTopology {
    /// Effective NIC of each node (the fleet link, capped by a straggler profile).
    pub links: Vec<LinkConfig>,
    /// Effective CPU speed factor of each node (straggler factor already multiplied in).
    pub cpu_speeds: Vec<f64>,
    /// Worker-lane count of every node's compute queue (`1` = the sequential model).
    pub cores: usize,
    /// Region index of each node.
    pub node_region: Vec<u32>,
    /// Number of regions (1 for the LAN).
    pub region_count: usize,
    /// Region-pair base latency in nanoseconds, row-major `region_count²`.
    pub base_nanos: Vec<u64>,
    /// Region-pair jitter bound in nanoseconds, row-major `region_count²`.
    pub jitter_nanos: Vec<u64>,
    /// Per-node deterministic straggler extra latency in nanoseconds.
    pub extra_nanos: Vec<u64>,
}

impl ResolvedTopology {
    /// The deterministic base propagation delay (including both endpoints' straggler
    /// extras) and the jitter bound for a message from `from` to `to`, in nanoseconds.
    #[inline]
    pub fn delay_parts(&self, from: usize, to: usize) -> (u64, u64) {
        let pair = self.node_region[from] as usize * self.region_count + self.node_region[to] as usize;
        (
            self.base_nanos[pair] + self.extra_nanos[from] + self.extra_nanos[to],
            self.jitter_nanos[pair],
        )
    }
}

/// Full network configuration.
///
/// The model charges each message `wire_size` bytes of serialisation delay at the
/// sender's uplink and the receiver's downlink (FIFO queues), plus a propagation delay
/// drawn uniformly from `[base, base + jitter]`, where `base` and `jitter` come from
/// the region-pair matrix of [`Self::topology`] ([`Topology::lan`] when it is
/// `None`). A node's uplink and downlink are coupled (half duplex): the link capacity
/// bounds the *total* bits the node moves per second, as the paper's `C` does. The
/// network is synchronous from the start: asynchrony is injected as explicit faults
/// ([`crate::FaultPlan`] partitions, crashes, the selective attack), not as a pre-GST
/// delay.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// The fleet's link capacity, the same for every node; only a straggler profile of
    /// [`Self::topology`] gives one node a different link.
    pub link: LinkConfig,
    /// Seed for the simulation's deterministic randomness.
    pub seed: u64,
    /// Per-node CPU speed factors for the compute-resource model, set through
    /// [`Self::with_node_cpu_speed`]: modeled compute charged via
    /// [`crate::Context::charge_compute`] occupies `cost / speed` of the node's compute
    /// queue. Empty means every node runs at speed `1.0`; otherwise one entry per node.
    cpu_speeds: Vec<f64>,
    /// Compute worker lanes (cores) of every node: modeled compute is dispatched to
    /// the earliest-free of a node's `cores` lanes (ties broken by the lowest lane
    /// index). With one lane the dispatch degenerates to the sequential compute queue,
    /// so `cores = 1` is bit-identical to the pre-multi-core model.
    pub cores: usize,
    /// Geo-distributed topology (regions, pairwise latency matrix, stragglers). `None`
    /// selects the paper's LAN, [`Topology::lan`].
    pub topology: Option<Topology>,
}

impl NetworkConfig {
    /// A LAN-like datacenter network of `nodes` replicas with the paper's 9.8 Gbps NICs
    /// and 500 µs one-way latency.
    pub fn datacenter(nodes: usize) -> Self {
        Self {
            nodes,
            link: LinkConfig::paper_default(),
            seed: 0xC0FFEE,
            cpu_speeds: Vec::new(),
            cores: 1,
            topology: None,
        }
    }

    /// A datacenter network with every NIC throttled to `mbps` megabits per second
    /// (the NetEm-throttled configurations of the paper's Fig. 10).
    pub fn throttled(nodes: usize, mbps: u64) -> Self {
        let mut config = Self::datacenter(nodes);
        config.link = LinkConfig::symmetric_mbps(mbps);
        config
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the CPU speed factor of a single node (the heterogeneous-CPU
    /// experiments): below `1.0` a slower core, above `1.0` a faster one.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this network.
    pub fn with_node_cpu_speed(mut self, node: usize, speed: f64) -> Self {
        assert!(
            node < self.nodes,
            "with_node_cpu_speed: node {node} out of range for a {}-node network",
            self.nodes
        );
        if self.cpu_speeds.is_empty() {
            self.cpu_speeds = vec![1.0; self.nodes];
        }
        self.cpu_speeds[node] = speed;
        self
    }

    /// Sets the compute worker-lane count of every node.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = cores;
        self
    }

    /// Installs a geo-distributed topology (see [`Topology`]).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// The link configuration of `node` before straggler caps: the fleet link. Use
    /// [`Self::resolve`] for the effective per-node view.
    pub fn link(&self, _node: usize) -> LinkConfig {
        self.link
    }

    /// Resolves the configuration into the per-node view the engine consults on the
    /// hot path: effective links ([`Self::link`], capped by a straggler profile),
    /// effective CPU speeds ([`Self::with_node_cpu_speed`] × straggler factor), region
    /// membership and the latency matrix in nanoseconds. Without a topology this
    /// resolves [`Topology::lan`].
    pub fn resolve(&self) -> ResolvedTopology {
        let n = self.nodes;
        let lan;
        let topology = match &self.topology {
            Some(topology) => topology,
            None => {
                lan = Topology::lan();
                &lan
            }
        };
        let r = topology.region_count();
        let mut links = Vec::with_capacity(n);
        let mut cpu_speeds = Vec::with_capacity(n);
        let mut node_region = Vec::with_capacity(n);
        let mut extra_nanos = Vec::with_capacity(n);
        // Direction-wise minimum of two capacities, treating 0 as unlimited.
        let min_bps = |a: u64, b: u64| match (a, b) {
            (0, b) => b,
            (a, 0) => a,
            (a, b) => a.min(b),
        };
        for i in 0..n {
            let region = topology.region_of(i);
            let straggler = topology.straggler(i);
            let base = self.link;
            let link = match straggler.and_then(|p| p.link) {
                // A straggler cap only ever degrades the node's link.
                Some(cap) => LinkConfig {
                    uplink_bps: min_bps(base.uplink_bps, cap.uplink_bps),
                    downlink_bps: min_bps(base.downlink_bps, cap.downlink_bps),
                },
                None => base,
            };
            links.push(link);
            let speed = self.cpu_speeds.get(i).copied().unwrap_or(1.0);
            cpu_speeds.push(speed * straggler.map_or(1.0, |p| p.cpu_factor));
            node_region.push(region as u32);
            extra_nanos.push(straggler.map_or(0, |p| p.extra_latency.as_nanos()));
        }
        ResolvedTopology {
            links,
            cpu_speeds,
            cores: self.cores,
            node_region,
            region_count: r,
            base_nanos: topology.base.iter().map(|d| d.as_nanos()).collect(),
            jitter_nanos: topology.jitter.iter().map(|d| d.as_nanos()).collect(),
            extra_nanos,
        }
    }

    /// Validates structural constraints.
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("network must have at least one node".to_string());
        }
        if self.cpu_speeds.iter().any(|s| !s.is_finite() || *s <= 0.0) {
            return Err("cpu_speeds must be positive and finite".to_string());
        }
        if self.cores == 0 {
            return Err("cores must be at least 1".to_string());
        }
        if let Some(topology) = &self.topology {
            topology.validate(self.nodes)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_constructors() {
        assert_eq!(LinkConfig::symmetric_mbps(100).uplink_bps, 100_000_000);
        assert_eq!(LinkConfig::unlimited().downlink_bps, 0);
        assert_eq!(LinkConfig::paper_default().uplink_bps, 9_800_000_000);
    }

    #[test]
    fn datacenter_config_is_valid() {
        let config = NetworkConfig::datacenter(16);
        assert!(config.validate().is_ok());
        assert_eq!(config.link(3), LinkConfig::paper_default());
    }

    #[test]
    fn throttled_config_caps_all_links() {
        let config = NetworkConfig::throttled(8, 20);
        assert_eq!(config.link(0).uplink_bps, 20_000_000);
        assert_eq!(config.link(7).downlink_bps, 20_000_000);
    }

    #[test]
    #[should_panic(expected = "with_node_cpu_speed: node 9 out of range for a 4-node network")]
    fn node_cpu_out_of_range_panics_with_context() {
        let _ = NetworkConfig::datacenter(4).with_node_cpu_speed(9, 0.5);
    }

    #[test]
    fn cpu_speed_overrides() {
        let config = NetworkConfig::datacenter(4);
        assert_eq!(config.resolve().cpu_speeds, vec![1.0; 4]);
        let config = NetworkConfig::datacenter(4)
            .with_node_cpu_speed(2, 0.25)
            .with_node_cpu_speed(0, 0.5);
        assert_eq!(config.resolve().cpu_speeds, vec![0.5, 1.0, 0.25, 1.0]);
        assert!(config.validate().is_ok());

        let bad = NetworkConfig::datacenter(4).with_node_cpu_speed(1, 0.0);
        assert!(bad.validate().is_err());
        let bad = NetworkConfig::datacenter(4).with_node_cpu_speed(1, f64::NAN);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn core_count_applies_to_every_node() {
        let config = NetworkConfig::datacenter(4);
        assert_eq!(config.resolve().cores, 1);
        let config = NetworkConfig::datacenter(4).with_cores(4);
        assert!(config.validate().is_ok());
        assert_eq!(config.resolve().cores, 4);
        // The count does not depend on the topology either.
        let wan = config.with_topology(Topology::wan(&["us-east", "eu-west"]));
        assert_eq!(wan.resolve().cores, 4);

        assert!(NetworkConfig::datacenter(4).with_cores(0).validate().is_err());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut config = NetworkConfig::datacenter(4);
        config.nodes = 0;
        assert!(config.validate().is_err());
    }

    /// Everything `resolve()` hands the engine, for the five configuration shapes the
    /// callers build, captured before the fleet became one link: a change to how a
    /// link, a CPU speed, a region or a latency resolves moves these values.
    #[test]
    fn resolved_topologies_are_pinned() {
        let paper = LinkConfig::paper_default();
        let micros = |us: &[u64]| us.iter().map(|us| us * 1_000).collect::<Vec<u64>>();
        let lan = |links: Vec<LinkConfig>, cpu_speeds: Vec<f64>, cores: usize| {
            let (base, jitter) = (micros(&[500]), micros(&[50]));
            let (regions, extras) = (vec![0; 8], vec![0; 8]);
            (links, cpu_speeds, regions, 1, base, jitter, extras, cores)
        };
        let wan = Topology::wan(&["us-east", "eu-west", "ap-northeast", "sa-east"])
            .with_straggler(6, StragglerProfile::wan_default())
            .with_straggler(7, StragglerProfile::wan_default());
        let mut slow_cpu = vec![1.0; 8];
        slow_cpu[5] = 0.25;
        let mut straggler_links = vec![paper; 8];
        straggler_links[6..].fill(LinkConfig::symmetric_mbps(1_000));
        let cases = [
            (
                NetworkConfig::datacenter(8),
                lan(vec![paper; 8], vec![1.0; 8], 1),
            ),
            (
                NetworkConfig::throttled(8, 20),
                lan(vec![LinkConfig::symmetric(20_000_000); 8], vec![1.0; 8], 1),
            ),
            (
                NetworkConfig::datacenter(8).with_cores(4),
                lan(vec![paper; 8], vec![1.0; 8], 4),
            ),
            (
                NetworkConfig::datacenter(8).with_node_cpu_speed(5, 0.25),
                lan(vec![paper; 8], slow_cpu, 1),
            ),
            (
                NetworkConfig::datacenter(8).with_topology(wan),
                (
                    straggler_links,
                    vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5],
                    vec![0, 1, 2, 3, 0, 1, 2, 3],
                    4,
                    micros(&[
                        500, 38_000, 75_000, 60_000, 38_000, 500, 110_000, 95_000, 75_000, 110_000,
                        500, 130_000, 60_000, 95_000, 130_000, 500,
                    ]),
                    micros(&[
                        50, 3_800, 7_500, 6_000, 3_800, 50, 11_000, 9_500, 7_500, 11_000, 50,
                        13_000, 6_000, 9_500, 13_000, 50,
                    ]),
                    micros(&[0, 0, 0, 0, 0, 0, 25_000, 25_000]),
                    1,
                ),
            ),
        ];
        for (config, expected) in cases {
            let r = config.resolve();
            let actual = (
                r.links,
                r.cpu_speeds,
                r.node_region,
                r.region_count,
                r.base_nanos,
                r.jitter_nanos,
                r.extra_nanos,
                r.cores,
            );
            assert_eq!(actual, expected);
        }
    }

    #[test]
    fn flat_topology_resolves_like_the_scalar_model() {
        // No topology is the LAN, and the LAN is a flat topology.
        let lan = NetworkConfig::datacenter(4);
        let flat = NetworkConfig::datacenter(4).with_topology(Topology::flat(
            SimDuration::from_micros(500),
            SimDuration::from_micros(50),
        ));
        assert_eq!(Some(Topology::lan()), flat.topology);
        let a = lan.resolve();
        let b = flat.resolve();
        assert_eq!(a.links, b.links);
        assert_eq!(a.cpu_speeds, b.cpu_speeds);
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.node_region, b.node_region);
        assert_eq!(a.region_count, b.region_count);
        assert_eq!(a.base_nanos, b.base_nanos);
        assert_eq!(a.jitter_nanos, b.jitter_nanos);
        assert_eq!(a.extra_nanos, b.extra_nanos);
        assert_eq!(a.delay_parts(0, 3), (500_000, 50_000));
    }

    #[test]
    fn wan_topology_is_symmetric_and_region_aware() {
        let topology = Topology::wan(&["us-east", "eu-west", "ap-northeast", "sa-east"]);
        assert_eq!(topology.region_count(), 4);
        assert_eq!(topology.region_name(1), "eu-west");
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(topology.base_between(i, j), topology.base_between(j, i));
                assert_eq!(topology.jitter_between(i, j), topology.jitter_between(j, i));
            }
            // Intra-region is LAN-like; inter-region is WAN-scale.
            assert_eq!(topology.base_between(i, i), SimDuration::from_micros(500));
        }
        assert_eq!(topology.base_between(0, 1), SimDuration::from_millis(38));
        assert!(topology.validate(16).is_ok());

        // Round-robin region assignment.
        let config = NetworkConfig::datacenter(8).with_topology(topology);
        let resolved = config.resolve();
        assert_eq!(resolved.node_region, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn straggler_profiles_resolve_onto_links_cpu_and_latency() {
        let topology = Topology::wan(&["us-east", "eu-west"])
            .with_straggler(3, StragglerProfile::wan_default());
        let config = NetworkConfig::datacenter(4)
            .with_topology(topology)
            .with_node_cpu_speed(3, 0.8)
            .with_node_cpu_speed(2, 0.8);
        let resolved = config.resolve();
        assert_eq!(resolved.links[3], LinkConfig::symmetric_mbps(1_000));
        assert_eq!(resolved.links[2], LinkConfig::paper_default());
        assert!((resolved.cpu_speeds[3] - 0.4).abs() < 1e-12); // 0.8 × 0.5 composes
        assert!((resolved.cpu_speeds[2] - 0.8).abs() < 1e-12);
        assert_eq!(resolved.extra_nanos[3], 25_000_000);
        // Both endpoints' extras are charged: node 1 (clean) → node 3 (straggler) pays
        // the straggler's 25 ms on top of the eu-west↔eu-west intra-region base.
        let (base, _) = resolved.delay_parts(1, 3);
        assert_eq!(base, 500_000 + 25_000_000);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn straggler_link_caps_never_upgrade_a_throttled_fleet() {
        // A 1 Gbps straggler cap on a 20 Mbps fleet keeps the node at 20 Mbps …
        let topology = Topology::flat(SimDuration::ZERO, SimDuration::ZERO)
            .with_straggler(1, StragglerProfile::wan_default());
        let resolved = NetworkConfig::throttled(4, 20).with_topology(topology.clone()).resolve();
        assert_eq!(resolved.links[1], LinkConfig::symmetric_mbps(20));
        // … while the same cap on the paper's 9.8 Gbps fleet degrades to 1 Gbps.
        let resolved = NetworkConfig::datacenter(4).with_topology(topology).resolve();
        assert_eq!(resolved.links[1], LinkConfig::symmetric_mbps(1_000));
        // An unlimited base link takes the cap; an uncapped profile keeps the base.
        let topology = Topology::flat(SimDuration::ZERO, SimDuration::ZERO)
            .with_straggler(0, StragglerProfile::wan_default())
            .with_straggler(
                2,
                StragglerProfile {
                    link: None,
                    cpu_factor: 1.0,
                    extra_latency: SimDuration::from_millis(1),
                },
            );
        let mut config = NetworkConfig::datacenter(4).with_topology(topology);
        config.link = LinkConfig::unlimited();
        let resolved = config.resolve();
        assert_eq!(resolved.links[0], LinkConfig::symmetric_mbps(1_000));
        assert_eq!(resolved.links[2], LinkConfig::unlimited());
    }

    #[test]
    fn topology_validation_catches_bad_shapes() {
        let mut topology = Topology::wan(&["us-east", "eu-west"]);
        topology.base[1] = SimDuration::from_millis(1); // break symmetry
        assert!(topology.validate(4).is_err());

        let topology = Topology::flat(SimDuration::ZERO, SimDuration::ZERO)
            .with_straggler(9, StragglerProfile::wan_default());
        assert!(topology.validate(4).is_err());

        let mut bad_cpu = StragglerProfile::wan_default();
        bad_cpu.cpu_factor = 0.0;
        let topology = Topology::flat(SimDuration::ZERO, SimDuration::ZERO).with_straggler(1, bad_cpu);
        assert!(topology.validate(4).is_err());

        let config = NetworkConfig::datacenter(4).with_topology(
            Topology::flat(SimDuration::ZERO, SimDuration::ZERO)
                .with_straggler(7, StragglerProfile::wan_default()),
        );
        assert!(config.validate().is_err());
    }

    #[test]
    fn max_one_way_latency_bounds_the_matrix_and_stragglers() {
        let topology = Topology::wan(&["us-east", "eu-west", "ap-northeast", "sa-east"]);
        // Worst pair: ap-northeast ↔ sa-east at 130 ms + 13 ms jitter.
        assert_eq!(topology.max_one_way_latency(), SimDuration::from_millis(143));
        let with_straggler = topology.with_straggler(0, StragglerProfile::wan_default());
        assert_eq!(
            with_straggler.max_one_way_latency(),
            SimDuration::from_millis(143 + 50)
        );
    }

    #[test]
    fn uniform_and_two_dc_builders() {
        let topology = Topology::uniform(
            &["a", "b", "c"],
            SimDuration::from_micros(100),
            SimDuration::from_millis(2),
            SimDuration::from_micros(10),
        );
        assert_eq!(topology.base_between(1, 1), SimDuration::from_micros(100));
        assert_eq!(topology.base_between(0, 2), SimDuration::from_millis(2));
        assert_eq!(topology.jitter_between(0, 2), SimDuration::from_micros(10));

        // Two datacenters are the two-region case of the same builder.
        let dc = Topology::uniform(
            &["dc-a", "dc-b"],
            SimDuration::from_micros(500),
            SimDuration::from_millis(10),
            SimDuration::from_micros(50),
        );
        assert_eq!(dc.region_count(), 2);
        assert_eq!(dc.base_between(0, 1), SimDuration::from_millis(10));
        assert_eq!(dc.base_between(1, 1), SimDuration::from_micros(500));
        assert_eq!(dc.region_of(3), 1);
    }
}
