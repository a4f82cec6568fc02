//! Workload descriptions shared by the Leopard and HotStuff scenario runners.

use leopard_types::PAPER_PAYLOAD_SIZE;

/// An offered client workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Aggregate offered load in requests per second across the whole system.
    ///
    /// The paper stress-tests at a "saturated request rate"; in this reproduction the
    /// saturation point of the original Golang prototype (~1.3·10^5 requests/s, the peak
    /// of Fig. 9) is modelled as the offered load, so that Leopard's plateau sits at the
    /// same order of magnitude as the paper while HotStuff's bandwidth-bound collapse
    /// emerges from the simulated links. See `EXPERIMENTS.md` ("calibration").
    pub aggregate_rps: u64,
    /// Request payload size in bytes.
    pub payload_size: usize,
}

impl WorkloadConfig {
    /// The paper's default workload: 128-byte payloads at the measured saturation rate.
    pub fn paper_default() -> Self {
        Self {
            aggregate_rps: 130_000,
            payload_size: PAPER_PAYLOAD_SIZE,
        }
    }

    /// The 1024-byte-payload variant used in Fig. 1.
    pub fn large_payload() -> Self {
        Self {
            aggregate_rps: 40_000,
            payload_size: 1024,
        }
    }

    /// The fault experiments' load (fig12, fig13 and the chaos schedules): 20 Kreqs/s
    /// of paper-size payloads.
    pub fn fault_load() -> Self {
        Self {
            aggregate_rps: 20_000,
            payload_size: PAPER_PAYLOAD_SIZE,
        }
    }

    /// A workload for quick tests.
    pub fn small() -> Self {
        Self {
            aggregate_rps: 2_000,
            payload_size: PAPER_PAYLOAD_SIZE,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offered_bandwidth_math() {
        // The calibrated saturation rate offers 133 Mbps of payload system-wide.
        let paper = WorkloadConfig::paper_default();
        assert_eq!(paper.aggregate_rps * paper.payload_size as u64 * 8, 133_120_000);
        assert_eq!(WorkloadConfig::default(), paper);
        assert!(WorkloadConfig::large_payload().payload_size > WorkloadConfig::small().payload_size);
    }
}
