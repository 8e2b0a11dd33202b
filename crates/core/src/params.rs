//! Simulation parameters: network constants, coding throughput, and the
//! stochastic service-time model.
//!
//! Defaults are calibrated to the paper's §5 setup: client and proxy on
//! c5n.4xlarge instances inside the VPC (10 Gbps, sub-millisecond RTT),
//! warm invocations ≈ 13 ms (modeled in the platform), EC throughput in
//! the hundreds of MB/s (measured by this repository's criterion benches
//! on `ic-ec`), plus a small lognormal per-chunk service jitter and rare
//! stragglers — the variability §3.2's first-*d* optimization exists to
//! absorb.

use ic_common::SimDuration;

/// Everything the discrete-event world needs beyond the deployment config.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimParams {
    /// One-way latency of a small control message inside the VPC.
    pub ctrl_latency: SimDuration,
    /// Client NIC capacity, bytes/sec (c5n.4xlarge ≈ 10 Gbps).
    pub client_nic_bps: f64,
    /// Proxy NIC capacity, bytes/sec.
    pub proxy_nic_bps: f64,
    /// Client-side Reed–Solomon encode throughput, bytes/sec.
    pub encode_bps: f64,
    /// Client-side decode (reconstruct) throughput, bytes/sec.
    pub decode_bps: f64,
    /// Plain splitting/joining throughput when no parity math is needed.
    pub split_bps: f64,
    /// Median of the lognormal per-chunk service delay on the Lambda side
    /// (request parsing, memory copies).
    pub chunk_jitter_median: SimDuration,
    /// Log-space sigma of the per-chunk service delay.
    pub chunk_jitter_sigma: f64,
    /// Probability that a chunk transfer hits a straggling function.
    pub straggler_prob: f64,
    /// Mean extra delay of a straggler (exponential).
    pub straggler_mean: SimDuration,
    /// RNG seed for everything stochastic in the world.
    pub seed: u64,
}

impl SimParams {
    /// The paper's evaluation environment.
    pub fn paper() -> Self {
        SimParams {
            ctrl_latency: SimDuration::from_micros(250),
            client_nic_bps: 1.25e9,
            proxy_nic_bps: 1.25e9,
            // Effective object-level EC throughput of the paper's
            // AVX-accelerated Go library (our scalar ic-ec crate is slower;
            // the `ec_kernels` bench prints what it measures).
            encode_bps: 2.5e9,
            decode_bps: 2.5e9,
            split_bps: 3.0e9,
            chunk_jitter_median: SimDuration::from_micros(1_500),
            chunk_jitter_sigma: 0.55,
            straggler_prob: 0.02,
            straggler_mean: SimDuration::from_millis(120),
            seed: 0x1c_2020,
        }
    }

    /// Same environment with a different seed (independent repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for SimParams {
    fn default() -> Self {
        SimParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = SimParams::paper();
        assert!(p.client_nic_bps > 1e9);
        assert!(p.encode_bps > 1e8);
        assert!(p.straggler_prob < 0.1);
        assert_eq!(p.ctrl_latency, SimDuration::from_micros(250));
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let a = SimParams::paper();
        let b = a.with_seed(9);
        assert_eq!(a.client_nic_bps, b.client_nic_bps);
        assert_ne!(a.seed, b.seed);
    }
}
