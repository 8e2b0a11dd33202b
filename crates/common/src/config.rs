//! Deployment configuration: erasure-coding parameters and cluster shape.

use crate::error::{Error, Result};
use crate::time::SimDuration;
use crate::units::MIB;

/// A Reed–Solomon code `(d + p)`: `d` data shards, `p` parity shards.
///
/// The paper evaluates `(10+1)`, `(10+2)`, `(10+4)`, `(4+2)`, `(5+1)` and the
/// no-coding baseline `(10+0)` which merely splits the object (§5.1).
///
/// # Example
///
/// ```
/// use ic_common::EcConfig;
/// let ec = EcConfig::new(10, 2)?;
/// assert_eq!(ec.shards(), 12);
/// assert_eq!(ec.chunk_len(100), 10);
/// assert_eq!(ec.chunk_len(101), 11); // rounds up
/// assert!(ec.tolerates(2) && !ec.tolerates(3));
/// # Ok::<(), ic_common::Error>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EcConfig {
    /// Number of data shards (`d`).
    pub data: usize,
    /// Number of parity shards (`p`); zero means plain striping.
    pub parity: usize,
}

impl EcConfig {
    /// Creates a code with `data` data shards and `parity` parity shards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if `data` is zero or the total shard count
    /// exceeds 255 (the GF(2^8) limit minus the identity rows).
    pub fn new(data: usize, parity: usize) -> Result<Self> {
        if data == 0 {
            return Err(Error::Config(
                "EC code needs at least one data shard".into(),
            ));
        }
        if data + parity > 255 {
            return Err(Error::Config(format!(
                "EC code ({data}+{parity}) exceeds the 255-shard GF(2^8) limit"
            )));
        }
        Ok(EcConfig { data, parity })
    }

    /// Total shard count `n = d + p`.
    pub fn shards(&self) -> usize {
        self.data + self.parity
    }

    /// Length of each shard for an object of `object_size` bytes
    /// (`ceil(size / d)`; the splitter zero-pads the tail).
    pub fn chunk_len(&self, object_size: u64) -> u64 {
        object_size.div_ceil(self.data as u64)
    }

    /// Total cached bytes for an object of `object_size` bytes, including
    /// parity overhead and tail padding.
    pub fn stored_len(&self, object_size: u64) -> u64 {
        self.chunk_len(object_size) * self.shards() as u64
    }

    /// Storage blow-up factor `n / d` (e.g. 1.2 for `(10+2)`).
    pub fn overhead(&self) -> f64 {
        self.shards() as f64 / self.data as f64
    }

    /// `true` if the code can reconstruct after losing `lost` shards.
    pub fn tolerates(&self, lost: usize) -> bool {
        lost <= self.parity
    }

    /// Minimum number of simultaneous chunk losses that makes an object
    /// unrecoverable — the paper's `m = p + 1` (§4.3).
    pub fn min_loss(&self) -> usize {
        self.parity + 1
    }
}

impl std::fmt::Display for EcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}+{})", self.data, self.parity)
    }
}

impl Default for EcConfig {
    /// The paper's production configuration `(10+2)` (§5.2).
    fn default() -> Self {
        EcConfig {
            data: 10,
            parity: 2,
        }
    }
}

/// Shape and policy knobs of one InfiniCache deployment.
///
/// Defaults reproduce the paper's production-workload setup (§5.2): one
/// proxy, 400 Lambda functions of 1536 MB each, RS(10+2), one-minute
/// warm-ups, five-minute delta-sync backups.
#[derive(Clone, Debug, PartialEq)]
pub struct DeploymentConfig {
    /// Number of proxies (each manages its own Lambda pool, Fig 2).
    pub proxies: u16,
    /// Lambda cache nodes per proxy.
    pub lambdas_per_proxy: u32,
    /// Function memory size in MB (AWS allows 128–3008 in 64 MB steps).
    pub lambda_memory_mb: u32,
    /// Erasure-coding configuration.
    pub ec: EcConfig,
    /// Warm-up interval `Twarm` (§4.2; 1 minute in the paper).
    pub warmup_interval: SimDuration,
    /// Backup interval `Tbak` (§4.2; 5 minutes in the paper).
    pub backup_interval: SimDuration,
    /// Whether the delta-sync backup scheme runs at all (Fig 13d/14c ablate
    /// it off).
    pub backup_enabled: bool,
    /// Fraction of a function's memory usable for cached chunks; the rest is
    /// runtime overhead (language runtime, buffers).
    pub cache_memory_fraction: f64,
    /// Return-buffer before the end of a billing cycle (§3.3 gives 2–10 ms;
    /// larger functions afford the smaller buffer).
    pub billing_buffer: SimDuration,
    /// Virtual nodes per proxy on the client's consistent-hash ring.
    pub ring_vnodes: u32,
}

impl DeploymentConfig {
    /// The paper's §5.2 production configuration.
    pub fn paper_production() -> Self {
        DeploymentConfig::default()
    }

    /// A small deployment for tests and examples: one proxy, `n` nodes.
    pub fn small(n: u32, ec: EcConfig) -> Self {
        DeploymentConfig {
            proxies: 1,
            lambdas_per_proxy: n,
            ec,
            ..DeploymentConfig::default()
        }
    }

    /// Total Lambda nodes across all proxies (`Nλ`).
    pub fn total_lambdas(&self) -> u32 {
        self.proxies as u32 * self.lambdas_per_proxy
    }

    /// Function memory in bytes.
    pub fn lambda_memory_bytes(&self) -> u64 {
        self.lambda_memory_mb as u64 * MIB
    }

    /// Bytes of one function's memory available for cached chunks.
    pub fn lambda_cache_capacity(&self) -> u64 {
        (self.lambda_memory_bytes() as f64 * self.cache_memory_fraction) as u64
    }

    /// Aggregate cache capacity of one proxy's pool, in bytes.
    pub fn pool_capacity(&self) -> u64 {
        self.lambda_cache_capacity() * self.lambdas_per_proxy as u64
    }

    /// The Lambda node ids owned by proxy `p`: every substrate carves the
    /// global id space into disjoint per-proxy ranges
    /// (`[p·lambdas_per_proxy, (p+1)·lambdas_per_proxy)`), so a node id
    /// names both the node and — via [`DeploymentConfig::owner_of`] — the
    /// proxy that manages it.
    ///
    /// # Example
    ///
    /// ```
    /// use ic_common::{DeploymentConfig, EcConfig, LambdaId, ProxyId};
    /// let cfg = DeploymentConfig {
    ///     proxies: 2,
    ///     ..DeploymentConfig::small(4, EcConfig::new(2, 1)?)
    /// };
    /// let pool: Vec<LambdaId> = cfg.proxy_pool(ProxyId(1)).collect();
    /// assert_eq!(pool, (4..8).map(LambdaId).collect::<Vec<_>>());
    /// assert_eq!(cfg.owner_of(LambdaId(5)), ProxyId(1));
    /// # Ok::<(), ic_common::Error>(())
    /// ```
    pub fn proxy_pool(&self, p: crate::ids::ProxyId) -> impl Iterator<Item = crate::ids::LambdaId> {
        let base = p.0 as u32 * self.lambdas_per_proxy;
        (base..base + self.lambdas_per_proxy).map(crate::ids::LambdaId)
    }

    /// The proxy that owns node `lambda` (inverse of
    /// [`DeploymentConfig::proxy_pool`]).
    pub fn owner_of(&self, lambda: crate::ids::LambdaId) -> crate::ids::ProxyId {
        crate::ids::ProxyId((lambda.0 / self.lambdas_per_proxy) as u16)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the pool is smaller than one EC stripe,
    /// when the memory size is outside AWS's 128–3008 MB envelope, or when
    /// fractions are out of range.
    pub fn validate(&self) -> Result<()> {
        if self.proxies == 0 || self.lambdas_per_proxy == 0 {
            return Err(Error::Config(
                "deployment needs at least one proxy and one node".into(),
            ));
        }
        if (self.lambdas_per_proxy as usize) < self.ec.shards() {
            return Err(Error::Config(format!(
                "pool of {} nodes cannot place {} distinct chunks",
                self.lambdas_per_proxy,
                self.ec.shards()
            )));
        }
        if !(128..=3008).contains(&self.lambda_memory_mb) {
            return Err(Error::Config(format!(
                "lambda memory {} MB outside AWS's 128-3008 MB range",
                self.lambda_memory_mb
            )));
        }
        if !(0.0..=1.0).contains(&self.cache_memory_fraction) {
            return Err(Error::Config(
                "cache_memory_fraction must be in [0,1]".into(),
            ));
        }
        Ok(())
    }
}

impl Default for DeploymentConfig {
    fn default() -> Self {
        DeploymentConfig {
            proxies: 1,
            lambdas_per_proxy: 400,
            lambda_memory_mb: 1536,
            ec: EcConfig::default(),
            warmup_interval: SimDuration::from_mins(1),
            backup_interval: SimDuration::from_mins(5),
            backup_enabled: true,
            cache_memory_fraction: 0.9,
            billing_buffer: SimDuration::from_millis(5),
            ring_vnodes: 128,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_rejects_degenerate_codes() {
        assert!(EcConfig::new(0, 2).is_err());
        assert!(EcConfig::new(200, 100).is_err());
        assert!(EcConfig::new(10, 0).is_ok());
    }

    #[test]
    fn ec_chunking_rounds_up() {
        let ec = EcConfig::new(10, 2).unwrap();
        assert_eq!(ec.chunk_len(1000), 100);
        assert_eq!(ec.chunk_len(1001), 101);
        assert_eq!(ec.stored_len(1000), 1200);
        assert!((ec.overhead() - 1.2).abs() < 1e-12);
        assert_eq!(ec.min_loss(), 3);
    }

    #[test]
    fn ec_display_matches_paper_notation() {
        assert_eq!(EcConfig::new(10, 1).unwrap().to_string(), "(10+1)");
    }

    #[test]
    fn default_deployment_is_the_paper_setup() {
        let cfg = DeploymentConfig::default();
        assert_eq!(cfg.total_lambdas(), 400);
        assert_eq!(cfg.lambda_memory_mb, 1536);
        assert_eq!(cfg.ec, EcConfig::new(10, 2).unwrap());
        assert_eq!(cfg.warmup_interval, SimDuration::from_mins(1));
        assert_eq!(cfg.backup_interval, SimDuration::from_mins(5));
        cfg.validate().unwrap();
        // 400 × 1.5 GB × 0.9 usable ≈ 540 GiB pool.
        assert!(cfg.pool_capacity() > 500 * 1024 * MIB);
    }

    #[test]
    fn proxy_pools_are_disjoint_and_cover_the_deployment() {
        use crate::ids::{LambdaId, ProxyId};
        let cfg = DeploymentConfig {
            proxies: 3,
            ..DeploymentConfig::small(5, EcConfig::new(4, 1).unwrap())
        };
        let mut seen = Vec::new();
        for p in 0..cfg.proxies {
            for l in cfg.proxy_pool(ProxyId(p)) {
                assert_eq!(cfg.owner_of(l), ProxyId(p));
                seen.push(l);
            }
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len() as u32, cfg.total_lambdas());
        assert_eq!(seen.first(), Some(&LambdaId(0)));
        assert_eq!(seen.last(), Some(&LambdaId(14)));
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let mut cfg = DeploymentConfig::small(5, EcConfig::new(10, 2).unwrap());
        assert!(cfg.validate().is_err()); // 5 nodes < 12 shards
        cfg.lambdas_per_proxy = 12;
        assert!(cfg.validate().is_ok());
        cfg.lambda_memory_mb = 64;
        assert!(cfg.validate().is_err());
        cfg.lambda_memory_mb = 1024;
        cfg.cache_memory_fraction = 1.5;
        assert!(cfg.validate().is_err());
    }
}
