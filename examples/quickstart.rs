//! Quickstart: a live, in-process InfiniCache deployment with real bytes.
//!
//! Starts twelve Lambda-node threads behind one proxy, PUTs a 16 MiB
//! object through the RS(10+2) erasure coder, reads it back, then
//! simulates two provider reclaims and reads it again — the erasure code
//! reconstructs the lost chunks transparently (and repairs them).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use ic_common::{DeploymentConfig, EcConfig, LambdaId};
use infinicache::live::LiveCluster;
use std::time::Instant;

fn main() -> ic_common::Result<()> {
    let ec = EcConfig::new(10, 2)?;
    let cfg = DeploymentConfig {
        backup_enabled: false, // keep the demo deterministic
        ..DeploymentConfig::small(16, ec)
    };
    println!("starting a live InfiniCache: 16 nodes, RS{ec}, 1 proxy");
    let mut cache = LiveCluster::start(cfg)?;

    // A 16 MiB object with a recognizable pattern.
    let object: Bytes = (0..16 * 1024 * 1024)
        .map(|i| ((i * 31 + 7) % 256) as u8)
        .collect::<Vec<u8>>()
        .into();

    let t = Instant::now();
    cache.put("docker-layer:sha256:abc123", object.clone())?;
    println!(
        "PUT 16 MiB in {:?} (split into 10 data + 2 parity chunks)",
        t.elapsed()
    );

    let t = Instant::now();
    let back = cache
        .get("docker-layer:sha256:abc123")?
        .expect("object is cached");
    println!(
        "GET 16 MiB in {:?} — {} bytes identical: {}",
        t.elapsed(),
        back.len(),
        back == object
    );

    // The provider reclaims functions one by one; each GET rides out the
    // loss via the parity chunks and repairs the missing chunk (read
    // repair), so the object never becomes unrecoverable.
    println!("\nsimulating provider reclaims, one node at a time...");
    for node in 0..16u32 {
        cache.reclaim_node(LambdaId(node));
        std::thread::sleep(std::time::Duration::from_millis(30));
        let t = Instant::now();
        let back = cache
            .get("docker-layer:sha256:abc123")?
            .expect("still recoverable");
        assert_eq!(back, object, "bytes must survive the reclaim");
        let stats = cache.stats();
        if stats.recoveries > 0 {
            println!(
                "reclaimed node λ{node}: GET in {:?}, EC recovered and repaired {} chunk(s)",
                t.elapsed(),
                stats.repaired_chunks
            );
            if stats.recoveries >= 2 {
                break;
            }
        }
    }

    println!(
        "\na miss returns None: {:?}",
        cache.get("never-stored")?.is_none()
    );
    cache.shutdown();
    println!("done");
    Ok(())
}
