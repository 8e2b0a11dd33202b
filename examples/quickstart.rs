//! Quickstart: an InfiniCache deployment on loopback sockets, with real
//! bytes.
//!
//! Starts sixteen Lambda-node daemons behind one proxy — every message
//! crosses a real TCP socket, all inside this process — PUTs a 16 MiB
//! object through the RS(10+2) erasure coder, reads it back, then
//! simulates provider reclaims one node at a time and reads it again —
//! the erasure code reconstructs the lost chunks transparently (and
//! repairs them).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use bytes::Bytes;
use ic_common::{DeploymentConfig, EcConfig, LambdaId};
use ic_net::LoopbackCluster;
use std::time::Instant;

fn main() -> ic_common::Result<()> {
    let ec = EcConfig::new(10, 2)?;
    let cfg = DeploymentConfig {
        backup_enabled: false, // keep the demo deterministic
        ..DeploymentConfig::small(16, ec)
    };
    println!("starting InfiniCache on loopback sockets: 16 nodes, RS{ec}, 1 proxy");
    let cluster = LoopbackCluster::start(cfg)?;
    let mut cache = cluster.client()?;

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
    assert_eq!(back, object, "bytes must round-trip");
    println!(
        "GET 16 MiB in {:?} — {} bytes identical",
        t.elapsed(),
        back.len()
    );

    // The provider reclaims functions one by one; each GET rides out the
    // loss via the parity chunks and repairs the missing chunk (read
    // repair), so the object never becomes unrecoverable.
    println!("\nsimulating provider reclaims, one node at a time...");
    for node in 0..16u32 {
        cluster.reclaim_node(LambdaId(node));
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
    assert!(
        cache.stats().recoveries >= 2,
        "reclaims must cost chunks that EC recovers: {:?}",
        cache.stats()
    );

    let miss = cache.get("never-stored")?;
    assert!(miss.is_none(), "a key never stored must miss");
    println!("\na miss returns None: {}", miss.is_none());
    cluster.shutdown();
    println!("done");
    Ok(())
}
