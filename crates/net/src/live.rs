//! Whole-deployment checks on a live loopback cluster, driven through
//! nothing but the client's `put`/`get` and the cluster's
//! `reclaim_node`: a round trip, a miss, an overwrite, losses within and
//! beyond parity, and many objects through one client.

mod tests {
    use std::time::Duration;

    use bytes::Bytes;
    use ic_common::{DeploymentConfig, EcConfig, Error, LambdaId};

    use crate::bench::pattern_bytes;
    use crate::{LoopbackCluster, NetClient};

    fn cluster(nodes: u32, d: usize, p: usize) -> (LoopbackCluster, NetClient) {
        let cfg = DeploymentConfig {
            backup_enabled: false,
            ..DeploymentConfig::small(nodes, EcConfig::new(d, p).unwrap())
        };
        let c = LoopbackCluster::start(cfg).expect("cluster starts");
        let client = c.client().expect("client connects");
        (c, client)
    }

    #[test]
    fn live_put_get_roundtrip() {
        let (c, mut client) = cluster(8, 4, 2);
        let data = pattern_bytes("hello", 0, 1 << 20);
        client.put("hello", data.clone()).unwrap();
        assert_eq!(client.get("hello").unwrap().expect("cached"), data);
        c.shutdown();
    }

    #[test]
    fn live_miss_returns_none() {
        let (c, mut client) = cluster(8, 4, 1);
        assert!(client.get("absent").unwrap().is_none());
        c.shutdown();
    }

    #[test]
    fn live_overwrite_returns_new_value() {
        let (c, mut client) = cluster(8, 4, 2);
        client.put("k", pattern_bytes("k", 0, 100_000)).unwrap();
        let v2 = Bytes::from(vec![9u8; 50_000]);
        client.put("k", v2.clone()).unwrap();
        assert_eq!(client.get("k").unwrap().unwrap(), v2);
        c.shutdown();
    }

    /// Ten nodes for six chunks: two reclaims lose at most two chunks,
    /// and maybe none.
    #[test]
    fn live_survives_reclaims_within_parity() {
        let (c, mut client) = cluster(10, 4, 2);
        let data = pattern_bytes("tough", 0, 400_000);
        client.put("tough", data.clone()).unwrap();
        c.reclaim_node(LambdaId(0));
        c.reclaim_node(LambdaId(1));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(client.get("tough").unwrap().expect("recoverable"), data);
        c.shutdown();
    }

    #[test]
    fn live_total_loss_is_unrecoverable_or_reset() {
        let (c, mut client) = cluster(6, 4, 1);
        client
            .put("fragile", pattern_bytes("fragile", 0, 100_000))
            .unwrap();
        for l in 0..6 {
            c.reclaim_node(LambdaId(l));
        }
        std::thread::sleep(Duration::from_millis(50));
        match client.get("fragile") {
            Err(Error::ChunkUnavailable { .. }) => {}
            other => panic!("expected unrecoverable, got {other:?}"),
        }
        c.shutdown();
    }

    #[test]
    fn live_many_objects() {
        let (c, mut client) = cluster(10, 5, 1);
        let objects: Vec<(String, Bytes)> = (0..20usize)
            .map(|i| {
                (
                    format!("obj-{i}"),
                    pattern_bytes("obj", i as u64, 10_000 + i * 137),
                )
            })
            .collect();
        for (k, v) in &objects {
            client.put(k, v.clone()).unwrap();
        }
        for (k, v) in &objects {
            assert_eq!(client.get(k).unwrap().unwrap(), *v, "{k}");
        }
        c.shutdown();
    }
}
