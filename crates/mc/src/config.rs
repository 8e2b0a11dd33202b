//! What the checker explores: deployment shape, workload, fault budget,
//! and search bounds.

use ic_common::{ClientId, DeploymentConfig, EcConfig, SimDuration, SimTime};
use ic_simfaas::reclaim::NoReclaim;
use infinicache::schedule::Schedule;
use infinicache::{Op, SimParams, SimWorld};

/// When [`McConfig::settle_prefix`] > 0, the sim horizon the settled
/// operations run to before the explored operations are submitted.
const SETTLE_HORIZON: SimTime = SimTime::from_secs(10);

/// Which revert-detection hooks to arm in the explored worlds (each
/// resurrects one historical protocol bug; see the `set_debug_*` hooks
/// on `ClientLib`/`Proxy`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BugHooks {
    /// Drop chunk answers that overtake `GetAccepted` (client side).
    pub drop_early_answers: bool,
    /// Drop stale chunk answers without re-querying the live home
    /// (proxy side).
    pub drop_stale_requery: bool,
}

impl BugHooks {
    /// `true` when any hook is armed.
    pub fn any(self) -> bool {
        self.drop_early_answers || self.drop_stale_requery
    }
}

/// Search order for the interleaving exploration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Depth-first: reaches terminal states (and therefore termination
    /// violations) quickly; counterexamples are not necessarily
    /// shortest, the minimizer compensates.
    Dfs,
    /// Breadth-first: first counterexample found is depth-minimal; uses
    /// more frontier memory.
    Bfs,
}

/// Everything one exploration needs: the deployment, the workload, the
/// injected-fault budget, and the search bounds.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Proxies in the deployment.
    pub proxies: u16,
    /// Clients issuing the workload.
    pub clients: u16,
    /// Lambda pool size per proxy.
    pub lambdas_per_proxy: u32,
    /// Erasure code (small codes keep stripes — and the state space —
    /// small).
    pub ec: EcConfig,
    /// The workload, submitted up front; delivery order is explored.
    /// All operations are submitted at once (their `at` is ignored): the
    /// *scheduler* decides when each executes, subject only to
    /// per-client program order (a client's second call cannot start
    /// before its first). Fault steps are ignored: the scheduler injects
    /// its own.
    pub ops: Schedule,
    /// How many leading `ops` are *settled* — run to completion under
    /// the production time-ordered scheduler — before exploration
    /// starts. The explored state space then covers only the remaining
    /// operations' interleavings. Settling the setup phase (typically
    /// the PUTs that populate the cache) is what makes exhaustive
    /// exploration tractable: a full PUT pipeline is ~30 choices deep
    /// with heavy branching, while the races worth checking (answer
    /// reordering, reclaim-vs-GET, disconnect-vs-GET) all live in the
    /// read path. Set to 0 to explore everything.
    pub settle_prefix: usize,
    /// Where settling stops. `false`: at the ten-second horizon, long
    /// after the settled operations' last flow — every node they woke
    /// has returned and sleeps, so explored GETs meet `Sleeping` homes.
    /// `true`: the moment the settled operations conclude — their nodes
    /// are still running and their connections `Active`, which is the
    /// only state a data-first read is admitted from.
    pub settle_warm: bool,
    /// Maximum scheduling choices along one path (depth bound).
    pub depth: usize,
    /// Instance reclaims the scheduler may inject per path.
    pub max_reclaims: usize,
    /// Client disconnects the scheduler may inject per path.
    pub max_disconnects: usize,
    /// DFS or BFS.
    pub mode: SearchMode,
    /// Sleep-set pruning of commuting deliveries. Off by default: with
    /// state-fingerprint dedup also on, sleep sets can in rare shapes
    /// hide a state reachable only through a pruned order, so the
    /// exhaustive CI legs run without it and the pruned run is a
    /// faster cross-check, not the source of truth.
    pub prune_commuting: bool,
    /// `LambdaTimer` events (billing-cycle ends) the scheduler may
    /// deliver per path. 0 by default: request progress never depends on
    /// them, each pending timer multiplies the state space, and a timer
    /// that re-arms (a busy cycle) is a chain of choices with no end —
    /// hence a budget, like the other injected events, not a switch.
    pub max_timer_fires: usize,
    /// Hard cap on distinct states (safety valve; 0 = unbounded). The
    /// report records whether the cap was hit.
    pub max_states: u64,
    /// Stop at the first violation (on) or keep searching and collect
    /// every distinct one (off).
    pub stop_at_first: bool,
    /// World seed (placements draw from seeded RNGs, so the same seed
    /// explores the same tree).
    pub seed: u64,
    /// Revert-detection hooks to arm.
    pub hooks: BugHooks,
}

impl McConfig {
    /// The smallest interesting deployment: 1 proxy × 3 nodes, one
    /// client, a single PUT→GET under a 2+1 code. The PUT is settled;
    /// the GET's interleavings are explored exhaustively.
    pub fn tiny(seed: u64) -> Self {
        McConfig {
            proxies: 1,
            clients: 1,
            lambdas_per_proxy: 3,
            ec: EcConfig::new(2, 1).expect("valid code"),
            ops: "0 put k0 6000\n0 get k0".parse().expect("valid schedule"),
            settle_prefix: 1,
            settle_warm: false,
            depth: 40,
            max_reclaims: 0,
            max_disconnects: 0,
            mode: SearchMode::Dfs,
            prune_commuting: false,
            max_timer_fires: 0,
            max_states: 2_000_000,
            stop_at_first: true,
            seed,
            hooks: BugHooks::default(),
        }
    }

    /// The acceptance-criteria config: 1 proxy × 4 nodes, two clients
    /// (a writer and a racing reader), one injected reclaim available to
    /// the scheduler.
    pub fn small(seed: u64) -> Self {
        McConfig {
            clients: 2,
            lambdas_per_proxy: 4,
            ops: "0 put k0 6000\n1 get k0".parse().expect("valid schedule"),
            max_reclaims: 1,
            ..McConfig::tiny(seed)
        }
    }

    /// The overwrite-race config: client 0's initial PUT is settled,
    /// then its *overwrite* of the same key is explored against client
    /// 1's concurrent GET. This is the shape that exercises the stale
    /// chunk-answer path — when the overwrite re-places a chunk while a
    /// GET's query for the old copy is in flight, the answer comes back
    /// from a node that is no longer the chunk's home and the proxy
    /// must re-query the live one.
    pub fn race(seed: u64) -> Self {
        McConfig {
            clients: 2,
            lambdas_per_proxy: 4,
            ops: "0 put k0 6000\n0 put k0 6000\n1 get k0"
                .parse()
                .expect("valid schedule"),
            depth: 48,
            ..McConfig::tiny(seed)
        }
    }

    /// The write path on its own: one client's PUT onto a cold 3-node
    /// pool under a 2+1 code, with *nothing* settled — invokes, PONG
    /// flushes, chunk stores and acks all interleave freely. Every
    /// latent bug so far lived in PUT interleavings the settled presets
    /// skip; this is the smallest space that contains a whole one.
    pub fn put(seed: u64) -> Self {
        McConfig {
            ops: "0 put k0 6000".parse().expect("valid schedule"),
            settle_prefix: 0,
            ..McConfig::tiny(seed)
        }
    }

    /// The read path on live connections: the tiny deployment (one
    /// client, 3 nodes, 2+1, PUT then GET of one key) with the PUT
    /// settled only as far as its `PutDone`, so the GET meets the
    /// `Active` homes the PUT just woke and is admitted data-first —
    /// which the other presets never see, their homes having long
    /// returned. One billing cycle may end and one reclaim is
    /// injectable, so a data home can return under the GET's query (a
    /// bounce) and come back empty (a miss on top), and the held parity
    /// request must be released exactly once; termination also requires
    /// that no proxy still holds parity back. (With nothing settled the
    /// same workload does not exhaust: the PUT's interleavings multiply
    /// the GET's.)
    pub fn read(seed: u64) -> Self {
        McConfig {
            settle_warm: true,
            max_reclaims: 1,
            max_timer_fires: 1,
            ..McConfig::tiny(seed)
        }
    }

    /// Builds the world this config describes, settles the first
    /// [`settle_prefix`](Self::settle_prefix) operations under the
    /// production time-ordered scheduler, and submits the rest for the
    /// exploration scheduler to order.
    ///
    /// Submissions are staggered one millisecond apart so each gets a
    /// distinct queue slot, but the stagger carries no semantics — the
    /// scheduler owns delivery order (subject to per-client program
    /// order, which the choice enumerator enforces by sequence number).
    /// The whole construction is deterministic, which is what lets the
    /// stateless explorer treat "config + choice path" as a complete
    /// recipe for a state.
    pub fn build_world(&self) -> SimWorld {
        let deployment = DeploymentConfig {
            proxies: self.proxies,
            lambdas_per_proxy: self.lambdas_per_proxy,
            lambda_memory_mb: 128,
            ec: self.ec,
            // Backups and policy reclaims are off: the scheduler injects
            // reclaims explicitly, and backup rounds are driven by warm-up
            // ticks the checker never schedules.
            backup_enabled: false,
            ..DeploymentConfig::default()
        };
        let mut world = SimWorld::new(
            deployment,
            SimParams::paper().with_seed(self.seed),
            Box::new(NoReclaim),
            self.clients,
        );
        // A cold miss is just a miss: the S3 refetch path would add
        // flows (and states) without exercising new protocol logic.
        world.write_through = false;
        if self.hooks.any() {
            world.set_debug_bug_hooks(self.hooks.drop_early_answers, self.hooks.drop_stale_requery);
        }
        let ops: Vec<(ClientId, Op)> = self
            .ops
            .ops()
            .filter_map(|(step, op)| Some((ClientId(step.client), op?)))
            .collect();
        let settle = self.settle_prefix.min(ops.len());
        let submit = |world: &mut SimWorld, base: SimTime, ops: &[(ClientId, Op)]| {
            for (i, (client, op)) in ops.iter().enumerate() {
                let at = base + SimDuration::from_millis(1 + i as u64);
                world.submit(at, *client, op.clone());
            }
        };
        submit(&mut world, SimTime::ZERO, &ops[..settle]);
        let mut settled_at = SETTLE_HORIZON;
        if settle > 0 && self.settle_warm {
            settled_at = SimTime::ZERO;
            loop {
                settled_at += SimDuration::from_millis(1);
                world.run_until(settled_at);
                let concluded =
                    world.pending_put_keys().is_empty() && world.pending_get_keys().is_empty();
                if concluded || settled_at >= SETTLE_HORIZON {
                    break;
                }
            }
        } else if settle > 0 {
            // Ten sim-seconds is far past any settled operation's last
            // flow; housekeeping events left pending after the horizon
            // are invisible to both the choice enumerator and the
            // fingerprint.
            world.run_until(SETTLE_HORIZON);
        }
        submit(&mut world, settled_at, &ops[settle..]);
        world
    }
}
