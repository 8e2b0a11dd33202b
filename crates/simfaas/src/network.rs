//! Fluid-flow network model with max–min fair sharing.
//!
//! Bulk transfers (chunk streams, backup deltas) are *flows* over a path of
//! one or two shared links (the sender's host uplink and the receiver's
//! NIC), optionally with a per-flow rate cap (a function's memory-dependent
//! bandwidth, or an S3 connection's per-stream throughput). Whenever a flow
//! starts or finishes, every flow's progress is settled at the current
//! instant and rates are recomputed with the classic progressive-filling
//! (water-filling) algorithm. Between changes rates are constant, so
//! completions are exact.
//!
//! What a start or finish costs: one walk over the active flows settles
//! them (and, on a finish, picks out the finished ones); a recompute then
//! counts each flow's links once, and each filling pass looks at every
//! still-unfrozen flow and the links of its path, plus the links some flow
//! crosses. That is active flows × path length per pass, independent of
//! how many links are registered (one per host ever created, most of them
//! idle at any instant). The earliest completion is noted as rates are
//! assigned, so [`Network::next_completion`] is O(1). Rates, completions
//! and epochs equal plain progressive filling bit for bit — the same
//! floating-point operations in the same order — which this module's
//! differential test checks against a verbatim copy of it.
//!
//! The event-loop contract: after any mutation, the owner re-reads
//! [`Network::next_completion`] and schedules a single timer carrying the
//! returned epoch. Timers from older epochs are stale and must be ignored;
//! on a fresh timer the owner calls [`Network::poll`] to collect finished
//! flows.

use ic_common::{SimDuration, SimTime};

/// Bytes of slack under which a flow counts as finished (guards float
/// rounding).
const COMPLETION_EPSILON: f64 = 1e-3;

/// Identifies a shared link (host uplink, client NIC...).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(usize);

/// Identifies one active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

#[derive(Debug)]
struct Link {
    capacity: f64, // bytes/sec
    // Progressive-filling scratch, meaningful only while `recompute` runs
    // (`users` is 0 between calls): capacity not yet given to frozen
    // flows, the unfrozen flows crossing the link, and the fair share
    // `remaining.max(0.0) / users`, refreshed whenever either changes (and
    // never read once `users` reaches 0).
    remaining: f64,
    users: u32,
    share: f64,
}

impl Link {
    fn refresh_share(&mut self) {
        self.share = self.remaining.max(0.0) / self.users as f64;
    }
}

#[derive(Debug)]
struct Flow<T> {
    id: u64,
    path: Vec<LinkId>,
    cap: Option<f64>,
    remaining: f64,
    rate: f64,
    /// Boxed so that `poll`, which closes the gaps finished flows leave,
    /// moves small records.
    payload: Box<T>,
}

impl<T> Flow<T> {
    /// Moves `dt` seconds of bytes at the current rate.
    fn advance(&mut self, dt: f64, delivered: &mut f64) {
        if self.rate > 0.0 {
            let moved = (self.rate * dt).min(self.remaining);
            self.remaining -= moved;
            *delivered += moved;
        }
    }

    /// Folds this flow's time to completion into `earliest`.
    fn note_completion(&self, earliest: &mut Option<f64>) {
        if self.rate > 0.0 {
            let secs = (self.remaining / self.rate).max(0.0);
            *earliest = Some(earliest.map_or(secs, |b| b.min(secs)));
        }
    }
}

/// The network: links, flows, and the fair-share rate assignment.
///
/// Generic over a per-flow payload `T` handed back on completion (the
/// owning event loop stores whatever routing context it needs there).
#[derive(Debug)]
pub struct Network<T> {
    links: Vec<Link>,
    /// Active flows in id (= start) order.
    flows: Vec<Flow<T>>,
    /// Seconds to the earliest completion at the current remaining bytes
    /// and rates; `None` with no flow moving.
    earliest: Option<f64>,
    /// Progressive-filling scratch, empty between calls: the links some
    /// flow crosses, and the indices of flows not yet frozen.
    touched: Vec<usize>,
    unfrozen: Vec<usize>,
    next_flow: u64,
    epoch: u64,
    settled_at: SimTime,
    /// Total bytes ever moved to completion (for throughput reporting).
    delivered_bytes: f64,
}

impl<T> Network<T> {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            links: Vec::new(),
            flows: Vec::new(),
            earliest: None,
            touched: Vec::new(),
            unfrozen: Vec::new(),
            next_flow: 0,
            epoch: 0,
            settled_at: SimTime::ZERO,
            delivered_bytes: 0.0,
        }
    }

    /// Adds a link of `bytes_per_sec` capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not strictly positive and finite.
    pub fn add_link(&mut self, bytes_per_sec: f64) -> LinkId {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        self.links.push(Link {
            capacity: bytes_per_sec,
            remaining: bytes_per_sec,
            users: 0,
            share: bytes_per_sec,
        });
        LinkId(self.links.len() - 1)
    }

    /// Current epoch; bumped on every rate change. Completion timers carry
    /// the epoch they were scheduled under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered by completed flows so far.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered_bytes
    }

    /// Feeds the protocol-relevant in-flight flow state into a state
    /// fingerprint: each flow's path and payload, in flow-id order.
    ///
    /// Timing state — remaining bytes, rates, epochs — is deliberately
    /// excluded: under the model checker's scheduler a flow's completion
    /// is an explicit delivery choice, so two states differing only in
    /// how far their flows have drained are protocol-equivalent.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher)
    where
        T: std::fmt::Debug,
    {
        use std::hash::Hash;
        self.flows.len().hash(h);
        for flow in &self.flows {
            for link in &flow.path {
                link.0.hash(h);
            }
            format!("{:?}", flow.payload).hash(h);
        }
    }

    /// Starts a flow of `bytes` over `path`, optionally rate-capped.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not positive, a link id is unknown, or the flow
    /// has neither a path nor a cap (it would be infinitely fast).
    pub fn start_flow(
        &mut self,
        now: SimTime,
        bytes: f64,
        path: Vec<LinkId>,
        cap: Option<f64>,
        payload: T,
    ) -> FlowId {
        assert!(bytes > 0.0, "flow must carry bytes");
        assert!(
            !path.is_empty() || cap.is_some(),
            "flow needs at least one link or a rate cap"
        );
        for l in &path {
            assert!(l.0 < self.links.len(), "unknown link {l:?}");
        }
        if let Some(c) = cap {
            assert!(c.is_finite() && c > 0.0, "flow cap must be positive");
        }
        self.settle(now);
        let id = self.next_flow;
        self.next_flow += 1;
        self.flows.push(Flow {
            id,
            path,
            cap,
            remaining: bytes,
            rate: 0.0,
            payload: Box::new(payload),
        });
        self.recompute();
        FlowId(id)
    }

    /// Earliest pending completion as `(time, epoch)`, if any flow is
    /// active. Schedule exactly one timer for it; older timers are stale.
    pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
        self.earliest.map(|secs| {
            let at = now + SimDuration::from_secs_f64(secs);
            // Never schedule exactly "now" twice in a row; nudge 1 µs.
            (at.max(now + SimDuration::from_micros(1)), self.epoch)
        })
    }

    /// Settles progress to `now` and returns every finished flow's payload.
    /// Recomputes rates if anything finished.
    pub fn poll(&mut self, now: SimTime) -> Vec<(FlowId, T)> {
        let dt = (now - self.settled_at).as_secs_f64();
        self.settled_at = self.settled_at.max(now);
        let delivered = &mut self.delivered_bytes;
        let mut earliest = None;
        let out: Vec<(FlowId, T)> = self
            .flows
            .extract_if(.., |f| {
                if dt > 0.0 {
                    f.advance(dt, delivered);
                }
                let done = f.remaining <= COMPLETION_EPSILON;
                if !done {
                    f.note_completion(&mut earliest);
                }
                done
            })
            .map(|f| (FlowId(f.id), *f.payload))
            .collect();
        if out.is_empty() {
            self.earliest = earliest;
        } else {
            self.recompute();
        }
        out
    }

    /// Advances every flow's remaining bytes to `now` at current rates.
    fn settle(&mut self, now: SimTime) {
        let dt = (now - self.settled_at).as_secs_f64();
        if dt > 0.0 {
            for f in &mut self.flows {
                f.advance(dt, &mut self.delivered_bytes);
            }
        }
        self.settled_at = self.settled_at.max(now);
    }

    /// Max–min fair rate assignment (progressive filling) with per-flow
    /// caps.
    ///
    /// Each pass finds the bottleneck level over the links the flows use
    /// and the unfrozen flows' caps, then freezes, in flow-id order, every
    /// flow constrained at that level, subtracting its rate from its
    /// links as it goes.
    fn recompute(&mut self) {
        self.epoch += 1;
        self.earliest = None;
        let Network {
            links,
            flows,
            earliest,
            touched,
            unfrozen,
            ..
        } = self;
        // A link's scratch is reset the first time a flow's path touches
        // it, and only touched links are visited below.
        let mut min_cap = f64::INFINITY;
        for (i, f) in flows.iter().enumerate() {
            if let Some(c) = f.cap {
                min_cap = min_cap.min(c);
            }
            for l in &f.path {
                let link = &mut links[l.0];
                if link.users == 0 {
                    link.remaining = link.capacity;
                    touched.push(l.0);
                }
                link.users += 1;
            }
            unfrozen.push(i);
        }
        for &li in touched.iter() {
            links[li].refresh_share();
        }

        while !unfrozen.is_empty() {
            // Bottleneck level: the smallest of (a) per-link fair share,
            // (b) any unfrozen flow's cap.
            let mut level = min_cap;
            for &li in touched.iter() {
                let link = &links[li];
                if link.users > 0 {
                    level = level.min(link.share);
                }
            }
            debug_assert!(level.is_finite(), "no constraint on some flow");

            // Freeze every flow constrained at this level; the caps of
            // those left make the next pass's cap bound.
            let before = unfrozen.len();
            min_cap = f64::INFINITY;
            unfrozen.retain(|&i| {
                let f = &mut flows[i];
                let constrained_by_cap = f.cap.is_some_and(|c| c <= level * (1.0 + 1e-9));
                let constrained_by_link = || {
                    f.path
                        .iter()
                        .any(|l| links[l.0].share <= level * (1.0 + 1e-9))
                };
                if constrained_by_cap || constrained_by_link() {
                    let rate = if constrained_by_cap {
                        f.cap.expect("cap-constrained")
                    } else {
                        level
                    }
                    .min(level);
                    f.rate = rate;
                    f.note_completion(earliest);
                    for l in &f.path {
                        let link = &mut links[l.0];
                        link.remaining -= rate;
                        link.users -= 1;
                        link.refresh_share();
                    }
                    false
                } else {
                    if let Some(c) = f.cap {
                        min_cap = min_cap.min(c);
                    }
                    true
                }
            });
            let froze_any = unfrozen.len() < before;
            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                // Defensive: freeze everything at the level to avoid a spin.
                for i in unfrozen.drain(..) {
                    flows[i].rate = level;
                    flows[i].note_completion(earliest);
                }
            }
        }
        for li in touched.drain(..) {
            links[li].users = 0;
        }
    }

    /// The current rate of a flow in bytes/sec (testing/inspection).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        let i = self.flows.binary_search_by_key(&id.0, |f| f.id).ok()?;
        Some(self.flows[i].rate)
    }
}

impl<T> Default for Network<T> {
    fn default() -> Self {
        Network::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(net: &mut Network<&'static str>, mut now: SimTime) -> Vec<(SimTime, &'static str)> {
        let mut out = Vec::new();
        while let Some((at, _epoch)) = net.next_completion(now) {
            now = at;
            for (_, p) in net.poll(now) {
                out.push((now, p));
            }
        }
        out
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let mut net = Network::new();
        let l = net.add_link(100.0); // 100 B/s
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        let done = drain(&mut net, SimTime::ZERO);
        assert_eq!(done.len(), 1);
        // 1000 B / 100 B/s = 10 s.
        assert!((done[0].0.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        let a = net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "a");
        let b = net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "b");
        assert!((net.flow_rate(a).unwrap() - 50.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 50.0).abs() < 1e-9);
        let done = drain(&mut net, SimTime::ZERO);
        // Both finish at 10 s (500 B at 50 B/s).
        assert_eq!(done.len(), 2);
        for (t, _) in done {
            assert!((t.as_secs_f64() - 10.0).abs() < 1e-3);
        }
    }

    #[test]
    fn finished_flow_releases_bandwidth() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "short");
        net.start_flow(SimTime::ZERO, 500.0, vec![l], None, "long");
        let done = drain(&mut net, SimTime::ZERO);
        // short: 100 B at 50 B/s = 2 s. long: 100 B by 2 s, remaining 400 B
        // at full 100 B/s = 4 more seconds => 6 s total.
        assert_eq!(done[0], (SimTime::from_secs(2), "short"));
        assert!((done[1].0.as_secs_f64() - 6.0).abs() < 1e-3);
    }

    #[test]
    fn per_flow_cap_binds_before_link() {
        let mut net = Network::new();
        let l = net.add_link(1_000.0);
        let a = net.start_flow(SimTime::ZERO, 100.0, vec![l], Some(10.0), "capped");
        let b = net.start_flow(SimTime::ZERO, 100.0, vec![l], None, "free");
        assert!((net.flow_rate(a).unwrap() - 10.0).abs() < 1e-9);
        // The free flow gets the rest of the link.
        assert!((net.flow_rate(b).unwrap() - 990.0).abs() < 1e-6);
    }

    #[test]
    fn two_link_path_takes_the_tighter_bottleneck() {
        let mut net = Network::new();
        let narrow = net.add_link(10.0);
        let wide = net.add_link(1_000.0);
        let f = net.start_flow(SimTime::ZERO, 100.0, vec![narrow, wide], None, "x");
        assert!((net.flow_rate(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn max_min_is_water_filling_not_proportional() {
        // Three flows: two on link A (cap 90), one of which also crosses
        // link B (cap 30). Water-filling: the A+B flow is limited to 30,
        // leaving 60 for the A-only flow.
        let mut net = Network::new();
        let a = net.add_link(90.0);
        let b = net.add_link(30.0);
        let fa = net.start_flow(SimTime::ZERO, 1e6, vec![a], None, "a-only");
        let fab = net.start_flow(SimTime::ZERO, 1e6, vec![a, b], None, "a+b");
        assert!((net.flow_rate(fab).unwrap() - 30.0).abs() < 1e-6);
        assert!((net.flow_rate(fa).unwrap() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn epochs_invalidate_stale_timers() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        let (_, epoch1) = net.next_completion(SimTime::ZERO).unwrap();
        net.start_flow(SimTime::ZERO, 10.0, vec![l], None, "b");
        let (_, epoch2) = net.next_completion(SimTime::ZERO).unwrap();
        assert_ne!(epoch1, epoch2, "rate change must bump the epoch");
        assert_eq!(net.epoch(), epoch2);
    }

    #[test]
    fn poll_before_completion_returns_nothing() {
        let mut net = Network::new();
        let l = net.add_link(100.0);
        net.start_flow(SimTime::ZERO, 1_000.0, vec![l], None, "a");
        assert!(net.poll(SimTime::from_secs(5)).is_empty());
        assert_eq!(net.active_flows(), 1);
        assert!(!net.poll(SimTime::from_secs(10)).is_empty());
        assert!((net.delivered_bytes() - 1_000.0).abs() < 1e-3);
    }

    #[test]
    fn capped_pathless_flow_completes() {
        // S3-style flow: no shared link, only a per-connection cap.
        let mut net = Network::new();
        net.start_flow(SimTime::ZERO, 300.0, vec![], Some(100.0), "s3");
        let done = drain(&mut net, SimTime::ZERO);
        assert!((done[0].0.as_secs_f64() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn many_flows_conserve_link_capacity() {
        let mut net = Network::new();
        let l = net.add_link(1_000.0);
        let ids: Vec<FlowId> = (0..25)
            .map(|_| net.start_flow(SimTime::ZERO, 1e6, vec![l], None, "f"))
            .collect();
        let total: f64 = ids.iter().map(|&id| net.flow_rate(id).unwrap()).sum();
        assert!((total - 1_000.0).abs() < 1e-6, "sum of rates {total}");
    }

    /// Plain progressive filling, the oracle for [`differential`]: a
    /// fresh link-sized pair of vectors per call, every registered link
    /// scanned per pass, flows looked up by id in a `BTreeMap`. Keep it
    /// verbatim; the network's rates must equal its bit for bit.
    mod reference {
        use std::collections::BTreeMap;

        use ic_common::{SimDuration, SimTime};

        use super::super::COMPLETION_EPSILON;

        struct Flow {
            path: Vec<usize>,
            cap: Option<f64>,
            remaining: f64,
            rate: f64,
        }

        pub struct Network {
            capacities: Vec<f64>,
            flows: BTreeMap<u64, Flow>,
            next_flow: u64,
            pub epoch: u64,
            settled_at: SimTime,
            pub delivered_bytes: f64,
        }

        impl Network {
            pub fn new(capacities: Vec<f64>) -> Self {
                Network {
                    capacities,
                    flows: BTreeMap::new(),
                    next_flow: 0,
                    epoch: 0,
                    settled_at: SimTime::ZERO,
                    delivered_bytes: 0.0,
                }
            }

            pub fn rates(&self) -> Vec<(u64, f64)> {
                self.flows.iter().map(|(&id, f)| (id, f.rate)).collect()
            }

            pub fn start_flow(
                &mut self,
                now: SimTime,
                bytes: f64,
                path: Vec<usize>,
                cap: Option<f64>,
            ) -> u64 {
                self.settle(now);
                let id = self.next_flow;
                self.next_flow += 1;
                self.flows.insert(
                    id,
                    Flow {
                        path,
                        cap,
                        remaining: bytes,
                        rate: 0.0,
                    },
                );
                self.recompute();
                id
            }

            pub fn next_completion(&self, now: SimTime) -> Option<(SimTime, u64)> {
                let mut best: Option<f64> = None;
                for f in self.flows.values() {
                    if f.rate <= 0.0 {
                        continue;
                    }
                    let secs = (f.remaining / f.rate).max(0.0);
                    best = Some(match best {
                        Some(b) => b.min(secs),
                        None => secs,
                    });
                }
                best.map(|secs| {
                    let at = now + SimDuration::from_secs_f64(secs);
                    (at.max(now + SimDuration::from_micros(1)), self.epoch)
                })
            }

            pub fn poll(&mut self, now: SimTime) -> Vec<u64> {
                self.settle(now);
                let done: Vec<u64> = self
                    .flows
                    .iter()
                    .filter(|(_, f)| f.remaining <= COMPLETION_EPSILON)
                    .map(|(&id, _)| id)
                    .collect();
                for id in &done {
                    self.flows.remove(id);
                }
                if !done.is_empty() {
                    self.recompute();
                }
                done
            }

            fn settle(&mut self, now: SimTime) {
                let dt = (now - self.settled_at).as_secs_f64();
                if dt > 0.0 {
                    for f in self.flows.values_mut() {
                        if f.rate > 0.0 {
                            let moved = (f.rate * dt).min(f.remaining);
                            f.remaining -= moved;
                            self.delivered_bytes += moved;
                        }
                    }
                }
                self.settled_at = self.settled_at.max(now);
            }

            fn recompute(&mut self) {
                self.epoch += 1;
                if self.flows.is_empty() {
                    return;
                }
                let n_links = self.capacities.len();
                let mut link_remaining: Vec<f64> = self.capacities.clone();
                let mut link_users: Vec<u32> = vec![0; n_links];
                let mut unfrozen: Vec<u64> = self.flows.keys().copied().collect();
                for f in self.flows.values() {
                    for &l in &f.path {
                        link_users[l] += 1;
                    }
                }

                while !unfrozen.is_empty() {
                    let mut level = f64::INFINITY;
                    for (li, &users) in link_users.iter().enumerate() {
                        if users > 0 {
                            level = level.min(link_remaining[li].max(0.0) / users as f64);
                        }
                    }
                    for id in &unfrozen {
                        if let Some(c) = self.flows[id].cap {
                            level = level.min(c);
                        }
                    }

                    let mut next_unfrozen = Vec::with_capacity(unfrozen.len());
                    let mut froze_any = false;
                    for id in unfrozen {
                        let constrained_by_cap = self.flows[&id]
                            .cap
                            .is_some_and(|c| c <= level * (1.0 + 1e-9));
                        let constrained_by_link = self.flows[&id].path.iter().any(|&l| {
                            link_remaining[l].max(0.0) / link_users[l] as f64
                                <= level * (1.0 + 1e-9)
                        });
                        if constrained_by_cap || constrained_by_link {
                            let rate = if constrained_by_cap {
                                self.flows[&id].cap.expect("cap-constrained")
                            } else {
                                level
                            }
                            .min(level);
                            let f = self.flows.get_mut(&id).expect("flow exists");
                            f.rate = rate;
                            for &l in &f.path {
                                link_remaining[l] -= rate;
                                link_users[l] -= 1;
                            }
                            froze_any = true;
                        } else {
                            next_unfrozen.push(id);
                        }
                    }
                    if !froze_any {
                        for id in &next_unfrozen {
                            self.flows.get_mut(id).expect("flow exists").rate = level;
                        }
                        break;
                    }
                    unfrozen = next_unfrozen;
                }
            }
        }
    }

    /// The network against [`reference`], bit for bit.
    mod differential {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Asserts every active flow's rate, the pending completion and
        /// the delivered bytes equal the reference's, compared as bits.
        fn assert_same(net: &Network<u64>, oracle: &reference::Network, now: SimTime) {
            let rates = oracle.rates();
            assert_eq!(net.active_flows(), rates.len());
            for (id, rate) in rates {
                let got = net.flow_rate(FlowId(id)).expect("flow active in both");
                assert_eq!(got.to_bits(), rate.to_bits(), "flow {id} rate");
            }
            assert_eq!(net.next_completion(now), oracle.next_completion(now));
            assert_eq!(net.epoch(), oracle.epoch);
            assert_eq!(
                net.delivered_bytes().to_bits(),
                oracle.delivered_bytes.to_bits()
            );
        }

        /// Rates (link capacities and flow caps) mostly from a few values
        /// that tie, or nearly tie, with each other and with the fair
        /// shares they make, so the freeze tolerance and `min` ties are
        /// exercised; otherwise `free`.
        fn rate_from(pick: usize, free: f64) -> f64 {
            const TIES: [f64; 6] = [
                1e6,
                3e6,
                5e5,
                1e6 * (1.0 + 4e-10),
                1e6 * (1.0 + 3e-9),
                (1e6 / 3.0) * (1.0 - 5e-10),
            ];
            TIES.get(pick).copied().unwrap_or(free)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Up to ~1 000 links, most of them idle: flows cross 1–3
            /// links of a small busy set, with and without caps, and
            /// starts, polls and completion queries interleave at
            /// advancing times. After every step each flow's rate and the
            /// returned `(time, epoch)` equal the reference's exactly.
            #[test]
            fn rates_and_completions_equal_plain_progressive_filling(
                capacities in vec((0usize..8, 1e3f64..1e9), 1..1000),
                busy in vec(0usize..1000, 1..12),
                ops in vec(
                    (
                        0u8..4,
                        0u64..100_000,
                        1e3f64..1e9,
                        (0usize..12, 0usize..12, 0usize..12),
                        1usize..4,
                        proptest::option::of((0usize..8, 1e3f64..1e8)),
                    ),
                    1..160,
                ),
            ) {
                let mut net: Network<u64> = Network::new();
                let capacities: Vec<f64> =
                    capacities.into_iter().map(|(p, c)| rate_from(p, c)).collect();
                let links: Vec<LinkId> = capacities.iter().map(|&c| net.add_link(c)).collect();
                let mut oracle = reference::Network::new(capacities);
                let busy: Vec<usize> = busy.iter().map(|&b| b % links.len()).collect();
                let mut now = SimTime::ZERO;
                for (kind, dt_us, bytes, (a, b, c), len, cap) in ops {
                    match kind {
                        // Start a flow over 1–3 busy links.
                        0 | 1 => {
                            now += SimDuration::from_micros(dt_us);
                            let path: Vec<usize> = [a, b, c][..len]
                                .iter()
                                .map(|&i| busy[i % busy.len()])
                                .collect();
                            let cap = cap.map(|(p, c)| rate_from(p, c));
                            let expect = oracle.start_flow(now, bytes, path.clone(), cap);
                            let path = path.into_iter().map(|i| links[i]).collect();
                            let id = net.start_flow(now, bytes, path, cap, expect);
                            prop_assert_eq!(id, FlowId(expect));
                        }
                        // Poll at an arbitrary later time.
                        2 => {
                            now += SimDuration::from_micros(dt_us);
                            let done: Vec<u64> =
                                net.poll(now).into_iter().map(|(_, p)| p).collect();
                            prop_assert_eq!(done, oracle.poll(now));
                        }
                        // Jump to the pending completion and poll there.
                        _ => {
                            let next = net.next_completion(now);
                            prop_assert_eq!(next, oracle.next_completion(now));
                            if let Some((at, _)) = next {
                                now = at;
                                let done: Vec<u64> =
                                    net.poll(now).into_iter().map(|(_, p)| p).collect();
                                prop_assert_eq!(done, oracle.poll(now));
                            }
                        }
                    }
                    assert_same(&net, &oracle, now);
                }
            }
        }
    }
}
