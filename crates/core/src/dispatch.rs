//! The shared protocol-dispatch layer: one executor per action enum,
//! portable across execution substrates.
//!
//! The client library, proxy, and Lambda runtime are pure state machines:
//! fed a stimulus, each returns a list of actions ([`ClientAction`],
//! [`ProxyAction`], lambda [`LAction`]) describing the side effects the
//! embedding must perform — send a control message, stream bulk data,
//! invoke a function, arm a timer.
//!
//! Each action enum is matched in **exactly one place** — the three
//! `run_*_actions` engine functions — and the substrate-specific work is
//! behind the [`Transport`] trait (split into [`ClientTransport`],
//! [`ProxyTransport`], and [`LambdaTransport`] roles, because the socket
//! substrate runs the three protocol roles in different threads or
//! processes). The discrete-event simulator ([`crate::world::SimWorld`])
//! implements all three roles by enqueueing timed events and network
//! flows; the `ic-net` client, proxy event loop and node daemon implement
//! one role each by doing the work directly on TCP sockets. A protocol
//! change is made once, here or in the state machines, and both
//! substrates run it.

use ic_client::{ClientAction, GetReport};
use ic_common::msg::{InvokePayload, Msg};
use ic_common::pricing::CostCategory;
use ic_common::{ClientId, InstanceId, LambdaId, ObjectKey, Payload, ProxyId, RelayId, SimTime};
use ic_lambda::runtime::Action as LAction;
use ic_proxy::ProxyAction;

/// The lambda-side context a proxy action was produced under: the node
/// and instance whose message triggered it, when there was one. Sim mode
/// uses it to attach cut-through flows to the source instance's uplink.
pub type LambdaCtx = Option<(LambdaId, InstanceId)>;

/// Client-role side effects: how the substrate ships client messages and
/// reports operation outcomes (delivery, miss, loss) to the application
/// or the metrics sink.
pub trait ClientTransport {
    /// Sends a client → proxy message (control or chunk data).
    fn client_send(&mut self, now: SimTime, client: ClientId, proxy: ProxyId, msg: Msg);

    /// A GET completed: the reassembled object is ready for the
    /// application (sim: record the hit; sockets: hand bytes to the caller).
    fn deliver(
        &mut self,
        now: SimTime,
        client: ClientId,
        key: ObjectKey,
        object: Payload,
        report: GetReport,
    );

    /// A GET failed beyond parity tolerance: the application must RESET
    /// from the backing store.
    fn unrecoverable(
        &mut self,
        now: SimTime,
        client: ClientId,
        key: ObjectKey,
        available: usize,
        needed: usize,
    );

    /// A GET missed: the cache holds nothing under `key`.
    fn miss(&mut self, now: SimTime, client: ClientId, key: ObjectKey);

    /// A PUT was fully acknowledged.
    fn put_complete(&mut self, now: SimTime, client: ClientId, key: ObjectKey);

    /// A PUT was aborted by the proxy before completion (evicted under
    /// capacity pressure or superseded by an overwrite): the write is not
    /// stored and the caller must not wait for `put_complete`.
    fn put_failed(&mut self, now: SimTime, client: ClientId, key: ObjectKey);
}

/// Proxy-role side effects: function invocation, proxy ↔ node and
/// proxy → client messaging, and relay bookkeeping.
pub trait ProxyTransport {
    /// Invokes a (sleeping) node with `payload`.
    fn invoke(&mut self, now: SimTime, proxy: ProxyId, lambda: LambdaId, payload: InvokePayload);

    /// Sends a proxy → node message (control or data) to the node's live
    /// instance. Returns the message back when no instance is connected,
    /// so the engine can route it through the proxy's delivery-failure
    /// path (connection reset semantics).
    fn proxy_send(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Result<(), Msg>;

    /// Feeds an undeliverable message back to the proxy state machine and
    /// returns the resulting repair actions.
    fn delivery_failed(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        lambda: LambdaId,
        msg: Msg,
    ) -> Vec<ProxyAction>;

    /// Sends a proxy → client control message.
    fn proxy_reply(&mut self, now: SimTime, proxy: ProxyId, client: ClientId, msg: Msg);

    /// Streams chunk data proxy → client (cut-through from the node in
    /// `ctx`, when the substrate models bandwidth).
    fn proxy_stream(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        client: ClientId,
        msg: Msg,
        ctx: LambdaCtx,
    );

    /// Registers a relay endpoint for the backup protocol.
    fn spawn_relay(
        &mut self,
        now: SimTime,
        proxy: ProxyId,
        relay: RelayId,
        source: LambdaId,
        ctx: LambdaCtx,
    );
}

/// Lambda-role side effects: node → proxy and node → relay messaging,
/// duration-control timers, peer invocation, and billed returns.
pub trait LambdaTransport {
    /// Sends a node → proxy control message.
    fn lambda_send(&mut self, now: SimTime, lambda: LambdaId, instance: InstanceId, msg: Msg);

    /// Streams a bulk node → proxy message (chunk data, put acks) subject
    /// to the substrate's network model.
    fn lambda_stream(&mut self, now: SimTime, lambda: LambdaId, instance: InstanceId, msg: Msg);

    /// Sends a control message through the backup relay.
    fn relay_send(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    );

    /// Streams a bulk message through the backup relay.
    fn relay_stream(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        relay: RelayId,
        msg: Msg,
    );

    /// Arms the instance's duration-control timer for instant `at`.
    fn set_timer(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        token: u64,
        at: SimTime,
    );

    /// Invokes the node's own function to create/refresh the peer replica
    /// (backup protocol, Fig 10 step 6).
    fn invoke_peer(&mut self, now: SimTime, lambda: LambdaId, instance: InstanceId, relay: RelayId);

    /// Ends the instance's execution and attributes it to `category` for
    /// billing.
    fn end_execution(
        &mut self,
        now: SimTime,
        lambda: LambdaId,
        instance: InstanceId,
        bye: bool,
        category: CostCategory,
    );
}

/// A full execution substrate: all three protocol roles on one value.
///
/// The simulator implements this on `SimWorld`; the socket substrate
/// implements the role traits separately on its per-role endpoints and
/// never needs the umbrella. Blanket-implemented for anything implementing all roles.
pub trait Transport: ClientTransport + ProxyTransport + LambdaTransport {}

impl<T: ClientTransport + ProxyTransport + LambdaTransport> Transport for T {}

/// Executes client-library actions against a transport. The single match
/// over [`ClientAction`] in the codebase.
pub fn run_client_actions<T: ClientTransport + ?Sized>(
    t: &mut T,
    now: SimTime,
    client: ClientId,
    actions: Vec<ClientAction>,
) {
    for a in actions {
        match a {
            ClientAction::ToProxy { proxy, msg } | ClientAction::DataToProxy { proxy, msg } => {
                t.client_send(now, client, proxy, msg);
            }
            ClientAction::Deliver {
                key,
                object,
                report,
            } => {
                t.deliver(now, client, key, object, report);
            }
            ClientAction::Unrecoverable {
                key,
                available,
                needed,
            } => {
                t.unrecoverable(now, client, key, available, needed);
            }
            ClientAction::Miss { key } => t.miss(now, client, key),
            ClientAction::PutComplete { key } => t.put_complete(now, client, key),
            ClientAction::PutFailed { key } => t.put_failed(now, client, key),
        }
    }
}

/// Executes proxy actions against a transport. The single match over
/// [`ProxyAction`] in the codebase.
///
/// `ctx` names the node/instance whose message triggered these actions
/// (None for client-triggered or timer-triggered batches). Messages to a
/// node with no connected instance are fed back through
/// [`ProxyTransport::delivery_failed`] and the repair actions executed
/// recursively, preserving connection-reset semantics on both substrates.
pub fn run_proxy_actions<T: ProxyTransport + ?Sized>(
    t: &mut T,
    now: SimTime,
    proxy: ProxyId,
    actions: Vec<ProxyAction>,
    ctx: LambdaCtx,
) {
    for a in actions {
        match a {
            ProxyAction::Invoke { lambda, payload } => t.invoke(now, proxy, lambda, payload),
            ProxyAction::ToLambda { lambda, msg } | ProxyAction::DataToLambda { lambda, msg } => {
                if let Err(msg) = t.proxy_send(now, proxy, lambda, msg) {
                    let repairs = t.delivery_failed(now, proxy, lambda, msg);
                    run_proxy_actions(t, now, proxy, repairs, None);
                }
            }
            ProxyAction::ToClient { client, msg } => t.proxy_reply(now, proxy, client, msg),
            ProxyAction::DataToClient { client, msg } => {
                t.proxy_stream(now, proxy, client, msg, ctx);
            }
            ProxyAction::SpawnRelay { relay, source } => {
                t.spawn_relay(now, proxy, relay, source, ctx);
            }
        }
    }
}

/// Executes Lambda-runtime actions against a transport. The single match
/// over the lambda [`LAction`] in the codebase.
pub fn run_lambda_actions<T: LambdaTransport + ?Sized>(
    t: &mut T,
    now: SimTime,
    lambda: LambdaId,
    instance: InstanceId,
    actions: Vec<LAction>,
) {
    for a in actions {
        match a {
            LAction::ToProxy(msg) => t.lambda_send(now, lambda, instance, msg),
            LAction::DataToProxy(msg) => t.lambda_stream(now, lambda, instance, msg),
            LAction::ToRelay { relay, msg } => t.relay_send(now, lambda, instance, relay, msg),
            LAction::DataToRelay { relay, msg } => {
                t.relay_stream(now, lambda, instance, relay, msg);
            }
            LAction::SetTimer { token, at } => t.set_timer(now, lambda, instance, token, at),
            LAction::InvokePeer { relay } => t.invoke_peer(now, lambda, instance, relay),
            LAction::Return { bye, category } => {
                t.end_execution(now, lambda, instance, bye, category);
            }
        }
    }
}

/// A terminal client-operation outcome, for transports that surface
/// results to a synchronous caller (the `ic-net` client's blocking
/// `put`/`get`).
///
/// Sim mode never constructs these — its [`ClientTransport`] hooks write
/// straight into the metrics sink.
#[derive(Clone, Debug)]
pub enum ClientOutcome {
    /// A GET delivered the reassembled object.
    Delivered {
        /// Object key.
        key: ObjectKey,
        /// The reassembled object.
        object: Payload,
        /// Decode/repair diagnostics.
        report: GetReport,
    },
    /// A GET lost more chunks than parity can absorb.
    Unrecoverable {
        /// Object key.
        key: ObjectKey,
        /// Chunks that did arrive.
        available: usize,
        /// Data chunks needed.
        needed: usize,
    },
    /// A GET missed.
    Miss {
        /// Object key.
        key: ObjectKey,
    },
    /// A PUT was fully acknowledged.
    PutComplete {
        /// Object key.
        key: ObjectKey,
    },
    /// A PUT was aborted before completion (eviction/overwrite).
    PutFailed {
        /// Object key.
        key: ObjectKey,
    },
}
