//! Property tests for the function runtime: under arbitrary message/timer
//! interleavings the billed-duration controller never wedges (a quiet
//! runtime always returns), state stays consistent, and the store matches
//! the applied operations.

use ic_common::msg::{InvokePayload, Msg};
use ic_common::{ChunkId, InstanceId, LambdaId, ObjectKey, Payload, ProxyId, SimDuration, SimTime};
use ic_lambda::runtime::{Action, Runtime, RuntimeConfig};
use ic_lambda::RunState;
use proptest::collection::vec;
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Stim {
    Get(u8),
    Put(u8, u16),
    Delete(u8),
    AdvanceMs(u16),
}

fn stim() -> impl Strategy<Value = Stim> {
    prop_oneof![
        (0u8..16).prop_map(Stim::Get),
        ((0u8..16), (1u16..5000)).prop_map(|(k, len)| Stim::Put(k, len)),
        (0u8..16).prop_map(Stim::Delete),
        (1u16..150).prop_map(Stim::AdvanceMs),
    ]
}

fn cid(k: u8) -> ChunkId {
    ChunkId::new(ObjectKey::new(format!("k{k}")), 0)
}

/// Applies actions: tracks the armed timer and completes any serving
/// "flows" immediately (on_served) to keep the machine moving.
fn apply(
    rt: &mut Runtime,
    now: SimTime,
    actions: Vec<Action>,
    timer: &mut Option<(u64, SimTime)>,
    returned: &mut bool,
) {
    for a in actions {
        match a {
            Action::SetTimer { token, at } => *timer = Some((token, at)),
            Action::Return { .. } => {
                *returned = true;
                *timer = None;
            }
            Action::DataToProxy(_) => {
                // Transfer completes promptly.
                let more = rt.on_served(now + SimDuration::from_millis(1));
                apply(rt, now, more, timer, returned);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn runtime_always_returns_after_quiescence(stims in vec(stim(), 0..60)) {
        let mut rt = Runtime::new(
            LambdaId(0),
            InstanceId(1),
            RuntimeConfig { backup_enabled: false, ..RuntimeConfig::paper() },
            SimTime::ZERO,
        );
        let mut now = SimTime::from_secs(1);
        let mut timer: Option<(u64, SimTime)> = None;
        let mut returned = false;
        let acts = rt.on_invoke(now, &InvokePayload::ping(ProxyId(0)));
        apply(&mut rt, now, acts, &mut timer, &mut returned);
        prop_assert!(timer.is_some(), "activation must arm the timer");

        let mut model: std::collections::HashMap<u8, u64> = Default::default();
        for s in stims {
            if returned {
                break;
            }
            // Fire any due timer first.
            while let Some((tok, at)) = timer {
                if at <= now && !returned {
                    timer = None;
                    let acts = rt.on_timer(at, tok);
                    apply(&mut rt, at, acts, &mut timer, &mut returned);
                } else {
                    break;
                }
            }
            if returned {
                break;
            }
            match s {
                Stim::Get(k) => {
                    let acts = rt.on_message(now, Msg::ChunkGet { id: cid(k) });
                    // Either data or a miss, consistent with the model.
                    let has = model.contains_key(&k);
                    let data = acts.iter().any(|a| matches!(a, Action::DataToProxy(Msg::ChunkData { .. })));
                    let miss = acts.iter().any(|a| matches!(a, Action::ToProxy(Msg::ChunkMiss { .. })));
                    prop_assert_eq!(data, has);
                    prop_assert_eq!(miss, !has);
                    apply(&mut rt, now, acts, &mut timer, &mut returned);
                }
                Stim::Put(k, len) => {
                    let acts = rt.on_message(now, Msg::ChunkPut {
                        id: cid(k),
                        payload: Payload::synthetic(len as u64),
                        epoch: 0,
                    });
                    model.insert(k, len as u64);
                    apply(&mut rt, now, acts, &mut timer, &mut returned);
                }
                Stim::Delete(k) => {
                    rt.on_message(now, Msg::ChunkDelete { ids: vec![cid(k)] });
                    model.remove(&k);
                }
                Stim::AdvanceMs(ms) => {
                    now += SimDuration::from_millis(ms as u64);
                }
            }
            // Store matches the model at all times.
            prop_assert_eq!(rt.store().len(), model.len());
            let bytes: u64 = model.values().sum();
            prop_assert_eq!(rt.store().used_bytes(), bytes);
        }

        // Quiescence: fire timers (advancing time) until the runtime
        // returns; it must happen within a bounded number of cycles.
        let mut guard = 0;
        while !returned {
            let (tok, at) = timer.take().expect("an executing runtime keeps a timer armed");
            let acts = rt.on_timer(at, tok);
            now = at;
            apply(&mut rt, at, acts, &mut timer, &mut returned);
            guard += 1;
            prop_assert!(guard < 10_000, "duration control must terminate");
        }
        prop_assert_eq!(rt.state(), RunState::Sleeping);
        // Billed duration control: a quiet cycle ends the execution, so
        // the total runtime is bounded by activity + 2 cycles.
        prop_assert!(!rt.backup_active());
    }
}
