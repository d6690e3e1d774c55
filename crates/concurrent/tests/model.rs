//! Property-based model tests: the concurrent structures must behave like
//! their obvious sequential models under arbitrary operation sequences.

use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};
use std::time::Duration;
use wsd_concurrent::{FifoQueue, PopError, PushError, ShardedMap};

#[derive(Debug, Clone)]
enum QueueOp {
    Push(u16),
    Pop,
    Len,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        any::<u16>().prop_map(QueueOp::Push),
        Just(QueueOp::Pop),
        Just(QueueOp::Len),
    ]
}

proptest! {
    #[test]
    fn queue_matches_vecdeque_model(cap in 1usize..32, ops in prop::collection::vec(queue_op(), 0..200)) {
        let q = FifoQueue::bounded(cap);
        let mut model: VecDeque<u16> = VecDeque::new();
        for op in ops {
            match op {
                QueueOp::Push(v) => {
                    let expect_full = model.len() >= cap;
                    match q.try_push(v) {
                        Ok(()) => {
                            prop_assert!(!expect_full);
                            model.push_back(v);
                        }
                        Err(PushError::Full(got)) => {
                            prop_assert!(expect_full);
                            prop_assert_eq!(got, v);
                        }
                        Err(PushError::Closed(_)) => prop_assert!(false, "queue never closed"),
                    }
                }
                QueueOp::Pop => match (q.pop_timeout(Duration::ZERO), model.pop_front()) {
                    (Ok(a), Some(b)) => prop_assert_eq!(a, b),
                    (Err(PopError::Empty), None) => {}
                    (a, b) => prop_assert!(false, "mismatch: {:?} vs {:?}", a, b),
                },
                QueueOp::Len => prop_assert_eq!(q.len(), model.len()),
            }
        }
        // Final drain must match the model exactly, in order.
        let drained = q.drain();
        let model_rest: Vec<u16> = model.into_iter().collect();
        prop_assert_eq!(drained, model_rest);
    }
}

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u8, u16),
    Get(u8),
    Remove(u8),
    Contains(u8),
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
        any::<u8>().prop_map(MapOp::Get),
        any::<u8>().prop_map(MapOp::Remove),
        any::<u8>().prop_map(MapOp::Contains),
    ]
}

proptest! {
    #[test]
    fn sharded_map_matches_hashmap_model(ops in prop::collection::vec(map_op(), 0..300)) {
        let m: ShardedMap<u8, u16> = ShardedMap::new();
        let mut model: HashMap<u8, u16> = HashMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => prop_assert_eq!(m.insert(k, v), model.insert(k, v)),
                MapOp::Get(k) => prop_assert_eq!(m.get(&k), model.get(&k).copied()),
                MapOp::Remove(k) => prop_assert_eq!(m.remove(&k), model.remove(&k)),
                MapOp::Contains(k) => prop_assert_eq!(m.contains_key(&k), model.contains_key(&k)),
            }
            prop_assert_eq!(m.len(), model.len());
        }
        let mut snap = m.snapshot();
        snap.sort_unstable();
        let mut expect: Vec<(u8, u16)> = model.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(snap, expect);
    }
}
