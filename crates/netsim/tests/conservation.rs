//! Conservation and resource-accounting invariants of the simulator.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use wsd_netsim::{
    Ctx, FirewallPolicy, HostConfig, OverLimit, Payload, ProcEvent, Process, SimDuration,
    SimTime, Simulation,
};

/// A sender that opens `conns` connections and pushes `per_conn`
/// messages down each, closing the connection afterwards.
struct Sender {
    conns: usize,
    per_conn: usize,
    opened: usize,
    outcomes: Rc<RefCell<(usize, usize)>>, // (established, refused)
}

impl Process for Sender {
    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: ProcEvent) {
        match ev {
            ProcEvent::Start => {
                for _ in 0..self.conns {
                    ctx.connect("sink", 80, SimDuration::from_secs(2));
                    self.opened += 1;
                }
            }
            ProcEvent::ConnEstablished { conn } => {
                self.outcomes.borrow_mut().0 += 1;
                for i in 0..self.per_conn {
                    let _ = ctx.send(conn, Payload::from(vec![i as u8; 64]));
                }
                ctx.close(conn);
            }
            ProcEvent::ConnRefused { .. } => {
                self.outcomes.borrow_mut().1 += 1;
            }
            _ => {}
        }
    }
}

struct Sink {
    received: Rc<RefCell<usize>>,
}

impl Process for Sink {
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, ev: ProcEvent) {
        if let ProcEvent::Message { .. } = ev {
            *self.received.borrow_mut() += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every connection attempt resolves exactly once (established or
    /// refused), and the resource counters return to zero after closes.
    #[test]
    fn attempts_resolve_exactly_once_and_slots_drain(
        senders in 1usize..5,
        conns in 1usize..6,
        per_conn in 0usize..5,
        accept_limit in 1usize..20,
    ) {
        let mut sim = Simulation::new(42);
        let sink_host =
            sim.add_host(HostConfig::named("sink").accept_limit(accept_limit, OverLimit::Refuse));
        let received = Rc::new(RefCell::new(0));
        let sp = sim.spawn(sink_host, Box::new(Sink { received: received.clone() }));
        sim.listen(sp, 80);
        let mut outcome_handles = Vec::new();
        for s in 0..senders {
            let host = sim.add_host(HostConfig::named(format!("sender-{s}")));
            let outcomes = Rc::new(RefCell::new((0, 0)));
            outcome_handles.push(outcomes.clone());
            sim.spawn(
                host,
                Box::new(Sender {
                    conns,
                    per_conn,
                    opened: 0,
                    outcomes,
                }),
            );
        }
        sim.run();
        let mut established = 0;
        let mut refused = 0;
        for o in &outcome_handles {
            let (e, r) = *o.borrow();
            established += e;
            refused += r;
        }
        // Exactly-once resolution.
        prop_assert_eq!(established + refused, senders * conns);
        // Messages sent on established connections before close all
        // arrive (send happens-before close in the same event).
        prop_assert_eq!(*received.borrow(), established * per_conn);
        // All inbound slots released after the closes propagate.
        prop_assert_eq!(sim.inbound_established(sink_host), 0);
    }

    /// Firewalled destinations never deliver and never leak slots; the
    /// senders all time out.
    #[test]
    fn firewall_blocks_everything(senders in 1usize..4, conns in 1usize..5) {
        let mut sim = Simulation::new(7);
        let sink_host = sim.add_host(
            HostConfig::named("sink").firewall(FirewallPolicy::OutboundOnly),
        );
        let received = Rc::new(RefCell::new(0));
        let sp = sim.spawn(sink_host, Box::new(Sink { received: received.clone() }));
        sim.listen(sp, 80);
        let mut outcome_handles = Vec::new();
        for s in 0..senders {
            let host = sim.add_host(HostConfig::named(format!("sender-{s}")));
            let outcomes = Rc::new(RefCell::new((0, 0)));
            outcome_handles.push(outcomes.clone());
            sim.spawn(host, Box::new(Sender { conns, per_conn: 3, opened: 0, outcomes }));
        }
        sim.run();
        prop_assert_eq!(*received.borrow(), 0);
        for o in &outcome_handles {
            let (e, r) = *o.borrow();
            prop_assert_eq!(e, 0);
            prop_assert_eq!(r, conns);
        }
        prop_assert_eq!(sim.inbound_established(sink_host), 0);
    }

    /// The outbound socket limit caps concurrent attempts; the excess
    /// fail instantly with LocalLimit and release nothing at the server.
    #[test]
    fn outbound_limit_enforced(limit in 1usize..6, attempts in 6usize..12) {
        let mut sim = Simulation::new(3);
        let sink_host = sim.add_host(HostConfig::named("sink"));
        let received = Rc::new(RefCell::new(0));
        let sp = sim.spawn(sink_host, Box::new(Sink { received: received.clone() }));
        sim.listen(sp, 80);
        let host = sim.add_host(HostConfig::named("sender").outbound_limit(limit));
        let outcomes = Rc::new(RefCell::new((0, 0)));
        sim.spawn(
            host,
            Box::new(Sender {
                conns: attempts,
                per_conn: 1,
                opened: 0,
                outcomes: outcomes.clone(),
            }),
        );
        // All attempts fire in one Start event, before any close frees a
        // slot: exactly `limit` can be in flight.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        let (established, refused) = *outcomes.borrow();
        prop_assert_eq!(established, limit.min(attempts));
        prop_assert_eq!(refused, attempts.saturating_sub(limit));
    }
}
