//! Database server node for one-RTT transactions (§4.1).
//!
//! In one-RTT mode the switch forwards granted lock requests straight to
//! the database server holding the item; the server fetches the data and
//! replies to the client, combining lock acquisition and data fetch in a
//! single round trip. The fetch itself is modeled as a fixed in-memory
//! lookup cost.

use netlock_proto::NetLockMsg;
use netlock_sim::{Context, Node, NodeId, Packet, SimDuration};

/// In-memory fetch cost per request.
const FETCH_COST: SimDuration = SimDuration::from_nanos(800);

/// The database server node.
#[derive(Default)]
pub struct DbServer {
    fetches: u64,
}

impl DbServer {
    /// Fetches served.
    pub fn fetches(&self) -> u64 {
        self.fetches
    }
}

impl Node<NetLockMsg> for DbServer {
    fn on_packet(&mut self, pkt: Packet<NetLockMsg>, ctx: &mut Context<'_, NetLockMsg>) {
        if let NetLockMsg::DbFetch { grant } = pkt.payload {
            self.fetches += 1;
            ctx.send_after(
                NodeId(grant.client.0),
                NetLockMsg::DbReply { grant },
                FETCH_COST,
            );
        }
    }

    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, NetLockMsg>) {}

    fn name(&self) -> &str {
        "db-server"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlock_proto::{ClientAddr, GrantMsg, Grantor, LockId, LockMode, TxnId};
    use netlock_sim::{SimTime, Simulator};

    struct Sink(Vec<NetLockMsg>);
    impl Node<NetLockMsg> for Sink {
        fn on_packet(&mut self, pkt: Packet<NetLockMsg>, _ctx: &mut Context<'_, NetLockMsg>) {
            self.0.push(pkt.payload);
        }
        fn on_timer(&mut self, _t: u64, _c: &mut Context<'_, NetLockMsg>) {}
    }

    #[test]
    fn fetch_replies_to_client() {
        let mut sim: Simulator<NetLockMsg> = Simulator::with_seed(1);
        let client = sim.add_node(Box::new(Sink(Vec::new())));
        let db = sim.add_node(Box::new(DbServer::default()));
        let grant = GrantMsg {
            lock: LockId(1),
            txn: TxnId(2),
            mode: LockMode::Shared,
            client: ClientAddr(client.0),
            priority: netlock_proto::Priority(0),
            grantor: Grantor::Switch,
            issued_at_ns: 0,
        };
        sim.inject(client, db, NetLockMsg::DbFetch { grant });
        sim.run_until(SimTime(1_000_000));
        sim.read_node::<Sink, _>(client, |s| {
            assert_eq!(s.0.len(), 1);
            assert!(matches!(s.0[0], NetLockMsg::DbReply { .. }));
        });
        sim.read_node::<DbServer, _>(db, |d| assert_eq!(d.fetches(), 1));
    }
}
