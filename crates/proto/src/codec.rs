//! Full wire framing for every NetLock message.
//!
//! [`crate::LockHeader`] covers the per-request header the switch
//! parses; deployments also exchange compound messages (push batches,
//! migration transfers) between switch and servers. This module frames
//! the complete [`NetLockMsg`] set so any message can cross a real
//! wire: a 1-byte message tag, a 2-byte element count where a message
//! carries a request list, then fixed-size encoded records.
//!
//! The simulator passes typed messages for speed; this codec is
//! round-trip property-tested against the typed form, proving the types
//! carry exactly what the wire can.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::header::{
    DecodeError, LockHeader, LockOp, FLAG_BUFFER_ONLY, FLAG_FROM_SWITCH, HEADER_LEN,
};
use crate::ids::LockId;
use crate::messages::{GrantMsg, Grantor, LockRequest, NetLockMsg, ReleaseRequest};

/// Message tags on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
enum Tag {
    Acquire = 1,
    Release = 2,
    Grant = 3,
    Forwarded = 4,
    QueueSpace = 5,
    Push = 6,
    DbFetch = 7,
    DbReply = 8,
    CtrlDemote = 9,
    CtrlPromote = 10,
    CtrlPromoteReady = 11,
    CtrlHandback = 12,
    ChainOp = 13,
    ChainAck = 14,
    CtrlChainPing = 15,
    CtrlChainConfig = 16,
    CtrlChainReset = 17,
    CtrlPartitionMap = 18,
    AcquireBatch = 19,
    ReleaseBatch = 20,
    GrantBatch = 21,
    CtrlServerRestart = 22,
}

impl Tag {
    fn from_u8(v: u8) -> Option<Tag> {
        Some(match v {
            1 => Tag::Acquire,
            2 => Tag::Release,
            3 => Tag::Grant,
            4 => Tag::Forwarded,
            5 => Tag::QueueSpace,
            6 => Tag::Push,
            7 => Tag::DbFetch,
            8 => Tag::DbReply,
            9 => Tag::CtrlDemote,
            10 => Tag::CtrlPromote,
            11 => Tag::CtrlPromoteReady,
            12 => Tag::CtrlHandback,
            13 => Tag::ChainOp,
            14 => Tag::ChainAck,
            15 => Tag::CtrlChainPing,
            16 => Tag::CtrlChainConfig,
            17 => Tag::CtrlChainReset,
            18 => Tag::CtrlPartitionMap,
            19 => Tag::AcquireBatch,
            20 => Tag::ReleaseBatch,
            21 => Tag::GrantBatch,
            22 => Tag::CtrlServerRestart,
            _ => return None,
        })
    }
}

fn put_request(buf: &mut BytesMut, req: &LockRequest, flags: u16) {
    let mut h = req.to_header();
    h.flags = flags;
    h.encode_into(buf);
}

fn get_request(buf: &mut impl Buf) -> Result<(LockRequest, u16), DecodeError> {
    let h = LockHeader::decode(buf)?;
    let req = LockRequest::from_header(&h).ok_or(DecodeError::BadOp(h.op.to_u8()))?;
    Ok((req, h.flags))
}

fn put_release(buf: &mut BytesMut, rel: &ReleaseRequest) {
    let h = LockHeader {
        op: LockOp::Release,
        lock: rel.lock,
        txn: rel.txn,
        client: rel.client,
        mode: rel.mode,
        priority: rel.priority,
        tenant: crate::ids::TenantId(0),
        timestamp_ns: 0,
        flags: 0,
    };
    h.encode_into(buf);
}

fn get_release(buf: &mut impl Buf) -> Result<ReleaseRequest, DecodeError> {
    let h = LockHeader::decode(buf)?;
    Ok(ReleaseRequest {
        lock: h.lock,
        txn: h.txn,
        mode: h.mode,
        client: h.client,
        priority: h.priority,
    })
}

fn put_grant(buf: &mut BytesMut, g: &GrantMsg) {
    let h = LockHeader {
        op: LockOp::Grant,
        lock: g.lock,
        txn: g.txn,
        client: g.client,
        mode: g.mode,
        priority: g.priority,
        tenant: crate::ids::TenantId(0),
        timestamp_ns: g.issued_at_ns,
        flags: match g.grantor {
            Grantor::Switch => FLAG_FROM_SWITCH,
            Grantor::Server => 0,
        },
    };
    h.encode_into(buf);
}

fn get_grant(buf: &mut impl Buf) -> Result<GrantMsg, DecodeError> {
    let h = LockHeader::decode(buf)?;
    Ok(GrantMsg {
        lock: h.lock,
        txn: h.txn,
        mode: h.mode,
        client: h.client,
        priority: h.priority,
        grantor: if h.flags & FLAG_FROM_SWITCH != 0 {
            Grantor::Switch
        } else {
            Grantor::Server
        },
        issued_at_ns: h.timestamp_ns,
    })
}

/// Encode any NetLock message to its wire form.
pub fn encode_msg(msg: &NetLockMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + HEADER_LEN);
    encode_into(msg, &mut buf);
    buf.freeze()
}

fn encode_into(msg: &NetLockMsg, buf: &mut BytesMut) {
    match msg {
        NetLockMsg::Acquire(req) => {
            buf.put_u8(Tag::Acquire as u8);
            put_request(buf, req, 0);
        }
        NetLockMsg::Release(rel) => {
            buf.put_u8(Tag::Release as u8);
            put_release(buf, rel);
        }
        NetLockMsg::Grant(g) => {
            buf.put_u8(Tag::Grant as u8);
            put_grant(buf, g);
        }
        NetLockMsg::Forwarded { req, buffer_only } => {
            buf.put_u8(Tag::Forwarded as u8);
            put_request(buf, req, if *buffer_only { FLAG_BUFFER_ONLY } else { 0 });
        }
        NetLockMsg::QueueSpace { lock, space } => {
            buf.put_u8(Tag::QueueSpace as u8);
            buf.put_u32(lock.0);
            buf.put_u32(*space);
        }
        NetLockMsg::Push { lock, reqs } => {
            buf.put_u8(Tag::Push as u8);
            buf.put_u32(lock.0);
            buf.put_u16(reqs.len() as u16);
            for r in reqs {
                put_request(buf, r, 0);
            }
        }
        NetLockMsg::DbFetch { grant } => {
            buf.put_u8(Tag::DbFetch as u8);
            put_grant(buf, grant);
        }
        NetLockMsg::DbReply { grant } => {
            buf.put_u8(Tag::DbReply as u8);
            put_grant(buf, grant);
        }
        NetLockMsg::CtrlDemote { lock } => {
            buf.put_u8(Tag::CtrlDemote as u8);
            buf.put_u32(lock.0);
        }
        NetLockMsg::CtrlPromote { lock } => {
            buf.put_u8(Tag::CtrlPromote as u8);
            buf.put_u32(lock.0);
        }
        NetLockMsg::CtrlPromoteReady { lock, reqs } => {
            buf.put_u8(Tag::CtrlPromoteReady as u8);
            buf.put_u32(lock.0);
            buf.put_u16(reqs.len() as u16);
            for r in reqs {
                put_request(buf, r, 0);
            }
        }
        NetLockMsg::CtrlServerRestart { epoch } => {
            buf.put_u8(Tag::CtrlServerRestart as u8);
            buf.put_u32(*epoch);
        }
        NetLockMsg::CtrlHandback { lock } => {
            buf.put_u8(Tag::CtrlHandback as u8);
            buf.put_u32(lock.0);
        }
        NetLockMsg::ChainOp {
            partition,
            seq,
            stamp_ns,
            op,
        } => {
            buf.put_u8(Tag::ChainOp as u8);
            buf.put_u16(*partition);
            buf.put_u64(*seq);
            buf.put_u64(*stamp_ns);
            encode_into(op, buf);
        }
        NetLockMsg::ChainAck { partition, seq } => {
            buf.put_u8(Tag::ChainAck as u8);
            buf.put_u16(*partition);
            buf.put_u64(*seq);
        }
        NetLockMsg::CtrlChainPing {
            partition,
            member,
            epoch,
        } => {
            buf.put_u8(Tag::CtrlChainPing as u8);
            buf.put_u16(*partition);
            buf.put_u16(*member);
            buf.put_u32(*epoch);
        }
        NetLockMsg::CtrlChainConfig {
            partition,
            epoch,
            members,
        } => {
            buf.put_u8(Tag::CtrlChainConfig as u8);
            buf.put_u16(*partition);
            buf.put_u32(*epoch);
            buf.put_u16(members.len() as u16);
            for m in members {
                buf.put_u32(*m);
            }
        }
        NetLockMsg::CtrlChainReset { partition, epoch } => {
            buf.put_u8(Tag::CtrlChainReset as u8);
            buf.put_u16(*partition);
            buf.put_u32(*epoch);
        }
        NetLockMsg::CtrlPartitionMap { version, heads } => {
            buf.put_u8(Tag::CtrlPartitionMap as u8);
            buf.put_u32(*version);
            buf.put_u16(heads.len() as u16);
            for h in heads {
                buf.put_u32(*h);
            }
        }
        // Aggregate-population bursts: a u32 count (one quantum can
        // carry far more than the u16 bound of the server-push lists),
        // then fixed-size records.
        NetLockMsg::AcquireBatch(reqs) => {
            buf.put_u8(Tag::AcquireBatch as u8);
            buf.put_u32(reqs.len() as u32);
            for r in reqs {
                put_request(buf, r, 0);
            }
        }
        NetLockMsg::ReleaseBatch(rels) => {
            buf.put_u8(Tag::ReleaseBatch as u8);
            buf.put_u32(rels.len() as u32);
            for r in rels {
                put_release(buf, r);
            }
        }
        NetLockMsg::GrantBatch(grants) => {
            buf.put_u8(Tag::GrantBatch as u8);
            buf.put_u32(grants.len() as u32);
            for g in grants {
                put_grant(buf, g);
            }
        }
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated {
            have: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Decode a wire message.
pub fn decode_msg(buf: &mut impl Buf) -> Result<NetLockMsg, DecodeError> {
    need(buf, 1)?;
    let raw = buf.get_u8();
    let tag = Tag::from_u8(raw).ok_or(DecodeError::BadOp(raw))?;
    Ok(match tag {
        Tag::Acquire => NetLockMsg::Acquire(get_request(buf)?.0),
        Tag::Release => NetLockMsg::Release(get_release(buf)?),
        Tag::Grant => NetLockMsg::Grant(get_grant(buf)?),
        Tag::Forwarded => {
            let (req, flags) = get_request(buf)?;
            NetLockMsg::Forwarded {
                req,
                buffer_only: flags & FLAG_BUFFER_ONLY != 0,
            }
        }
        Tag::QueueSpace => {
            need(buf, 8)?;
            NetLockMsg::QueueSpace {
                lock: LockId(buf.get_u32()),
                space: buf.get_u32(),
            }
        }
        Tag::Push => {
            need(buf, 6)?;
            let lock = LockId(buf.get_u32());
            let n = buf.get_u16() as usize;
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(get_request(buf)?.0);
            }
            NetLockMsg::Push {
                lock,
                reqs: reqs.into(),
            }
        }
        Tag::DbFetch => NetLockMsg::DbFetch {
            grant: get_grant(buf)?,
        },
        Tag::DbReply => NetLockMsg::DbReply {
            grant: get_grant(buf)?,
        },
        Tag::CtrlDemote => {
            need(buf, 4)?;
            NetLockMsg::CtrlDemote {
                lock: LockId(buf.get_u32()),
            }
        }
        Tag::CtrlPromote => {
            need(buf, 4)?;
            NetLockMsg::CtrlPromote {
                lock: LockId(buf.get_u32()),
            }
        }
        Tag::CtrlPromoteReady => {
            need(buf, 6)?;
            let lock = LockId(buf.get_u32());
            let n = buf.get_u16() as usize;
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(get_request(buf)?.0);
            }
            NetLockMsg::CtrlPromoteReady {
                lock,
                reqs: reqs.into(),
            }
        }
        Tag::CtrlServerRestart => {
            need(buf, 4)?;
            NetLockMsg::CtrlServerRestart {
                epoch: buf.get_u32(),
            }
        }
        Tag::CtrlHandback => {
            need(buf, 4)?;
            NetLockMsg::CtrlHandback {
                lock: LockId(buf.get_u32()),
            }
        }
        Tag::ChainOp => {
            need(buf, 18)?;
            let partition = buf.get_u16();
            let seq = buf.get_u64();
            let stamp_ns = buf.get_u64();
            // A chain replicates only client acquires and releases, so the
            // inner op is decoded as one of those, never as another chain
            // op: hostile nesting is an error, not unbounded recursion.
            need(buf, 1)?;
            let inner = buf.get_u8();
            let op = Box::new(match Tag::from_u8(inner) {
                Some(Tag::Acquire) => NetLockMsg::Acquire(get_request(buf)?.0),
                Some(Tag::Release) => NetLockMsg::Release(get_release(buf)?),
                _ => return Err(DecodeError::BadOp(inner)),
            });
            NetLockMsg::ChainOp {
                partition,
                seq,
                stamp_ns,
                op,
            }
        }
        Tag::ChainAck => {
            need(buf, 10)?;
            NetLockMsg::ChainAck {
                partition: buf.get_u16(),
                seq: buf.get_u64(),
            }
        }
        Tag::CtrlChainPing => {
            need(buf, 8)?;
            NetLockMsg::CtrlChainPing {
                partition: buf.get_u16(),
                member: buf.get_u16(),
                epoch: buf.get_u32(),
            }
        }
        Tag::CtrlChainConfig => {
            need(buf, 8)?;
            let partition = buf.get_u16();
            let epoch = buf.get_u32();
            let n = buf.get_u16() as usize;
            need(buf, n * 4)?;
            let members = (0..n).map(|_| buf.get_u32()).collect();
            NetLockMsg::CtrlChainConfig {
                partition,
                epoch,
                members,
            }
        }
        Tag::CtrlChainReset => {
            need(buf, 6)?;
            NetLockMsg::CtrlChainReset {
                partition: buf.get_u16(),
                epoch: buf.get_u32(),
            }
        }
        Tag::CtrlPartitionMap => {
            need(buf, 6)?;
            let version = buf.get_u32();
            let n = buf.get_u16() as usize;
            need(buf, n * 4)?;
            let heads = (0..n).map(|_| buf.get_u32()).collect();
            NetLockMsg::CtrlPartitionMap { version, heads }
        }
        Tag::AcquireBatch => {
            need(buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut reqs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                reqs.push(get_request(buf)?.0);
            }
            NetLockMsg::AcquireBatch(reqs.into())
        }
        Tag::ReleaseBatch => {
            need(buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut rels = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                rels.push(get_release(buf)?);
            }
            NetLockMsg::ReleaseBatch(rels.into())
        }
        Tag::GrantBatch => {
            need(buf, 4)?;
            let n = buf.get_u32() as usize;
            let mut grants = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                grants.push(get_grant(buf)?);
            }
            NetLockMsg::GrantBatch(grants.into())
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientAddr, LockMode, Priority, TenantId, TxnId};

    fn req(n: u64) -> LockRequest {
        LockRequest {
            lock: LockId(n as u32),
            mode: if n.is_multiple_of(2) {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            },
            txn: TxnId(n),
            client: ClientAddr(n as u32 + 7),
            tenant: TenantId((n % 9) as u16),
            priority: Priority((n % 3) as u8),
            issued_at_ns: n * 1_000,
        }
    }

    fn roundtrip(msg: NetLockMsg) {
        let mut wire = encode_msg(&msg);
        let out = decode_msg(&mut wire).unwrap();
        assert_eq!(msg, out);
        assert_eq!(wire.remaining(), 0, "no trailing bytes");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(NetLockMsg::Acquire(req(1)));
        roundtrip(NetLockMsg::Release(ReleaseRequest {
            lock: LockId(2),
            txn: TxnId(3),
            mode: LockMode::Exclusive,
            client: ClientAddr(4),
            priority: Priority(1),
        }));
        for grantor in [Grantor::Switch, Grantor::Server] {
            roundtrip(NetLockMsg::Grant(GrantMsg {
                lock: LockId(5),
                txn: TxnId(6),
                mode: LockMode::Shared,
                client: ClientAddr(7),
                priority: Priority(2),
                grantor,
                issued_at_ns: 99,
            }));
        }
        for buffer_only in [false, true] {
            roundtrip(NetLockMsg::Forwarded {
                req: req(8),
                buffer_only,
            });
        }
        roundtrip(NetLockMsg::QueueSpace {
            lock: LockId(9),
            space: 17,
        });
        roundtrip(NetLockMsg::Push {
            lock: LockId(10),
            reqs: (0..5).map(req).collect(),
        });
        roundtrip(NetLockMsg::Push {
            lock: LockId(10),
            reqs: Box::new([]),
        });
        roundtrip(NetLockMsg::DbFetch {
            grant: GrantMsg {
                lock: LockId(11),
                txn: TxnId(12),
                mode: LockMode::Exclusive,
                client: ClientAddr(13),
                priority: Priority(0),
                grantor: Grantor::Switch,
                issued_at_ns: 1,
            },
        });
        roundtrip(NetLockMsg::CtrlDemote { lock: LockId(14) });
        roundtrip(NetLockMsg::CtrlPromote { lock: LockId(15) });
        roundtrip(NetLockMsg::CtrlPromoteReady {
            lock: LockId(16),
            reqs: (0..3).map(req).collect(),
        });
        roundtrip(NetLockMsg::CtrlHandback { lock: LockId(17) });
        roundtrip(NetLockMsg::CtrlServerRestart { epoch: 3 });
        roundtrip(NetLockMsg::ChainOp {
            partition: 3,
            seq: 0xDEAD_BEEF,
            stamp_ns: 42_000,
            op: Box::new(NetLockMsg::Acquire(req(18))),
        });
        roundtrip(NetLockMsg::ChainOp {
            partition: 0,
            seq: 1,
            stamp_ns: 7,
            op: Box::new(NetLockMsg::Release(ReleaseRequest {
                lock: LockId(19),
                txn: TxnId(20),
                mode: LockMode::Shared,
                client: ClientAddr(21),
                priority: Priority(0),
            })),
        });
        roundtrip(NetLockMsg::ChainAck {
            partition: 5,
            seq: 1 << 40,
        });
        roundtrip(NetLockMsg::CtrlChainPing {
            partition: 2,
            member: 1,
            epoch: 9,
        });
        roundtrip(NetLockMsg::CtrlChainConfig {
            partition: 1,
            epoch: 4,
            members: Box::new([10, 11, 12]),
        });
        roundtrip(NetLockMsg::CtrlChainConfig {
            partition: 1,
            epoch: 5,
            members: Box::new([]),
        });
        roundtrip(NetLockMsg::CtrlChainReset {
            partition: 6,
            epoch: 2,
        });
        roundtrip(NetLockMsg::CtrlPartitionMap {
            version: 3,
            heads: Box::new([4, 9, 14]),
        });
        roundtrip(NetLockMsg::AcquireBatch((0..7).map(req).collect()));
        roundtrip(NetLockMsg::AcquireBatch(Box::new([])));
        roundtrip(NetLockMsg::ReleaseBatch(
            (0..4)
                .map(|n| ReleaseRequest {
                    lock: LockId(n),
                    txn: TxnId(n as u64),
                    mode: LockMode::Shared,
                    client: ClientAddr(30 + n),
                    priority: Priority(0),
                })
                .collect(),
        ));
        roundtrip(NetLockMsg::GrantBatch(
            (0..3)
                .map(|n| GrantMsg {
                    lock: LockId(n),
                    txn: TxnId(n as u64 + 50),
                    mode: LockMode::Exclusive,
                    client: ClientAddr(40),
                    priority: Priority(1),
                    grantor: Grantor::Switch,
                    issued_at_ns: n as u64 * 11,
                })
                .collect(),
        ));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut b = Bytes::from(vec![200u8, 0, 0]);
        assert!(matches!(decode_msg(&mut b), Err(DecodeError::BadOp(200))));
    }

    #[test]
    fn nested_chain_ops_are_rejected_not_recursed() {
        // 20,000 chain headers around one acquire (≈ 380 KB): one
        // recursion per header used to overflow the stack.
        let mut wire = BytesMut::with_capacity(20_000 * 19 + 64);
        for _ in 0..20_000 {
            wire.put_u8(Tag::ChainOp as u8);
            wire.put_u16(0);
            wire.put_u64(1);
            wire.put_u64(2);
        }
        encode_into(&NetLockMsg::Acquire(req(1)), &mut wire);
        let mut b = wire.freeze();
        assert_eq!(
            decode_msg(&mut b),
            Err(DecodeError::BadOp(Tag::ChainOp as u8))
        );
        // Any inner op other than Acquire / Release is refused too.
        let demote = NetLockMsg::ChainOp {
            partition: 0,
            seq: 1,
            stamp_ns: 2,
            op: Box::new(NetLockMsg::CtrlDemote { lock: LockId(3) }),
        };
        assert_eq!(
            decode_msg(&mut encode_msg(&demote)),
            Err(DecodeError::BadOp(Tag::CtrlDemote as u8))
        );
    }

    #[test]
    fn decode_rejects_truncated_batch() {
        let msg = NetLockMsg::Push {
            lock: LockId(1),
            reqs: (0..3).map(req).collect(),
        };
        let wire = encode_msg(&msg);
        // Chop mid-way through the second request.
        let cut = 1 + 4 + 2 + HEADER_LEN + 10;
        let mut short = wire.slice(0..cut);
        assert!(matches!(
            decode_msg(&mut short),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn empty_input_is_truncated() {
        let mut b = Bytes::new();
        assert!(matches!(
            decode_msg(&mut b),
            Err(DecodeError::Truncated { have: 0 })
        ));
    }
}
