//! Property tests for the wire codec: every valid header round-trips
//! bit-exactly, and the decoder never panics on arbitrary bytes.

use bytes::Bytes;
use proptest::prelude::*;

use netlock_proto::{
    ClientAddr, DecodeError, LockHeader, LockId, LockMode, LockOp, Priority, TenantId, TxnId,
    HEADER_LEN,
};

fn arb_header() -> impl Strategy<Value = LockHeader> {
    (
        prop_oneof![
            Just(LockOp::Acquire),
            Just(LockOp::Release),
            Just(LockOp::Grant),
            Just(LockOp::QueueSpace),
            Just(LockOp::Push),
        ],
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        prop_oneof![Just(LockMode::Shared), Just(LockMode::Exclusive)],
        any::<u8>(),
        any::<u16>(),
        any::<u64>(),
        any::<u16>(),
    )
        .prop_map(
            |(op, lock, txn, client, mode, priority, tenant, ts, flags)| LockHeader {
                op,
                lock: LockId(lock),
                txn: TxnId(txn),
                client: ClientAddr(client),
                mode,
                priority: Priority(priority),
                tenant: TenantId(tenant),
                timestamp_ns: ts,
                flags,
            },
        )
}

proptest! {
    /// encode → decode is the identity for every representable header.
    #[test]
    fn roundtrip(h in arb_header()) {
        let mut buf = h.encode();
        prop_assert_eq!(buf.len(), HEADER_LEN);
        let d = LockHeader::decode(&mut buf).unwrap();
        prop_assert_eq!(h, d);
    }

    /// The decoder returns an error — never panics, never wraps — on
    /// arbitrary byte soup.
    #[test]
    fn decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..100)) {
        let mut b = Bytes::from(bytes);
        let _ = LockHeader::decode(&mut b); // must not panic
    }

    /// Truncation at any point of a valid header is detected.
    #[test]
    fn truncation_detected(h in arb_header(), cut in 0usize..HEADER_LEN) {
        let full = h.encode();
        let mut short = full.slice(0..cut);
        prop_assert_eq!(
            LockHeader::decode(&mut short),
            Err(DecodeError::Truncated { have: cut })
        );
    }

    /// Single-byte corruption of the magic/version/op/mode fields is
    /// rejected, not misinterpreted (structural fields are validated).
    #[test]
    fn header_field_corruption_rejected(h in arb_header(), v in any::<u8>()) {
        // Corrupt the version byte (offset 2) to a non-VERSION value.
        prop_assume!(v != netlock_proto::VERSION);
        let mut raw = h.encode().to_vec();
        raw[2] = v;
        let mut b = Bytes::from(raw);
        prop_assert_eq!(LockHeader::decode(&mut b), Err(DecodeError::BadVersion(v)));
    }
}

mod msg_codec {
    use super::*;
    use netlock_proto::{
        decode_msg, encode_msg, GrantMsg, Grantor, LockRequest, NetLockMsg, ReleaseRequest,
    };

    fn arb_request() -> impl Strategy<Value = LockRequest> {
        (
            any::<u32>(),
            any::<bool>(),
            any::<u64>(),
            any::<u32>(),
            any::<u16>(),
            any::<u8>(),
            any::<u64>(),
        )
            .prop_map(
                |(lock, shared, txn, client, tenant, prio, ts)| LockRequest {
                    lock: LockId(lock),
                    mode: if shared {
                        LockMode::Shared
                    } else {
                        LockMode::Exclusive
                    },
                    txn: TxnId(txn),
                    client: ClientAddr(client),
                    tenant: TenantId(tenant),
                    priority: Priority(prio),
                    issued_at_ns: ts,
                },
            )
    }

    fn arb_release() -> impl Strategy<Value = ReleaseRequest> {
        arb_request().prop_map(|r| ReleaseRequest {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
        })
    }

    fn arb_grant() -> impl Strategy<Value = GrantMsg> {
        (arb_request(), any::<bool>()).prop_map(|(r, sw)| GrantMsg {
            lock: r.lock,
            txn: r.txn,
            mode: r.mode,
            client: r.client,
            priority: r.priority,
            grantor: if sw { Grantor::Switch } else { Grantor::Server },
            issued_at_ns: r.issued_at_ns,
        })
    }

    /// A batch or list length: 0 to 20 elements.
    fn arb_list<S: Strategy>(element: S) -> impl Strategy<Value = Box<[S::Value]>> {
        prop::collection::vec(element, 0..21).prop_map(Vec::into_boxed_slice)
    }

    /// Every `NetLockMsg` variant, a `ChainOp` wrapping a client acquire
    /// or release.
    fn arb_msg() -> impl Strategy<Value = NetLockMsg> {
        let client_op = prop_oneof![
            arb_request().prop_map(NetLockMsg::Acquire),
            arb_release().prop_map(NetLockMsg::Release),
        ];
        prop_oneof![
            arb_request().prop_map(NetLockMsg::Acquire),
            (arb_request(), any::<bool>())
                .prop_map(|(req, buffer_only)| NetLockMsg::Forwarded { req, buffer_only }),
            arb_release().prop_map(NetLockMsg::Release),
            arb_grant().prop_map(NetLockMsg::Grant),
            (any::<u32>(), any::<u32>()).prop_map(|(lock, space)| NetLockMsg::QueueSpace {
                lock: LockId(lock),
                space,
            }),
            (any::<u32>(), arb_list(arb_request())).prop_map(|(lock, reqs)| NetLockMsg::Push {
                lock: LockId(lock),
                reqs,
            }),
            arb_grant().prop_map(|grant| NetLockMsg::DbFetch { grant }),
            arb_grant().prop_map(|grant| NetLockMsg::DbReply { grant }),
            any::<u32>().prop_map(|lock| NetLockMsg::CtrlDemote { lock: LockId(lock) }),
            any::<u32>().prop_map(|lock| NetLockMsg::CtrlPromote { lock: LockId(lock) }),
            (any::<u32>(), arb_list(arb_request())).prop_map(|(lock, reqs)| {
                NetLockMsg::CtrlPromoteReady {
                    lock: LockId(lock),
                    reqs,
                }
            }),
            any::<u32>().prop_map(|lock| NetLockMsg::CtrlHandback { lock: LockId(lock) }),
            any::<u32>().prop_map(|epoch| NetLockMsg::CtrlServerRestart { epoch }),
            (any::<u16>(), any::<u64>(), any::<u64>(), client_op).prop_map(
                |(partition, seq, stamp_ns, op)| NetLockMsg::ChainOp {
                    partition,
                    seq,
                    stamp_ns,
                    op: Box::new(op),
                }
            ),
            (any::<u16>(), any::<u64>())
                .prop_map(|(partition, seq)| NetLockMsg::ChainAck { partition, seq }),
            (any::<u16>(), any::<u16>(), any::<u32>()).prop_map(|(partition, member, epoch)| {
                NetLockMsg::CtrlChainPing {
                    partition,
                    member,
                    epoch,
                }
            }),
            (any::<u16>(), any::<u32>(), arb_list(any::<u32>())).prop_map(
                |(partition, epoch, members)| NetLockMsg::CtrlChainConfig {
                    partition,
                    epoch,
                    members,
                }
            ),
            (any::<u16>(), any::<u32>())
                .prop_map(|(partition, epoch)| NetLockMsg::CtrlChainReset { partition, epoch }),
            arb_list(arb_request()).prop_map(NetLockMsg::AcquireBatch),
            arb_list(arb_release()).prop_map(NetLockMsg::ReleaseBatch),
            arb_list(arb_grant()).prop_map(NetLockMsg::GrantBatch),
            (any::<u32>(), arb_list(any::<u32>()))
                .prop_map(|(version, heads)| NetLockMsg::CtrlPartitionMap { version, heads }),
        ]
    }

    proptest! {
        /// Every message the deployment can exchange survives the wire.
        #[test]
        fn full_message_roundtrip(msg in arb_msg()) {
            let mut wire = encode_msg(&msg);
            let out = decode_msg(&mut wire).unwrap();
            prop_assert_eq!(msg, out);
            prop_assert_eq!(wire.len(), 0);
        }

        /// Overwriting one byte of a valid encoding, or cutting it short,
        /// yields an error or a message that re-encodes and decodes to
        /// itself — never a panic.
        #[test]
        fn damaged_encodings_decode_to_err_or_a_stable_message(
            msg in arb_msg(),
            (pos, byte, truncate) in (any::<u64>(), any::<u8>(), any::<bool>()),
        ) {
            let mut raw = encode_msg(&msg).to_vec();
            let at = (pos % raw.len() as u64) as usize;
            if truncate {
                raw.truncate(at);
            } else {
                raw[at] = byte;
            }
            if let Ok(out) = decode_msg(&mut Bytes::from(raw)) {
                let mut again = encode_msg(&out);
                prop_assert_eq!(decode_msg(&mut again), Ok(out));
            }
        }

        /// The message decoder is total over arbitrary bytes.
        #[test]
        fn msg_decode_is_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
            let mut b = Bytes::from(bytes);
            let _ = decode_msg(&mut b);
        }

        /// A chain op survives the wire exactly when it wraps one client
        /// acquire or release; any other inner message, and any chain op
        /// nested inside another, decodes to an error.
        #[test]
        fn chain_op_carries_only_client_ops(
            inner in arb_msg(),
            depth in 1usize..40,
            (partition, seq, stamp_ns) in (any::<u16>(), any::<u64>(), any::<u64>()),
        ) {
            let client_op = matches!(inner, NetLockMsg::Acquire(_) | NetLockMsg::Release(_));
            let mut msg = inner;
            for _ in 0..depth {
                msg = NetLockMsg::ChainOp { partition, seq, stamp_ns, op: Box::new(msg) };
            }
            let mut wire = encode_msg(&msg);
            let out = decode_msg(&mut wire);
            if depth == 1 && client_op {
                prop_assert_eq!(out, Ok(msg));
            } else {
                prop_assert!(out.is_err(), "decoded {:?}", out);
            }
        }
    }
}
