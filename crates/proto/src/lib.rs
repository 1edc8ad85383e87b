//! # netlock-proto
//!
//! The NetLock wire protocol: identifier types, the custom UDP lock header
//! the switch parses in its data plane, and the typed message set used
//! between clients, the lock switch, lock servers and database servers.
//!
//! The paper (§4.2) defines the request fields — action type
//! (acquire/release), lock ID, lock mode, transaction ID, client IP — and
//! notes that "additional metadata such as timestamp and tenant ID can
//! also be stored together"; §4.4's policies add the priority class. The
//! [`LockHeader`] codec carries all of them in a fixed 36-byte header
//! ([`HEADER_LEN`]) behind a reserved UDP port ([`NETLOCK_UDP_PORT`]).

#![warn(missing_docs)]

pub mod codec;
mod header;
mod ids;
mod messages;

pub use codec::{decode_msg, encode_msg};
pub use header::{
    DecodeError, LockHeader, LockOp, FLAG_BUFFER_ONLY, FLAG_FROM_SWITCH, HEADER_LEN, MAGIC,
    NETLOCK_UDP_PORT, VERSION,
};
pub use ids::{ClientAddr, LockId, LockMode, Priority, TenantId, TxnId};
pub use messages::{GrantMsg, Grantor, LockRequest, NetLockMsg, ReleaseRequest};
