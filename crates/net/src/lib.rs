//! # fj-net
//!
//! The network boundary of the filterjoin engine: a std-only TCP query
//! server fronting [`fj_runtime::QueryService`], plus a blocking
//! client, speaking a versioned length-prefixed binary protocol.
//!
//! * [`wire`] — magic + version handshake, `[type][len][payload]`
//!   frames, typed [`ErrorCode`]s (SHED, DEADLINE, SHUTTING_DOWN, …);
//! * [`codec`] — hand-rolled (serde-free) encoding of values,
//!   expressions, [`fj_algebra::JoinQuery`], optimizer-config
//!   overrides, and result rows; total decoders — adversarial bytes
//!   produce typed errors, never panics;
//! * [`server`] — accept loop + per-connection handler threads with a
//!   connection cap, and **one request lifecycle** for every frame
//!   kind that queues work (QUERY, FRAGMENT, MUTATE): admit (count,
//!   drain refusal, decode) → enqueue (`try_submit*` → retryable SHED
//!   when full) → one wait loop watching the ticket, the deadline, and
//!   the socket for CANCEL → success frame or one `RuntimeError` →
//!   [`ErrorCode`] table. Deadlines **cancel** the work server-side on
//!   expiry, as does a CANCEL frame or a vanished peer. Plus graceful
//!   drain, and a STATS request answered with one JSON line over the
//!   server and runtime counters;
//! * [`client`] — one blocking connection per [`Client`], every request
//!   one private `exchange` (arm timeout, write frame, read reply),
//!   with [`NetError::is_retryable`] marking shed/drain replies,
//!   [`NetError::is_replica_local`] — the one failover predicate
//!   replica routers share —, a [`Canceller`] handle to abort an
//!   in-flight request from another thread, and
//!   [`Client::query_with_retry`] — bounded retries with exponential
//!   backoff and decorrelated jitter.
//!
//! ```
//! use fj_algebra::fixtures::{paper_catalog, paper_query};
//! use fj_net::{Client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", paper_catalog(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.query(&paper_query()).unwrap();
//! assert_eq!(reply.rows.len(), 2);
//! server.shutdown(); // drains in-flight queries, then closes
//! ```

pub mod client;
pub mod codec;
pub mod server;
pub mod wire;

pub use client::{Canceller, Client, NetError, QueryOptions, RetryBudget, RetryPolicy, WireBytes};
pub use codec::{
    CodecError, FragmentRequest, GatherReply, HealthSnapshot, HealthStatus, KeyFilter,
    MutationReply, MutationRequest, QueryReply, QueryRequest, ScatterAck, ScatterRequest,
    SemijoinAck, SemijoinRequest,
};
pub use fj_runtime::HEALTH_KEYS;
/// [`RetryPolicy`]'s jitter stream, for routers that jitter timers of
/// their own.
pub use fj_storage::splitmix64;
pub use fj_storage::Mutation;
pub use fj_trace::{json, QueryTrace};
pub use server::{Server, ServerConfig, ServerStats};
pub use wire::{ErrorCode, FrameType, WireError, VERSION};
