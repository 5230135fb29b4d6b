//! In-flight requests (jobs) and their completion records.

use callgraph::RequestTypeId;
use serde::{Deserialize, Serialize};
use simnet::SimTime;

use crate::agent::AgentId;
use crate::inline_vec::InlineVec;

/// Inline frame capacity per job: 16 eight-byte frames, 128 bytes. The
/// deepest bundled paths are µBench App.3's, at 12 steps, so frame storage
/// never allocates on any bundled application (the `apps` property tests
/// check every path against this constant); a deeper path spills to the
/// heap transparently.
pub const INLINE_FRAMES: usize = 16;

/// Identity attached to an externally submitted request.
///
/// The platform treats all requests identically; the IDS (`defense` crate)
/// sees `ip` and `session`, and the *evaluation* uses `is_attack` as ground
/// truth when splitting latency distributions into legitimate vs attack
/// traffic. Nothing in the serving path branches on `is_attack`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Origin {
    /// Source IPv4 address (opaque u32; the IDS rate rules key on it).
    pub ip: u32,
    /// Application session id (the IDS inter-request-interval rule keys on
    /// it).
    pub session: u64,
    /// Ground-truth label: `true` when the request was sent by the
    /// attacker.
    pub is_attack: bool,
}

impl Origin {
    /// Origin for a legitimate user with the given ip/session.
    pub fn legit(ip: u32, session: u64) -> Self {
        Origin {
            ip,
            session,
            is_attack: false,
        }
    }

    /// Origin for an attack bot with the given ip/session.
    pub fn attack(ip: u32, session: u64) -> Self {
        Origin {
            ip,
            session,
            is_attack: true,
        }
    }
}

/// How a request ended, as observed by the submitting client.
///
/// With every [`ResiliencePolicy`](crate::ResiliencePolicy) disabled the
/// platform never fails a request and every response carries
/// [`Outcome::Ok`] — the pre-resilience behaviour, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// The request completed normally.
    Ok,
    /// The request's deadline expired before completion; every thread slot
    /// it held was released at expiry.
    TimedOut,
    /// An open circuit breaker failed the request fast at some service.
    Rejected,
    /// A bounded wait queue was full at some service and the request was
    /// shed on arrival.
    Shed,
}

impl Outcome {
    /// Dense index for counting-sort keys (telemetry CSR axis).
    pub fn index(self) -> usize {
        match self {
            Outcome::Ok => 0,
            Outcome::TimedOut => 1,
            Outcome::Rejected => 2,
            Outcome::Shed => 3,
        }
    }
}

/// Completion notification delivered to the submitting [`Agent`].
///
/// This is everything an external client can observe about one request:
/// what was sent, when, and when the reply arrived.
///
/// [`Agent`]: crate::Agent
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// The token returned by `SimCtx::submit` for this request.
    pub token: u64,
    /// The caller-chosen correlation tag passed to `SimCtx::submit_tagged`
    /// (`0` for plain `submit`). Large populations encode the submitting
    /// user's slab slot here so response dispatch is an O(1) array index
    /// instead of a token hash lookup.
    pub tag: u64,
    /// The request type that was submitted.
    pub request_type: RequestTypeId,
    /// Submission time (client-side send timestamp).
    pub submitted_at: SimTime,
    /// Completion time (client-side receive timestamp).
    pub completed_at: SimTime,
    /// How the request ended. [`Outcome::Ok`] unless a resilience policy
    /// failed it (after exhausting any platform-level retries).
    pub outcome: Outcome,
}

impl Response {
    /// End-to-end response time in fractional milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.completed_at
            .saturating_since(self.submitted_at)
            .as_millis_f64()
    }
}

/// Which phase of a step's compute a segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Compute before the downstream RPC (or the whole demand at a leaf).
    Pre,
    /// Compute after the downstream reply.
    Post,
}

/// One activation frame: the job's visit to one service along its path.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Frame {
    /// Index into the service's replica vector where this frame was (or
    /// will be) admitted.
    pub replica: u32,
    /// Whether the frame currently holds a worker-thread slot.
    pub admitted: bool,
}

/// An in-flight request walking its execution path.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    /// Submitting agent, to deliver the [`Response`].
    pub agent: AgentId,
    /// Token the agent can correlate on.
    pub token: u64,
    /// Caller-chosen tag echoed back on the [`Response`].
    pub tag: u64,
    pub request_type: RequestTypeId,
    pub origin: Origin,
    pub submitted_at: SimTime,
    /// Token of the *original* submission: what `SimCtx::submit` returned
    /// and what the final [`Response`] carries. Platform-level retries get
    /// a fresh `token` per attempt (deadline bookkeeping keys on it) but
    /// keep `orig_token`, so agents always correlate on what they were
    /// given.
    pub orig_token: u64,
    /// 1-based attempt number; `1` for the original submission.
    pub attempt: u32,
    /// Set when a deadline expired for this attempt: outstanding
    /// references (queue entries, in-flight events) are tombstones and are
    /// reaped lazily when next touched.
    pub cancelled: bool,
    /// Activation frames; `frames[i]` corresponds to path step `i`.
    /// Frames are pushed as the request descends and popped as replies
    /// propagate back. Stored inline (no allocation) up to
    /// [`INLINE_FRAMES`] steps.
    pub frames: InlineVec<Frame, INLINE_FRAMES>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_constructors_label_correctly() {
        assert!(!Origin::legit(1, 2).is_attack);
        assert!(Origin::attack(1, 2).is_attack);
        assert_eq!(Origin::legit(7, 9).ip, 7);
        assert_eq!(Origin::attack(7, 9).session, 9);
    }

    #[test]
    fn response_latency_ms() {
        let r = Response {
            token: 0,
            tag: 0,
            request_type: RequestTypeId::new(0),
            submitted_at: SimTime::from_millis(10),
            completed_at: SimTime::from_millis(135),
            outcome: Outcome::Ok,
        };
        assert_eq!(r.latency_ms(), 125.0);
    }

    #[test]
    fn outcome_indexes_are_dense() {
        let all = [
            Outcome::Ok,
            Outcome::TimedOut,
            Outcome::Rejected,
            Outcome::Shed,
        ];
        for (i, o) in all.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
    }
}
