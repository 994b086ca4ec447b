//! Stage 2 of a poll pass: drained frames become classified task slots.
//!
//! Every frame is decoded here, once. A slot's [`Work`] says which tier
//! owns it: retrieve-class queries and `Access` pre-checks go to the
//! shared tier; mutations, `Authenticate` and `Trigger_DCM` go to the
//! exclusive tier; everything answerable without state (noop, decode and
//! version errors, overload sheds) is already [`Work::Done`]. Nothing in
//! this file touches a channel, a lock or the database, so the routing
//! table is tested as plain data.

use bytes::Bytes;
use moira_common::errors::MrError;
use moira_protocol::wire::{check_version, MajorRequest, Reply, Request};

use crate::registry::Registry;

/// One drained, undecoded request and the index of its connection.
pub(super) type Frame = (usize, Bytes);

/// A decoded `Query` or `Access` request; `args[0]` names the query handle.
pub(super) struct Call {
    /// True for an `Access` pre-check, false for execution.
    pub access: bool,
    /// Handle name, then its arguments. Never empty.
    pub args: Vec<String>,
}

/// How one frame is dispatched.
pub(super) enum Work {
    /// Answered: by classification itself, or by the tier that ran it.
    Done(Vec<Reply>),
    /// Shared tier: an `Access` pre-check or a retrieve-class query.
    Read(Call),
    /// Exclusive tier, in arrival order: a mutation, or any call that
    /// follows its connection's first exclusive-tier frame.
    Write(Call),
    /// Exclusive tier: `Authenticate`, with its raw arguments.
    Auth(Vec<Bytes>),
    /// Exclusive tier: `Trigger_DCM`.
    TriggerDcm,
}

impl Work {
    /// True for the variants the exclusive tier drains.
    pub fn is_serial(&self) -> bool {
        matches!(self, Work::Write(_) | Work::Auth(_) | Work::TriggerDcm)
    }

    /// The replies to send. Every other variant belongs to one of the
    /// tiers, so none is left by now; were one, `Busy` invites the resend.
    pub fn into_replies(self) -> Vec<Reply> {
        match self {
            Work::Done(replies) => replies,
            _ => busy(),
        }
    }
}

/// A retryable `MR_BUSY` answer: overload, or a tier that could not get
/// its guard.
pub(super) fn busy() -> Vec<Reply> {
    vec![Reply::status(MrError::Busy.code())]
}

/// One classified frame: its connection, its slot in that connection's
/// reply order (slots stay in drain order), and the work to do.
pub(super) struct TaskSlot {
    pub conn: usize,
    pub work: Work,
}

/// Routes one frame by its content alone.
fn classify_frame(registry: &Registry, frame: Bytes) -> Work {
    let status = |e: MrError| Work::Done(vec![Reply::status(e.code())]);
    let request = match Request::decode(frame) {
        Ok(r) => r,
        Err(e) => return status(e),
    };
    if let Err(e) = check_version(request.version) {
        return status(e);
    }
    match request.major {
        MajorRequest::Noop => Work::Done(vec![Reply::status(0)]),
        MajorRequest::Auth => Work::Auth(request.args),
        MajorRequest::TriggerDcm => Work::TriggerDcm,
        MajorRequest::Access | MajorRequest::Query => {
            let args = match request.string_args() {
                Ok(a) => a,
                Err(e) => return status(e),
            };
            if args.is_empty() {
                return status(MrError::Args);
            }
            let access = request.major == MajorRequest::Access;
            // Unknown names also take the shared tier: answering
            // `MR_NO_HANDLE` needs no exclusive access.
            let shared = access || registry.get(&args[0]).is_none_or(|h| h.handler.is_read());
            let call = Call { access, args };
            if shared {
                Work::Read(call)
            } else {
                Work::Write(call)
            }
        }
    }
}

/// Classifies one pass's frames, which arrive in drain order (each
/// connection's frames contiguous, oldest first).
///
/// A connection's frames join the shared tier only up to its first
/// exclusive-tier frame; everything after stays in arrival order on the
/// exclusive tier, so a read behind a write observes it. Frames past
/// `limit` are shed undecoded with `MR_BUSY` — the client hears it now
/// instead of timing out behind an unbounded queue. Returns the slots and
/// how many were shed.
pub(super) fn classify(
    registry: &Registry,
    frames: Vec<Frame>,
    limit: Option<usize>,
) -> (Vec<TaskSlot>, u64) {
    let limit = limit.unwrap_or(usize::MAX);
    let shed = frames.len().saturating_sub(limit) as u64;
    let mut serial_conn = None;
    let tasks = frames
        .into_iter()
        .enumerate()
        .map(|(n, (conn, bytes))| {
            let work = if n >= limit {
                Work::Done(busy())
            } else {
                match classify_frame(registry, bytes) {
                    Work::Read(call) if serial_conn == Some(conn) => Work::Write(call),
                    work => work,
                }
            };
            if work.is_serial() {
                serial_conn = Some(conn);
            }
            TaskSlot { conn, work }
        })
        .collect();
    (tasks, shed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use MajorRequest::*;

    const READ: &str = "get_machine";
    const WRITE: &str = "add_machine";

    /// A slot's routing as a short string: `done:<code>`, `read:<handle>`,
    /// `write:<handle>` (`read?`/`write?` for an `Access` pre-check),
    /// `auth/<argc>`, `tdcm`.
    fn route(work: &Work) -> String {
        let call = |tier: &str, c: &Call| {
            format!("{tier}{}:{}", if c.access { "?" } else { "" }, c.args[0])
        };
        match work {
            Work::Done(replies) => {
                assert_eq!(replies.len(), 1, "classification answers with one status");
                done(replies[0].code)
            }
            Work::Read(c) => call("read", c),
            Work::Write(c) => call("write", c),
            Work::Auth(args) => format!("auth/{}", args.len()),
            Work::TriggerDcm => "tdcm".to_owned(),
        }
    }

    fn done(code: i32) -> String {
        format!("done:{code}")
    }

    fn req(major: MajorRequest, args: &[&str]) -> Bytes {
        Request::new(major, args).encode()
    }

    /// Classifies `(connection, frame)` pairs; returns routes and sheds.
    fn routes(frames: Vec<Frame>, limit: Option<usize>) -> (Vec<String>, u64) {
        let (tasks, shed) = classify(&Registry::standard(), frames, limit);
        (tasks.iter().map(|t| route(&t.work)).collect(), shed)
    }

    #[test]
    fn every_major_request_routes_by_content() {
        let bad_args = done(MrError::Args.code());
        let table: [(MajorRequest, &[&str], &str); 13] = [
            (Noop, &[], "done:0"),
            (Noop, &["ignored"], "done:0"),
            (Auth, &["ops", "test"], "auth/2"),
            (Auth, &[], "auth/0"),
            (TriggerDcm, &[], "tdcm"),
            (Query, &[READ, "*"], "read:get_machine"),
            (Query, &[WRITE, "X", "VAX"], "write:add_machine"),
            (Query, &["no_such_query"], "read:no_such_query"),
            (Query, &[], &bad_args),
            (Access, &[READ, "*"], "read?:get_machine"),
            // A pre-check never mutates, whatever handle it names.
            (Access, &[WRITE, "X", "VAX"], "read?:add_machine"),
            (Access, &["no_such_query"], "read?:no_such_query"),
            (Access, &[], &bad_args),
        ];
        for (major, args, want) in table {
            let (got, shed) = routes(vec![(0, req(major, args))], None);
            assert_eq!(
                (got, shed),
                (vec![want.to_owned()], 0),
                "{major:?} {args:?}"
            );
        }
    }

    #[test]
    fn malformed_frames_are_answered_without_a_tier() {
        for major in [Noop, Auth, Query, Access, TriggerDcm] {
            let mut high = Request::new(major, &[READ, "*"]);
            high.version = 99;
            let mut low = high.clone();
            low.version = 0;
            let (got, _) = routes(vec![(0, high.encode()), (1, low.encode())], None);
            let want = [MrError::VersionHigh, MrError::VersionLow].map(|e| done(e.code()));
            assert_eq!(got, want, "{major:?}");
        }
        let mut bad_utf8 = Request::new(Query, &[]);
        bad_utf8.args = vec![Bytes::from_static(&[0xff, 0xfe])];
        let undecodable = vec![
            (0, Bytes::from_static(b"\x01")),
            (1, Bytes::new()),
            (2, bad_utf8.encode()),
        ];
        let want = [MrError::Internal, MrError::Internal, MrError::BadChar].map(|e| done(e.code()));
        assert_eq!(routes(undecodable, None).0, want);
    }

    #[test]
    fn frames_after_a_connections_first_write_go_serial() {
        let read = || req(Query, &[READ, "*"]);
        let frames = vec![
            // Connection 0: a read, a write, then a read, a pre-check, a
            // noop and a malformed query behind the write.
            (0, read()),
            (0, req(Query, &[WRITE, "X", "VAX"])),
            (0, read()),
            (0, req(Access, &[READ, "*"])),
            (0, req(Noop, &[])),
            (0, req(Query, &[])),
            // Connection 1 is unaffected by connection 0's write…
            (1, read()),
            // …and Auth / Trigger_DCM start a serial run like a write.
            (1, req(Auth, &["ops", "test"])),
            (1, read()),
            (2, req(TriggerDcm, &[])),
            (2, read()),
            (3, read()),
        ];
        let bad_args = done(MrError::Args.code());
        let want = [
            "read:get_machine",
            "write:add_machine",
            "write:get_machine",
            "write?:get_machine",
            "done:0",
            &bad_args,
            "read:get_machine",
            "auth/2",
            "write:get_machine",
            "tdcm",
            "write:get_machine",
            "read:get_machine",
        ];
        assert_eq!(routes(frames, None), (want.map(str::to_owned).to_vec(), 0));
    }

    #[test]
    fn frames_past_the_overload_limit_are_shed_undecoded() {
        let frames = vec![
            (0, req(Query, &[READ, "*"])),
            (0, req(Query, &[WRITE, "X", "VAX"])),
            (0, Bytes::from_static(b"garbage")),
            (1, req(Query, &[READ, "*"])),
        ];
        let busy = done(MrError::Busy.code());
        let want = vec![
            "read:get_machine".to_owned(),
            busy.clone(),
            busy.clone(),
            busy,
        ];
        assert_eq!(routes(frames, Some(1)), (want, 3));
    }
}
