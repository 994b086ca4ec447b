//! Request/reply encoding: versioned major requests with counted byte
//! strings, and streamed tuple replies.

// Decodes bytes from an untrusted socket: malformed input is an error,
// never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use moira_common::errors::MrError;

/// Protocol version spoken by this implementation.
pub const CURRENT_VERSION: u16 = 2;

/// Oldest client version the server still accepts.
pub const MIN_VERSION: u16 = 1;

/// Upper bound on a single counted string (1 MiB) — SUN RPC was rejected
/// for *small* limits; ours is generous but bounded against deathgrams.
pub const MAX_FIELD_LEN: usize = 1 << 20;

/// Upper bound on fields per message.
pub const MAX_FIELDS: usize = 4096;

/// The five major requests of §5.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MajorRequest {
    /// Do nothing — for testing and profiling of the RPC layer.
    Noop,
    /// Authenticate: one argument, a Kerberos authenticator bundle.
    Auth,
    /// Run a predefined query: name then arguments.
    Query,
    /// Check access to a query without running it.
    Access,
    /// Ask the server to spawn a DCM immediately.
    TriggerDcm,
}

impl MajorRequest {
    /// Wire number.
    pub fn code(self) -> u8 {
        match self {
            MajorRequest::Noop => 0,
            MajorRequest::Auth => 1,
            MajorRequest::Query => 2,
            MajorRequest::Access => 3,
            MajorRequest::TriggerDcm => 4,
        }
    }

    /// Parses a wire number.
    pub fn from_code(code: u8) -> Option<MajorRequest> {
        Some(match code {
            0 => MajorRequest::Noop,
            1 => MajorRequest::Auth,
            2 => MajorRequest::Query,
            3 => MajorRequest::Access,
            4 => MajorRequest::TriggerDcm,
            _ => return None,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Protocol version of the sender.
    pub version: u16,
    /// Major request number.
    pub major: MajorRequest,
    /// Counted byte-string arguments.
    pub args: Vec<Bytes>,
}

impl Request {
    /// Builds a current-version request with string arguments.
    pub fn new(major: MajorRequest, args: &[&str]) -> Request {
        Request {
            version: CURRENT_VERSION,
            major,
            args: args
                .iter()
                .map(|s| Bytes::copy_from_slice(s.as_bytes()))
                .collect(),
        }
    }

    /// Encodes to a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_u16(self.version);
        buf.put_u8(self.major.code());
        buf.put_u16(self.args.len() as u16);
        for arg in &self.args {
            buf.put_u32(arg.len() as u32);
            buf.put_slice(arg);
        }
        buf.freeze()
    }

    /// Decodes a frame payload.
    pub fn decode(mut payload: Bytes) -> Result<Request, MrError> {
        if payload.remaining() < 5 {
            return Err(MrError::Internal);
        }
        let version = payload.get_u16();
        let major = MajorRequest::from_code(payload.get_u8()).ok_or(MrError::UnknownProc)?;
        let argc = payload.get_u16() as usize;
        if argc > MAX_FIELDS {
            return Err(MrError::ArgTooLong);
        }
        let args = decode_counted(&mut payload, argc)?;
        if payload.has_remaining() {
            return Err(MrError::Internal);
        }
        Ok(Request {
            version,
            major,
            args,
        })
    }

    /// Arguments as UTF-8 strings; `MR_BAD_CHAR` on invalid UTF-8.
    pub fn string_args(&self) -> Result<Vec<String>, MrError> {
        self.args
            .iter()
            .map(|b| String::from_utf8(b.to_vec()).map_err(|_| MrError::BadChar))
            .collect()
    }
}

/// A server reply: a status code and the fields of one tuple.
///
/// A query result is a *sequence* of replies: one per tuple with code
/// `MR_MORE_DATA`, then a final fieldless reply carrying the overall
/// status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `com_err` status code; `MR_MORE_DATA` marks a tuple reply.
    pub code: i32,
    /// Tuple fields (empty on final replies).
    pub fields: Vec<Bytes>,
}

impl Reply {
    /// A final reply with a status and no tuple.
    pub fn status(code: i32) -> Reply {
        Reply {
            code,
            fields: Vec::new(),
        }
    }

    /// A tuple-carrying reply (code `MR_MORE_DATA`).
    pub fn tuple(fields: &[String]) -> Reply {
        Reply {
            code: MrError::MoreData.code(),
            fields: fields
                .iter()
                .map(|s| Bytes::copy_from_slice(s.as_bytes()))
                .collect(),
        }
    }

    /// True if this reply signals that more tuples follow.
    pub fn is_more_data(&self) -> bool {
        self.code == MrError::MoreData.code()
    }

    /// Encodes to a frame payload.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_i32(self.code);
        buf.put_u16(self.fields.len() as u16);
        for f in &self.fields {
            buf.put_u32(f.len() as u32);
            buf.put_slice(f);
        }
        buf.freeze()
    }

    /// Decodes a frame payload.
    pub fn decode(mut payload: Bytes) -> Result<Reply, MrError> {
        if payload.remaining() < 6 {
            return Err(MrError::Internal);
        }
        let code = payload.get_i32();
        let fieldc = payload.get_u16() as usize;
        if fieldc > MAX_FIELDS {
            return Err(MrError::ArgTooLong);
        }
        let fields = decode_counted(&mut payload, fieldc)?;
        if payload.has_remaining() {
            return Err(MrError::Internal);
        }
        Ok(Reply { code, fields })
    }

    /// Fields as UTF-8 strings.
    pub fn string_fields(&self) -> Result<Vec<String>, MrError> {
        self.fields
            .iter()
            .map(|b| String::from_utf8(b.to_vec()).map_err(|_| MrError::BadChar))
            .collect()
    }
}

fn decode_counted(payload: &mut Bytes, count: usize) -> Result<Vec<Bytes>, MrError> {
    let mut out = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        if payload.remaining() < 4 {
            return Err(MrError::Internal);
        }
        let len = payload.get_u32() as usize;
        if len > MAX_FIELD_LEN {
            return Err(MrError::ArgTooLong);
        }
        if payload.remaining() < len {
            return Err(MrError::Internal);
        }
        out.push(payload.split_to(len));
    }
    Ok(out)
}

/// Version-skew check performed by the server on each request (§5.3).
pub fn check_version(version: u16) -> Result<(), MrError> {
    if version < MIN_VERSION {
        Err(MrError::VersionLow)
    } else if version > CURRENT_VERSION {
        Err(MrError::VersionHigh)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let req = Request::new(MajorRequest::Query, &["get_user_by_login", "babette"]);
        let decoded = Request::decode(req.encode()).unwrap();
        assert_eq!(decoded, req);
        assert_eq!(
            decoded.string_args().unwrap(),
            vec!["get_user_by_login".to_owned(), "babette".to_owned()]
        );
    }

    #[test]
    fn empty_args_ok() {
        let req = Request::new(MajorRequest::Noop, &[]);
        assert_eq!(Request::decode(req.encode()).unwrap().args.len(), 0);
    }

    #[test]
    fn binary_args_survive() {
        let mut req = Request::new(MajorRequest::Auth, &[]);
        req.args.push(Bytes::from_static(&[0u8, 255, 13, 10, 0]));
        let decoded = Request::decode(req.encode()).unwrap();
        assert_eq!(decoded.args[0], Bytes::from_static(&[0u8, 255, 13, 10, 0]));
        assert!(decoded.string_args().is_err());
    }

    #[test]
    fn reply_round_trip() {
        let r = Reply::tuple(&["babette".into(), "6530".into(), "/bin/csh".into()]);
        let decoded = Reply::decode(r.encode()).unwrap();
        assert!(decoded.is_more_data());
        assert_eq!(decoded.string_fields().unwrap()[2], "/bin/csh");
        let s = Reply::status(0);
        assert_eq!(Reply::decode(s.encode()).unwrap(), s);
    }

    #[test]
    fn truncated_frames_rejected() {
        let req = Request::new(MajorRequest::Query, &["q", "arg"]);
        let enc = req.encode();
        for cut in 1..enc.len() {
            assert!(Request::decode(enc.slice(..cut)).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = BytesMut::from(&Request::new(MajorRequest::Noop, &[]).encode()[..]);
        bytes.put_u8(7);
        assert!(Request::decode(bytes.freeze()).is_err());
    }

    #[test]
    fn unknown_major_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(CURRENT_VERSION);
        buf.put_u8(99);
        buf.put_u16(0);
        assert_eq!(Request::decode(buf.freeze()), Err(MrError::UnknownProc));
    }

    #[test]
    fn oversize_field_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u16(CURRENT_VERSION);
        buf.put_u8(0);
        buf.put_u16(1);
        buf.put_u32((MAX_FIELD_LEN + 1) as u32);
        assert_eq!(Request::decode(buf.freeze()), Err(MrError::ArgTooLong));
    }

    #[test]
    fn version_skew() {
        assert!(check_version(CURRENT_VERSION).is_ok());
        assert!(check_version(MIN_VERSION).is_ok());
        assert_eq!(check_version(0), Err(MrError::VersionLow));
        assert_eq!(
            check_version(CURRENT_VERSION + 1),
            Err(MrError::VersionHigh)
        );
    }

    #[test]
    fn major_codes_round_trip() {
        for m in [
            MajorRequest::Noop,
            MajorRequest::Auth,
            MajorRequest::Query,
            MajorRequest::Access,
            MajorRequest::TriggerDcm,
        ] {
            assert_eq!(MajorRequest::from_code(m.code()), Some(m));
        }
        assert_eq!(MajorRequest::from_code(200), None);
    }
}
