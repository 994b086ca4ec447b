#![warn(missing_docs)]

//! The Moira RPC protocol (§5.3).
//!
//! "The Moira protocol is a remote procedure call protocol layered on top
//! of TCP/IP… Each request consists of a major request number, and several
//! counted strings of bytes. Each reply consists of a single number (an
//! error code) followed by zero or more 'tuples' … Requests and replies
//! also contain a version number, to allow clean handling of version skew."
//!
//! The paper left the byte-level encoding "not yet specified"; this crate
//! pins one down:
//!
//! ```text
//! frame   := u32  length of payload (big-endian) | payload
//! request := u16 version | u8 major | u16 argc | argc × counted
//! reply   := i32 code    | u16 fieldc          | fieldc × counted
//! counted := u32 length | bytes
//! ```
//!
//! Tuple streaming follows the paper exactly: each retrieved tuple is sent
//! as its own reply with code `MR_MORE_DATA`, and the final reply carries
//! the overall status with no fields.
//!
//! [`transport`] supplies the one channel type the rest of the system
//! uses: a non-blocking framed stream, over TCP or over the two ends of an
//! in-process socketpair — what lets the server stay a single UNIX process
//! handling many simultaneous connections, as GDB did for the original.

pub mod transport;
pub mod wire;

pub use transport::{pair, Channel, InProcChannel, TcpChannel};
pub use wire::{MajorRequest, Reply, Request, CURRENT_VERSION};
