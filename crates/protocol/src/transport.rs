//! The framed transport: one non-blocking stream channel, over TCP or over
//! an in-process socketpair.
//!
//! The Moira server "runs as a single UNIX process … GDB, through the use
//! of BSD UNIX non-blocking I/O, allows the programmer to set up a single
//! process server which handles multiple simultaneous TCP connections"
//! (§5.4). The [`Channel`] trait exposes exactly the non-blocking
//! operations a readiness-driven server loop needs: `try_recv` never
//! blocks, `send` queues a frame into an elastic outbox, and `flush`
//! opportunistically drains that outbox without ever blocking.
//!
//! There is one implementation, [`StreamChannel`], generic over the byte
//! stream under it: [`TcpChannel`] for the wire, and the two ends of one
//! `UnixStream::pair()` for [`pair`]. A test, bench or simulator that
//! talks to the server in-process therefore exercises the same framing,
//! backpressure and close semantics as production traffic: output past
//! the socket buffer (~200 KiB, or a few hundred small frames — AF_UNIX
//! charges each write's bookkeeping against it) waits in the sender's
//! outbox for a `flush` (which [`recv_blocking`] does for its own side),
//! and a peer that closes is seen as EOF or a reset, after the frames it
//! sent.
//!
//! Backpressure contract: `send` never blocks and never drops — it queues.
//! The *server* bounds memory by watching [`Channel::queued_bytes`]
//! against its outbox cap and pausing read interest for connections whose
//! peers stop draining replies (see `moira-core::server`, which owns the
//! cap). Slow consumers therefore experience latency, not disconnection.
//!
//! Reactor visibility: a channel's readiness fd, [`Channel::raw_fd`], is
//! its stream. The trait has no provided methods: a wrapper that forgets
//! to forward the fd, the flush or the outbox depth does not compile. Unix
//! only, like the reactor it feeds.
//!
//! Frames are length-prefixed: `u32` big-endian payload length, then the
//! payload (a [`crate::wire`] encoding). Headers announcing more than
//! [`MAX_FRAME_LEN`] bytes are a protocol violation and poison the
//! connection — this bounds the *inbox* the same way the server's cap
//! bounds the outbox.

// Frames bytes from an untrusted socket: malformed input is an error,
// never a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

use bytes::Bytes;

/// Raw readiness fd.
pub type RawFd = std::os::unix::io::RawFd;

/// Hard ceiling on a single frame's payload. A length prefix above this
/// is treated as a malformed/hostile header and kills the connection
/// rather than letting one peer balloon the server's reassembly buffer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A bidirectional, non-blocking framed byte channel.
pub trait Channel: Send {
    /// Queues one frame for the peer and opportunistically flushes. An
    /// error means the peer is gone (`MR_ABORTED` territory); a full OS
    /// buffer is *not* an error — the bytes wait in the outbox.
    fn send(&mut self, frame: Bytes) -> io::Result<()>;

    /// Receives one frame if available: `Ok(Some)` frame, `Ok(None)`
    /// nothing yet on a live connection, `Err` connection dead — reported
    /// only after every complete frame that arrived before the peer died
    /// has come out.
    fn try_recv(&mut self) -> io::Result<Option<Bytes>>;

    /// True once the peer has closed.
    fn is_closed(&self) -> bool;

    /// Readiness fd for reactor registration: readable whenever
    /// `try_recv` has something to report (a frame, EOF, an error),
    /// writable whenever `flush` can make progress.
    fn raw_fd(&self) -> RawFd;

    /// Drains as much queued output as the OS will take without blocking.
    /// `Ok(true)` when the outbox is empty, `Ok(false)` when bytes remain
    /// (write interest should stay registered), `Err` when the peer died.
    fn flush(&mut self) -> io::Result<bool>;

    /// Bytes queued toward the peer and not yet taken by the OS. The
    /// backpressure signal.
    fn queued_bytes(&self) -> usize;
}

/// A non-blocking stream with incremental frame reassembly on the read
/// side and an elastic outbox on the write side. `S` must already be in
/// non-blocking mode; the constructors see to that.
pub struct StreamChannel<S> {
    stream: S,
    inbox: Vec<u8>,
    /// Encoded (header + payload) bytes the OS has not accepted yet.
    outbox: VecDeque<u8>,
    closed: bool,
}

/// The channel over a TCP connection.
pub type TcpChannel = StreamChannel<TcpStream>;

/// One end of an in-process [`pair`].
pub type InProcChannel = StreamChannel<UnixStream>;

/// Creates a connected pair of in-process channels: the two ends of one
/// non-blocking Unix socketpair.
// Construction time, before any peer byte exists: failing here means the
// process is out of fds, and no caller can run without its pair.
#[allow(clippy::expect_used)]
pub fn pair() -> (InProcChannel, InProcChannel) {
    let (a, b) = UnixStream::pair().expect("socketpair");
    for s in [&a, &b] {
        s.set_nonblocking(true).expect("nonblocking socketpair");
    }
    (StreamChannel::over(a), StreamChannel::over(b))
}

impl TcpChannel {
    /// Wraps a stream, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<TcpChannel> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(StreamChannel::over(stream))
    }

    /// Connects to an address and wraps the stream.
    pub fn connect(addr: &str) -> io::Result<TcpChannel> {
        TcpChannel::new(TcpStream::connect(addr)?)
    }
}

impl<S: Read + Write> StreamChannel<S> {
    fn over(stream: S) -> StreamChannel<S> {
        StreamChannel {
            stream,
            inbox: Vec::new(),
            outbox: VecDeque::new(),
            closed: false,
        }
    }

    fn pump(&mut self) -> io::Result<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
                Ok(n) => self.inbox.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.closed = true;
                    return Err(e);
                }
            }
        }
    }

    /// Pops the inbox's first frame if all of it has arrived.
    fn take_frame(&mut self) -> io::Result<Option<Bytes>> {
        let [a, b, c, d, ..] = self.inbox[..] else {
            return Ok(None);
        };
        let len = u32::from_be_bytes([a, b, c, d]) as usize;
        if len > MAX_FRAME_LEN {
            self.closed = true;
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame header announces {len} bytes (cap {MAX_FRAME_LEN})"),
            ));
        }
        if self.inbox.len() < 4 + len {
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&self.inbox[4..4 + len]);
        self.inbox.drain(..4 + len);
        Ok(Some(frame))
    }
}

impl<S: Read + Write + AsRawFd + Send> Channel for StreamChannel<S> {
    fn send(&mut self, frame: Bytes) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        self.outbox
            .extend((frame.len() as u32).to_be_bytes().iter().copied());
        self.outbox.extend(frame.iter().copied());
        // Opportunistic drain; leftovers wait for write readiness.
        self.flush().map(|_| ())
    }

    fn try_recv(&mut self) -> io::Result<Option<Bytes>> {
        // One pump can read a complete frame and then hit the peer's reset
        // (what Linux hands a reader whose peer closed with input unread):
        // the frame comes out first, the dead peer is reported after it.
        let died = self.pump().err();
        if let Some(frame) = self.take_frame()? {
            return Ok(Some(frame));
        }
        match died {
            Some(e) => Err(e),
            None if self.closed => Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed")),
            None => Ok(None),
        }
    }

    fn is_closed(&self) -> bool {
        self.closed
    }

    fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    fn flush(&mut self) -> io::Result<bool> {
        while !self.outbox.is_empty() {
            let (front, _) = self.outbox.as_slices();
            match self.stream.write(front) {
                Ok(0) => {
                    self.closed = true;
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed"));
                }
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.closed = true;
                    return Err(e);
                }
            }
        }
        Ok(true)
    }

    fn queued_bytes(&self) -> usize {
        self.outbox.len()
    }
}

/// Blocks (with spinning politeness) until a frame arrives or `tries`
/// polls have elapsed — the client-side convenience for request/response
/// exchanges and for tests. Also keeps flushing the channel's outbox so a
/// request queued by a non-blocking `send` actually reaches the wire
/// while we wait for the reply.
pub fn recv_blocking(chan: &mut dyn Channel, tries: u32) -> io::Result<Bytes> {
    moira_common::lockorder::assert_may_block("recv_blocking");
    for i in 0..tries {
        if chan.queued_bytes() > 0 {
            chan.flush()?;
        }
        if let Some(frame) = chan.try_recv()? {
            return Ok(frame);
        }
        if i > 10 {
            // The poll interval; the seam is asserted on entry.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    Err(io::Error::new(io::ErrorKind::TimedOut, "no frame"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stream kind the suite runs over. Each body below is instantiated
    /// once per kind by `both_kinds!`.
    trait Kind: Read + Write + AsRawFd + Send + Sized + 'static {
        /// Two connected streams, still blocking — a test writes raw bytes
        /// through one, or wraps it with [`Kind::chan`].
        fn raw_pair() -> (Self, Self);
        fn chan(self) -> StreamChannel<Self>;

        fn chan_pair() -> (StreamChannel<Self>, StreamChannel<Self>) {
            let (a, b) = Self::raw_pair();
            (a.chan(), b.chan())
        }
    }

    impl Kind for UnixStream {
        fn raw_pair() -> (Self, Self) {
            UnixStream::pair().unwrap()
        }
        fn chan(self) -> StreamChannel<Self> {
            self.set_nonblocking(true).unwrap();
            StreamChannel::over(self)
        }
    }

    impl Kind for TcpStream {
        fn raw_pair() -> (Self, Self) {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (client, listener.accept().unwrap().0)
        }
        fn chan(self) -> StreamChannel<Self> {
            TcpChannel::new(self).unwrap()
        }
    }

    macro_rules! both_kinds {
        ($($name:ident),* $(,)?) => {
            mod unix {
                $(#[test] fn $name() { super::$name::<std::os::unix::net::UnixStream>() })*
            }
            mod tcp {
                $(#[test] fn $name() { super::$name::<std::net::TcpStream>() })*
            }
        };
    }

    both_kinds!(
        round_trip,
        many_frames_arrive_in_one_read,
        partial_frames_are_reassembled,
        frames_sent_before_the_drop_still_arrive,
        detects_close,
        rejects_oversized_frame_header,
        outbox_queues_past_socket_buffer_and_drains,
        frame_ahead_of_a_reset_is_delivered_before_the_error,
    );

    const TRIES: u32 = 1_000_000;

    fn round_trip<K: Kind>() {
        let (mut a, mut b) = K::chan_pair();
        a.send(Bytes::from_static(b"hello")).unwrap();
        a.send(Bytes::from_static(b"world")).unwrap();
        assert_eq!(recv_blocking(&mut b, TRIES).unwrap(), &b"hello"[..]);
        assert_eq!(recv_blocking(&mut b, TRIES).unwrap(), &b"world"[..]);
        assert_eq!(b.try_recv().unwrap(), None);
        b.send(Bytes::from_static(b"back")).unwrap();
        assert_eq!(recv_blocking(&mut a, TRIES).unwrap(), &b"back"[..]);
    }

    fn many_frames_arrive_in_one_read<K: Kind>() {
        let (mut raw, b) = K::raw_pair();
        let mut b = b.chan();
        let mut wire = Vec::new();
        for i in 0..10u8 {
            wire.extend_from_slice(&3u32.to_be_bytes());
            wire.extend_from_slice(&[i; 3]);
        }
        raw.write_all(&wire).unwrap();
        for i in 0..10u8 {
            assert_eq!(recv_blocking(&mut b, TRIES).unwrap(), &[i; 3][..]);
        }
        assert_eq!(b.try_recv().unwrap(), None);
    }

    fn partial_frames_are_reassembled<K: Kind>() {
        let (mut raw, b) = K::raw_pair();
        let mut b = b.chan();
        // Header split in two, payload split in two: nothing comes out
        // until the last byte is in.
        for piece in [&[0u8, 0][..], &[0, 4], b"pi", b"n"] {
            raw.write_all(piece).unwrap();
            assert_eq!(b.try_recv().unwrap(), None, "frame still partial");
        }
        raw.write_all(b"g").unwrap();
        assert_eq!(recv_blocking(&mut b, TRIES).unwrap(), &b"ping"[..]);
    }

    /// Polls until `try_recv` reports the dead peer.
    fn recv_until_dead(chan: &mut dyn Channel) -> io::Error {
        for _ in 0..TRIES {
            match chan.try_recv() {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("no frame was sent"),
                Err(e) => return e,
            }
        }
        panic!("close never observed");
    }

    fn frames_sent_before_the_drop_still_arrive<K: Kind>() {
        let (mut a, mut b) = K::chan_pair();
        a.send(Bytes::from_static(b"last words")).unwrap();
        drop(a);
        assert_eq!(recv_blocking(&mut b, TRIES).unwrap(), &b"last words"[..]);
        recv_until_dead(&mut b);
        assert!(b.is_closed());
        assert!(b.send(Bytes::from_static(b"x")).is_err());
    }

    fn detects_close<K: Kind>() {
        let (a, mut b) = K::chan_pair();
        drop(a);
        recv_until_dead(&mut b);
        assert!(b.is_closed());
        // A peer gone mid-frame is just as dead: the fragment it left
        // behind never completes.
        let (mut raw, b) = K::raw_pair();
        let mut b = b.chan();
        raw.write_all(&[0, 0, 0, 9, b'x']).unwrap();
        drop(raw);
        recv_until_dead(&mut b);
        assert!(b.is_closed());
    }

    fn rejects_oversized_frame_header<K: Kind>() {
        let (mut raw, b) = K::raw_pair();
        let mut b = b.chan();
        // A hostile header claiming a 2 GiB frame must poison the
        // connection instead of growing the inbox toward it.
        raw.write_all(&(2u32 << 30).to_be_bytes()).unwrap();
        assert_eq!(recv_until_dead(&mut b).kind(), io::ErrorKind::InvalidData);
        assert!(b.is_closed());
    }

    fn outbox_queues_past_socket_buffer_and_drains<K: Kind>() {
        const FRAME: usize = 512 * 1024;
        let (mut a, mut b) = K::chan_pair();
        // Queue far more than the socket buffers hold; send must not
        // block and the overflow must land in the outbox.
        let frame = Bytes::from(vec![0xabu8; FRAME]);
        for _ in 0..16 {
            a.send(frame.clone()).unwrap();
        }
        assert!(
            a.queued_bytes() > 0,
            "8 MiB cannot fit in the socket buffer; the outbox must hold the rest"
        );
        // A draining peer lets flush retire the outbox completely.
        let reader = std::thread::spawn(move || {
            (0..16)
                .map(|_| recv_blocking(&mut b, 10_000_000).unwrap().len())
                .sum::<usize>()
        });
        while !a.flush().unwrap() {
            std::thread::yield_now();
        }
        assert_eq!(a.queued_bytes(), 0);
        assert_eq!(reader.join().unwrap(), 16 * FRAME);
    }

    fn frame_ahead_of_a_reset_is_delivered_before_the_error<K: Kind>() {
        // The peer closes with our frame still unread in its socket, so the
        // kernel turns its close into a reset: our reads return its last
        // frame and then ECONNRESET, inside one `try_recv`. (Deterministic
        // over a socketpair; loopback TCP delivers in the same order.)
        let (mut a, mut b) = K::chan_pair();
        a.send(Bytes::from_static(b"never read")).unwrap();
        b.send(Bytes::from_static(b"last words")).unwrap();
        drop(b);
        assert_eq!(recv_blocking(&mut a, TRIES).unwrap(), &b"last words"[..]);
        recv_until_dead(&mut a);
        assert!(a.is_closed());
    }
}
