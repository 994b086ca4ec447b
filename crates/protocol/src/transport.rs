//! The framed transport: one non-blocking stream channel, over TCP or over
//! an in-process socketpair.
//!
//! The Moira server "runs as a single UNIX process … GDB, through the use
//! of BSD UNIX non-blocking I/O, allows the programmer to set up a single
//! process server which handles multiple simultaneous TCP connections"
//! (§5.4). The [`Channel`] trait exposes exactly the non-blocking
//! operations a readiness-driven server loop needs: `try_recv` never
//! blocks and reads only when no complete frame is already buffered,
//! `queue` appends a frame to an elastic outbox without writing, and
//! `flush` — the one write path — drains that outbox as far as the OS
//! takes it without blocking. `send` is `queue` then `flush`. The server
//! queues every reply of a pass and flushes each connection once, so a
//! batch of replies costs one write, not one per frame; a client that
//! sends one request and waits for the answer calls `send`.
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
//! [`recv_blocking`] is the client side's one blocking call: it flushes,
//! takes a frame if one is there, and otherwise blocks in `poll(2)` on
//! the channel's fd until it is readable (or writable, while bytes are
//! queued) or the deadline passes — it never sleeps a fixed interval.
//!
//! Backpressure contract: `queue` and `send` never block and never drop.
//! The *server* bounds memory by watching [`Channel::queued_bytes`]
//! against its outbox cap and pausing read interest for connections whose
//! peers stop draining replies (see `moira-core::server`, which owns the
//! cap). Slow consumers therefore experience latency, not disconnection.
//!
//! Reactor visibility: a channel's readiness fd, [`Channel::raw_fd`], is
//! its stream. The trait's one provided method is `send`, built from two
//! required ones: a wrapper that forgets to forward the queue, the fd, the
//! flush or the outbox depth does not compile. Unix only, like the reactor
//! it feeds.
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
use std::time::{Duration, Instant};

use bytes::Bytes;
use polling::Event;

/// Raw readiness fd.
pub type RawFd = std::os::unix::io::RawFd;

/// Hard ceiling on a single frame's payload. A length prefix above this
/// is treated as a malformed/hostile header and kills the connection
/// rather than letting one peer balloon the server's reassembly buffer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// One quantum of [`recv_blocking`]'s deadline.
const TRY_QUANTUM: Duration = Duration::from_micros(200);

/// A bidirectional, non-blocking framed byte channel.
pub trait Channel: Send {
    /// Appends one frame to the outbox without writing; the next
    /// [`Channel::flush`] writes it with everything queued before it. An
    /// error means the peer is already known gone (`MR_ABORTED`
    /// territory).
    fn queue(&mut self, frame: Bytes) -> io::Result<()>;

    /// Queues one frame and flushes. A full OS buffer is *not* an error —
    /// the bytes wait in the outbox for the next flush.
    fn send(&mut self, frame: Bytes) -> io::Result<()> {
        self.queue(frame)?;
        self.flush().map(drop)
    }

    /// Receives one frame if available: `Ok(Some)` frame, `Ok(None)`
    /// nothing yet on a live connection, `Err` connection dead — reported
    /// only after every complete frame that arrived before the peer died
    /// has come out. Reads from the OS only when no complete frame is
    /// already buffered.
    fn try_recv(&mut self) -> io::Result<Option<Bytes>>;

    /// True once the peer has closed.
    fn is_closed(&self) -> bool;

    /// Readiness fd for reactor registration: readable whenever
    /// `try_recv` has something to report (a frame, EOF, an error),
    /// writable whenever `flush` can make progress.
    fn raw_fd(&self) -> RawFd;

    /// The write path: drains as much queued output as the OS will take
    /// without blocking. `Ok(true)` when the outbox is empty, `Ok(false)`
    /// when bytes remain (write interest should stay registered), `Err`
    /// when the peer died.
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
    fn queue(&mut self, frame: Bytes) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
        }
        self.outbox.extend(&(frame.len() as u32).to_be_bytes());
        self.outbox.extend(&frame[..]);
        Ok(())
    }

    fn try_recv(&mut self) -> io::Result<Option<Bytes>> {
        if let Some(frame) = self.take_frame()? {
            return Ok(Some(frame));
        }
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
            // Contiguous, so a flush is one write while the OS keeps up.
            match self.stream.write(self.outbox.make_contiguous()) {
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

/// Receives one frame, waiting up to `tries` quanta of 200 µs (one
/// deadline, fixed on entry) — the client-side convenience for
/// request/response exchanges and for tests. Flushes the outbox first, so
/// queued requests reach the wire, then blocks in `poll(2)` on the
/// channel's fd (readable, and writable while bytes stay queued) between
/// attempts. A fd `poll(2)` cannot watch, or one with an error pending,
/// ends the wait at once with an error — after any frame that arrived
/// ahead of it.
pub fn recv_blocking(chan: &mut dyn Channel, tries: u32) -> io::Result<Bytes> {
    moira_common::lockorder::assert_may_block("recv_blocking");
    let deadline = Instant::now() + TRY_QUANTUM * tries;
    loop {
        if chan.queued_bytes() > 0 {
            chan.flush()?;
        }
        if let Some(frame) = chan.try_recv()? {
            return Ok(frame);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "no frame"));
        }
        let interest = Event {
            key: 0,
            readable: true,
            writable: chan.queued_bytes() > 0,
        };
        if let Err(e) = polling::wait_fd(chan.raw_fd(), interest, Some(left)) {
            // A frame that arrived ahead of the error still comes out.
            return chan.try_recv()?.ok_or(e);
        }
    }
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
        // A reader blocked in poll(2) wakes on the peer's send; frames
        // queued on its own side leave when it starts waiting.
        b.queue(Bytes::from_static(b"queued")).unwrap();
        let echo = std::thread::spawn(move || recv_blocking(&mut b, TRIES).unwrap());
        assert_eq!(recv_blocking(&mut a, TRIES).unwrap(), &b"queued"[..]);
        a.send(Bytes::from_static(b"again")).unwrap();
        assert_eq!(echo.join().unwrap(), &b"again"[..]);
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

    /// A socketpair end that counts the `read` and `write` calls made on it.
    struct Counted {
        inner: UnixStream,
        reads: usize,
        writes: usize,
    }

    impl Read for Counted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    impl Write for Counted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.inner.write(buf)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl AsRawFd for Counted {
        fn as_raw_fd(&self) -> RawFd {
            self.inner.as_raw_fd()
        }
    }

    /// A counted channel and the raw, blocking stream of its peer.
    fn counted_pair() -> (StreamChannel<Counted>, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let counted = Counted {
            inner: a,
            reads: 0,
            writes: 0,
        };
        (StreamChannel::over(counted), b)
    }

    #[test]
    fn queue_never_writes_and_one_flush_is_one_write() {
        let (mut chan, mut peer) = counted_pair();
        chan.queue(Bytes::from_static(b"one")).unwrap();
        assert_eq!(chan.stream.writes, 0, "queue must not write");
        assert_eq!(chan.queued_bytes(), 4 + 3);
        for _ in 1..10 {
            chan.queue(Bytes::from_static(b"one")).unwrap();
        }
        assert!(chan.flush().unwrap());
        assert_eq!(chan.stream.writes, 1, "ten queued frames, one write");
        chan.send(Bytes::from_static(b"two")).unwrap();
        assert_eq!(chan.stream.writes, 2, "send is queue, then one write");
        assert_eq!(chan.queued_bytes(), 0);
        let mut wire = [0u8; 77];
        peer.read_exact(&mut wire).unwrap();
        assert_eq!(wire[..7], [0, 0, 0, 3, b'o', b'n', b'e']);
        assert_eq!(wire[70..], [0, 0, 0, 3, b't', b'w', b'o']);
    }

    #[test]
    fn draining_frames_from_one_peer_write_reads_at_most_twice() {
        let (mut chan, mut peer) = counted_pair();
        let mut wire = Vec::new();
        for i in 0..10u8 {
            wire.extend_from_slice(&1u32.to_be_bytes());
            wire.push(i);
        }
        peer.write_all(&wire).unwrap();
        for i in 0..10u8 {
            assert_eq!(chan.try_recv().unwrap().unwrap(), &[i][..]);
        }
        // One read takes all ten frames, a second finds the socket empty;
        // the other nine come out of the inbox.
        assert!(chan.stream.reads <= 2, "{} reads", chan.stream.reads);
    }

    /// A channel whose readiness fd no `poll(2)` can watch.
    struct BadFd(InProcChannel);

    impl Channel for BadFd {
        fn queue(&mut self, frame: Bytes) -> io::Result<()> {
            self.0.queue(frame)
        }
        fn try_recv(&mut self) -> io::Result<Option<Bytes>> {
            self.0.try_recv()
        }
        fn is_closed(&self) -> bool {
            self.0.is_closed()
        }
        fn raw_fd(&self) -> RawFd {
            -1
        }
        fn flush(&mut self) -> io::Result<bool> {
            self.0.flush()
        }
        fn queued_bytes(&self) -> usize {
            self.0.queued_bytes()
        }
    }

    #[test]
    fn a_bad_fd_is_an_error_not_a_wait() {
        let (chan, _peer) = pair();
        // A one-second deadline: waiting it out is the failure.
        let err = recv_blocking(&mut BadFd(chan), 5_000).unwrap_err();
        assert_ne!(
            err.kind(),
            io::ErrorKind::TimedOut,
            "waited out the deadline"
        );
    }
}
