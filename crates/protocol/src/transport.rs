//! Framed transports: an in-process channel pair and non-blocking TCP.
//!
//! The Moira server "runs as a single UNIX process … GDB, through the use
//! of BSD UNIX non-blocking I/O, allows the programmer to set up a single
//! process server which handles multiple simultaneous TCP connections"
//! (§5.4). The [`Channel`] trait exposes exactly the non-blocking
//! operations a readiness-driven server loop needs: `try_recv` never
//! blocks, `send` queues a frame into a **bounded-by-contract outbox**,
//! and `flush` opportunistically drains that outbox without ever blocking.
//!
//! Backpressure contract: `send` never blocks and never drops — it queues.
//! The *server* bounds memory by watching [`Channel::queued_bytes`]
//! against [`Channel::write_cap`] and pausing read interest for
//! connections whose peers stop draining replies (see
//! `moira-core::server`). Slow consumers therefore experience latency,
//! not disconnection, and the server's per-connection memory stays
//! bounded by `write_cap` plus one in-flight reply batch.
//!
//! Reactor visibility: every channel has a readiness fd,
//! [`Channel::raw_fd`] — the socket itself for TCP, a wake-pipe for
//! in-process channels (each queued frame is accompanied by a wake byte,
//! so a `polling::Poller` sees in-proc traffic exactly like socket
//! traffic). The trait has no provided methods: a wrapper that forgets to
//! forward the fd, the outbox depth or the cap does not compile. Unix
//! only, like the reactor it feeds.
//!
//! Frames are length-prefixed: `u32` big-endian payload length, then the
//! payload (a [`crate::wire`] encoding). Headers announcing more than
//! [`MAX_FRAME_LEN`] bytes are a protocol violation and poison the
//! connection — this bounds the *inbox* the same way `write_cap` bounds
//! the outbox.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

/// Raw readiness fd.
pub type RawFd = std::os::unix::io::RawFd;

/// Hard ceiling on a single frame's payload. A length prefix above this
/// is treated as a malformed/hostile header and kills the connection
/// rather than letting one peer balloon the server's reassembly buffer.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Default per-connection outbox cap in bytes. Above this the server
/// pauses the connection's read interest until the peer drains below the
/// low-water mark (`cap / 2`).
pub const DEFAULT_WRITE_CAP: usize = 256 * 1024;

/// A bidirectional, non-blocking framed byte channel.
pub trait Channel: Send {
    /// Queues one frame for the peer and opportunistically flushes. An
    /// error means the peer is gone (`MR_ABORTED` territory); a full OS
    /// buffer is *not* an error — the bytes wait in the outbox.
    fn send(&mut self, frame: Bytes) -> io::Result<()>;

    /// Receives one frame if available: `Ok(Some)` frame, `Ok(None)`
    /// nothing yet, `Err` connection dead.
    fn try_recv(&mut self) -> io::Result<Option<Bytes>>;

    /// True once the peer has closed.
    fn is_closed(&self) -> bool;

    /// Readiness fd for reactor registration: readable whenever
    /// `try_recv` has something to report (a frame, EOF, an error).
    fn raw_fd(&self) -> RawFd;

    /// Drains as much queued output as the OS will take without blocking.
    /// `Ok(true)` when the outbox is empty, `Ok(false)` when bytes remain
    /// (write interest should stay registered), `Err` when the peer died.
    fn flush(&mut self) -> io::Result<bool>;

    /// Bytes queued toward the peer and not yet accepted by the OS (TCP)
    /// or consumed by the peer (in-proc). The backpressure signal.
    fn queued_bytes(&self) -> usize;

    /// The outbox high-water mark this channel advertises to the server.
    fn write_cap(&self) -> usize;

    /// Overrides the outbox high-water mark (tests and benches).
    fn set_write_cap(&mut self, cap: usize);
}

/// In-process channel endpoint built on crossbeam queues, with a
/// Unix-socket wake pipe so a reactor can watch it like a TCP peer.
pub struct InProcChannel {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
    closed: bool,
    /// Bytes we queued that the peer has not consumed yet.
    out_depth: Arc<AtomicUsize>,
    /// Bytes the peer queued that we have not consumed yet (their
    /// `out_depth`); decremented by our `try_recv`.
    in_depth: Arc<AtomicUsize>,
    write_cap: usize,
    /// Readable whenever the peer has queued frames for us.
    wake_rx: UnixStream,
    /// Writing one byte here marks the peer's `wake_rx` readable.
    wake_tx: UnixStream,
}

/// Creates a connected pair of in-process channels.
pub fn pair() -> (InProcChannel, InProcChannel) {
    let (atx, arx) = unbounded();
    let (btx, brx) = unbounded();
    let a_depth = Arc::new(AtomicUsize::new(0));
    let b_depth = Arc::new(AtomicUsize::new(0));
    let ((a_wake_rx, a_wake_tx), (b_wake_rx, b_wake_tx)) = {
        let a = UnixStream::pair().expect("socketpair");
        let b = UnixStream::pair().expect("socketpair");
        for s in [&a.0, &a.1, &b.0, &b.1] {
            s.set_nonblocking(true).expect("nonblocking socketpair");
        }
        (a, b)
    };
    (
        InProcChannel {
            tx: atx,
            rx: brx,
            closed: false,
            out_depth: a_depth.clone(),
            in_depth: b_depth.clone(),
            write_cap: DEFAULT_WRITE_CAP,
            wake_rx: a_wake_rx,
            wake_tx: b_wake_tx,
        },
        InProcChannel {
            tx: btx,
            rx: arx,
            closed: false,
            out_depth: b_depth,
            in_depth: a_depth,
            write_cap: DEFAULT_WRITE_CAP,
            wake_rx: b_wake_rx,
            wake_tx: a_wake_tx,
        },
    )
}

impl InProcChannel {
    /// Drains pending wake bytes. EOF here only means the peer endpoint
    /// was dropped — queued frames must still drain, so closure is
    /// detected via the crossbeam queue, never via the wake pipe.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(n) if n > 0 => continue,
                _ => break,
            }
        }
    }
}

impl Channel for InProcChannel {
    fn send(&mut self, frame: Bytes) -> io::Result<()> {
        let len = frame.len();
        self.tx
            .send(frame)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
        self.out_depth.fetch_add(len, Ordering::Relaxed);
        // Wake the peer's reactor. WouldBlock means the pipe already holds
        // unconsumed wake bytes, so the peer is provably waking anyway;
        // any other failure means the peer endpoint is mid-teardown and
        // the Disconnected path will report it.
        let _ = self.wake_tx.write(&[1]);
        Ok(())
    }

    fn try_recv(&mut self) -> io::Result<Option<Bytes>> {
        match self.rx.try_recv() {
            Ok(frame) => {
                self.in_depth.fetch_sub(frame.len(), Ordering::Relaxed);
                Ok(Some(frame))
            }
            Err(TryRecvError::Empty) => {
                // The queue looked empty: retire the wake bytes observed so
                // far, then re-check. A peer that enqueues after the drain
                // writes its wake byte after it too (send orders queue
                // push before wake), so no wake-up can be lost.
                self.drain_wake();
                match self.rx.try_recv() {
                    Ok(frame) => {
                        self.in_depth.fetch_sub(frame.len(), Ordering::Relaxed);
                        Ok(Some(frame))
                    }
                    Err(TryRecvError::Empty) => Ok(None),
                    Err(TryRecvError::Disconnected) => {
                        self.closed = true;
                        Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
                    }
                }
            }
            Err(TryRecvError::Disconnected) => {
                self.closed = true;
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
            }
        }
    }

    fn is_closed(&self) -> bool {
        self.closed
    }

    fn raw_fd(&self) -> RawFd {
        self.wake_rx.as_raw_fd()
    }

    /// Nothing to drain: the queue hands frames straight to the peer.
    fn flush(&mut self) -> io::Result<bool> {
        Ok(true)
    }

    fn queued_bytes(&self) -> usize {
        self.out_depth.load(Ordering::Relaxed)
    }

    fn write_cap(&self) -> usize {
        self.write_cap
    }

    fn set_write_cap(&mut self, cap: usize) {
        self.write_cap = cap.max(1);
    }
}

/// A non-blocking TCP channel with incremental frame reassembly on the
/// read side and an elastic outbox on the write side.
pub struct TcpChannel {
    stream: TcpStream,
    inbox: Vec<u8>,
    /// Encoded (header + payload) bytes the OS has not accepted yet.
    outbox: VecDeque<u8>,
    closed: bool,
    write_cap: usize,
}

impl TcpChannel {
    /// Wraps a stream, switching it to non-blocking mode.
    pub fn new(stream: TcpStream) -> io::Result<TcpChannel> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(TcpChannel {
            stream,
            inbox: Vec::new(),
            outbox: VecDeque::new(),
            closed: false,
            write_cap: DEFAULT_WRITE_CAP,
        })
    }

    /// Connects to an address and wraps the stream.
    pub fn connect(addr: &str) -> io::Result<TcpChannel> {
        TcpChannel::new(TcpStream::connect(addr)?)
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
}

impl Channel for TcpChannel {
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
        self.pump()?;
        if self.inbox.len() < 4 {
            return if self.closed && self.inbox.is_empty() {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))
            } else {
                Ok(None)
            };
        }
        let len = u32::from_be_bytes(self.inbox[..4].try_into().expect("4 bytes")) as usize;
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

    fn write_cap(&self) -> usize {
        self.write_cap
    }

    fn set_write_cap(&mut self, cap: usize) {
        self.write_cap = cap.max(1);
    }
}

/// Blocks (with spinning politeness) until a frame arrives or `tries`
/// polls have elapsed — the client-side convenience for request/response
/// exchanges and for tests. Also keeps flushing the channel's outbox so a
/// request queued by a non-blocking `send` actually reaches the wire
/// while we wait for the reply.
pub fn recv_blocking(chan: &mut dyn Channel, tries: u32) -> io::Result<Bytes> {
    for i in 0..tries {
        if chan.queued_bytes() > 0 {
            chan.flush()?;
        }
        if let Some(frame) = chan.try_recv()? {
            return Ok(frame);
        }
        if i > 10 {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    Err(io::Error::new(io::ErrorKind::TimedOut, "no frame"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn inproc_round_trip() {
        let (mut a, mut b) = pair();
        a.send(Bytes::from_static(b"hello")).unwrap();
        a.send(Bytes::from_static(b"world")).unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(b.try_recv().unwrap().unwrap(), Bytes::from_static(b"world"));
        assert_eq!(b.try_recv().unwrap(), None);
        b.send(Bytes::from_static(b"back")).unwrap();
        assert_eq!(a.try_recv().unwrap().unwrap(), Bytes::from_static(b"back"));
    }

    #[test]
    fn inproc_detects_disconnect() {
        let (mut a, b) = pair();
        drop(b);
        assert!(a.send(Bytes::from_static(b"x")).is_err());
        assert!(a.try_recv().is_err());
        assert!(a.is_closed());
    }

    #[test]
    fn inproc_drains_queued_frames_after_peer_drop() {
        // Frames sent before the peer endpoint dropped must still arrive;
        // wake-pipe EOF is not the closure signal.
        let (mut a, mut b) = pair();
        a.send(Bytes::from_static(b"last words")).unwrap();
        drop(a);
        assert_eq!(
            b.try_recv().unwrap().unwrap(),
            Bytes::from_static(b"last words")
        );
        assert!(b.try_recv().is_err());
        assert!(b.is_closed());
    }

    #[test]
    fn inproc_wake_fd_tracks_queued_frames() {
        let (mut a, mut b) = pair();
        let fd = b.raw_fd();
        let poller = polling::Poller::new().unwrap();
        poller.add(fd, polling::Event::readable(1)).unwrap();
        let mut events = polling::Events::new();

        // Idle: nothing readable.
        let n = poller
            .wait(&mut events, Some(std::time::Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);

        a.send(Bytes::from_static(b"wake up")).unwrap();
        assert_eq!(a.queued_bytes(), 7);
        let n = poller
            .wait(&mut events, Some(std::time::Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1, "a queued frame marks the wake fd readable");

        // Draining the frame retires the wake byte and the depth counter.
        assert!(b.try_recv().unwrap().is_some());
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(a.queued_bytes(), 0);
        let n = poller
            .wait(&mut events, Some(std::time::Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn tcp_round_trip_with_partial_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut c = TcpChannel::connect(&addr.to_string()).unwrap();
            c.send(Bytes::from_static(b"ping")).unwrap();
            recv_blocking(&mut c, 1_000_000).unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::new(stream).unwrap();
        let got = recv_blocking(&mut server, 1_000_000).unwrap();
        assert_eq!(got, Bytes::from_static(b"ping"));
        server.send(Bytes::from_static(b"pong")).unwrap();
        while !server.flush().unwrap() {}
        assert_eq!(client.join().unwrap(), Bytes::from_static(b"pong"));
    }

    #[test]
    fn tcp_multiple_frames_in_one_read() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut c = TcpChannel::connect(&addr.to_string()).unwrap();
            for i in 0..10u8 {
                c.send(Bytes::copy_from_slice(&[i; 3])).unwrap();
            }
            while !c.flush().unwrap() {}
            // Keep the socket open until the reader is done.
            std::thread::sleep(std::time::Duration::from_millis(100));
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::new(stream).unwrap();
        for i in 0..10u8 {
            let frame = recv_blocking(&mut server, 1_000_000).unwrap();
            assert_eq!(frame, Bytes::copy_from_slice(&[i; 3]));
        }
        sender.join().unwrap();
    }

    #[test]
    fn tcp_detects_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let c = TcpChannel::connect(&addr.to_string()).unwrap();
            drop(c);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::new(stream).unwrap();
        t.join().unwrap();
        // Eventually the read side reports the close.
        let mut saw_close = false;
        for _ in 0..1_000_000 {
            match server.try_recv() {
                Err(_) => {
                    saw_close = true;
                    break;
                }
                Ok(None) if server.is_closed() => {
                    saw_close = true;
                    break;
                }
                Ok(_) => {}
            }
        }
        assert!(saw_close);
    }

    #[test]
    fn tcp_outbox_queues_past_socket_buffer_and_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::new(stream).unwrap();

        // Queue far more than loopback socket buffers hold; send must not
        // block and the overflow must land in the outbox.
        let frame = Bytes::from(vec![0xabu8; 512 * 1024]);
        for _ in 0..16 {
            server.send(frame.clone()).unwrap();
        }
        assert!(
            server.queued_bytes() > 0,
            "8 MiB cannot fit in the socket buffer; the outbox must hold the rest"
        );

        // A draining peer lets flush retire the outbox completely.
        let reader = std::thread::spawn(move || {
            let mut c = TcpChannel::new(client).unwrap();
            let mut total = 0usize;
            while total < 16 * 512 * 1024 {
                total += recv_blocking(&mut c, 10_000_000).unwrap().len();
            }
            total
        });
        for _ in 0..10_000_000 {
            if server.flush().unwrap() {
                break;
            }
        }
        assert_eq!(server.queued_bytes(), 0);
        assert_eq!(reader.join().unwrap(), 16 * 512 * 1024);
    }

    #[test]
    fn tcp_rejects_oversized_frame_header() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut server = TcpChannel::new(stream).unwrap();

        // A hostile header claiming a 2 GiB frame must poison the
        // connection instead of growing the inbox toward it.
        raw.write_all(&(2u32 << 30).to_be_bytes()).unwrap();
        raw.flush().unwrap();
        let mut saw_reject = false;
        for _ in 0..1_000_000 {
            match server.try_recv() {
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    saw_reject = true;
                    break;
                }
                Ok(None) => {}
                Ok(Some(_)) => panic!("bogus frame must not materialize"),
            }
        }
        assert!(saw_reject);
        assert!(server.is_closed());
    }

    #[test]
    fn write_cap_is_advertised_not_enforced_by_send() {
        // send never drops or errors on a full outbox; the cap is the
        // server's signal to stop *reading* from this peer.
        let (mut a, _b) = pair();
        a.set_write_cap(8);
        for _ in 0..4 {
            a.send(Bytes::from_static(b"0123456789")).unwrap();
        }
        assert_eq!(a.queued_bytes(), 40);
        assert!(a.queued_bytes() > a.write_cap());
    }
}
