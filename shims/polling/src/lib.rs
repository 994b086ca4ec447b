//! Offline shim for the `polling` crate: OS readiness polling behind one
//! API. Unix only — every backend below is a Unix selector, and the build
//! refuses any other target rather than offering a poller that cannot open.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the subset the connection tier uses: a [`Poller`] with
//! `add`/`modify`/`delete` interest registration, a blocking-with-timeout
//! [`Poller::wait`] collecting ready [`Event`]s, and a thread-safe
//! [`Poller::notify`] waker. Everything is **level-triggered**: a fd stays
//! ready until the condition is drained, which is what a
//! classify-then-dispatch server loop wants.
//!
//! Backends (all through direct `extern "C"` declarations against the
//! platform libc that std already links — the offline-deps rule holds):
//!
//! - **epoll** on Linux (the default there),
//! - **kqueue** on macOS and the BSDs,
//! - **poll(2)** everywhere else on Unix, and on Linux when
//!   `MOIRA_POLL_BACKEND=poll` is set (so CI exercises the fallback on the
//!   same host that runs the epoll path).
//!
//! The waker is a non-blocking `UnixStream` pair registered under a
//! reserved key; `notify` writes one byte, `wait` drains and swallows it.

#![warn(missing_docs)]

#[cfg(not(target_family = "unix"))]
compile_error!("the connection tier needs a Unix readiness selector (epoll, kqueue or poll(2))");

pub use unix_impl::Poller;

/// Raw file descriptor type (`std::os::unix::io::RawFd`).
pub type RawFd = std::os::unix::io::RawFd;

/// Interest in, or readiness of, one registered source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Caller-chosen key identifying the source in [`Poller::wait`] results.
    pub key: usize,
    /// Interested in / ready for reading.
    pub readable: bool,
    /// Interested in / ready for writing.
    pub writable: bool,
}

impl Event {
    /// Read interest only.
    pub fn readable(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Write interest only.
    pub fn writable(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Both read and write interest.
    pub fn all(key: usize) -> Event {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }

    /// Registered but interested in nothing (parked source).
    pub fn none(key: usize) -> Event {
        Event {
            key,
            readable: false,
            writable: false,
        }
    }
}

/// Reusable buffer of ready events filled by [`Poller::wait`].
#[derive(Debug, Default)]
pub struct Events {
    inner: Vec<Event>,
}

impl Events {
    /// An empty buffer.
    pub fn new() -> Events {
        Events { inner: Vec::new() }
    }

    /// Ready events from the last wait.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.inner.iter()
    }

    /// Number of ready events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Clears the buffer (wait does this implicitly).
    pub fn clear(&mut self) {
        self.inner.clear();
    }

    fn push(&mut self, ev: Event) {
        self.inner.push(ev);
    }
}

mod sys {
    //! The `extern "C"` surface and shared constants.

    use std::os::raw::{c_int, c_ulong};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    /// `fcntl` command reading the descriptor flags — the cheapest call
    /// that fails with `EBADF` on a closed fd.
    pub const F_GETFD: c_int = 1;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    }

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use std::os::raw::c_int;

        pub const EPOLL_CLOEXEC: c_int = 0o2000000;
        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;

        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout: c_int,
            ) -> c_int;
        }
    }

    #[cfg(any(
        target_os = "macos",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    ))]
    pub mod kqueue {
        use std::os::raw::{c_int, c_long, c_void};

        pub const EVFILT_READ: i16 = -1;
        pub const EVFILT_WRITE: i16 = -2;
        pub const EV_ADD: u16 = 0x0001;
        pub const EV_DELETE: u16 = 0x0002;

        #[repr(C)]
        pub struct Timespec {
            pub tv_sec: c_long,
            pub tv_nsec: c_long,
        }

        #[repr(C)]
        pub struct KEvent {
            pub ident: usize,
            pub filter: i16,
            pub flags: u16,
            pub fflags: u32,
            pub data: isize,
            pub udata: *mut c_void,
        }

        extern "C" {
            pub fn kqueue() -> c_int;
            pub fn kevent(
                kq: c_int,
                changelist: *const KEvent,
                nchanges: c_int,
                eventlist: *mut KEvent,
                nevents: c_int,
                timeout: *const Timespec,
            ) -> c_int;
        }
    }
}

mod unix_impl {
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::os::unix::net::UnixStream;
    use std::sync::Mutex;
    use std::time::Duration;

    use crate::sys;
    use crate::{Event, Events};

    /// Key reserved for the internal notify pipe; never surfaced.
    const NOTIFY_KEY: usize = usize::MAX;

    /// How many raw OS events one wait call collects at most.
    const WAIT_BATCH: usize = 1024;

    enum Backend {
        #[cfg(target_os = "linux")]
        Epoll { epfd: RawFd },
        #[cfg(any(
            target_os = "macos",
            target_os = "freebsd",
            target_os = "netbsd",
            target_os = "openbsd"
        ))]
        Kqueue { kq: RawFd },
        /// Portable fallback: interest kept in-process, `poll(2)` per wait.
        Poll {
            interest: Mutex<HashMap<RawFd, Event>>,
        },
    }

    /// A readiness poller over one OS selector instance.
    ///
    /// Thread-safety: `add`/`modify`/`delete`/`notify` may be called from
    /// any thread; `wait` is intended for the single reactor thread.
    pub struct Poller {
        backend: Backend,
        /// Waker pipe: `notify` writes to `.1`, `wait` drains `.0`.
        wake_rx: Mutex<UnixStream>,
        wake_tx: Mutex<UnixStream>,
    }

    fn millis(timeout: Option<Duration>) -> i32 {
        match timeout {
            None => -1,
            // Round up so a 100µs request does not busy-spin at 0ms.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as i32
                    + i32::from(d.subsec_nanos() % 1_000_000 != 0)
            }
        }
    }

    impl Poller {
        /// Opens a poller on the platform's best backend.
        ///
        /// On Linux, `MOIRA_POLL_BACKEND=poll` selects the portable
        /// `poll(2)` fallback so the same host can exercise both paths.
        pub fn new() -> io::Result<Poller> {
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            let backend = Self::open_backend()?;
            let poller = Poller {
                backend,
                wake_rx: Mutex::new(wake_rx),
                wake_tx: Mutex::new(wake_tx),
            };
            let rx_fd = poller.wake_rx.lock().expect("wake pipe").as_raw_fd();
            poller.add(rx_fd, Event::readable(NOTIFY_KEY))?;
            Ok(poller)
        }

        #[cfg(target_os = "linux")]
        fn open_backend() -> io::Result<Backend> {
            if std::env::var("MOIRA_POLL_BACKEND").as_deref() == Ok("poll") {
                return Ok(Backend::Poll {
                    interest: Mutex::new(HashMap::new()),
                });
            }
            let epfd = unsafe { sys::epoll::epoll_create1(sys::epoll::EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend::Epoll { epfd })
        }

        #[cfg(any(
            target_os = "macos",
            target_os = "freebsd",
            target_os = "netbsd",
            target_os = "openbsd"
        ))]
        fn open_backend() -> io::Result<Backend> {
            let kq = unsafe { sys::kqueue::kqueue() };
            if kq < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Backend::Kqueue { kq })
        }

        #[cfg(not(any(
            target_os = "linux",
            target_os = "macos",
            target_os = "freebsd",
            target_os = "netbsd",
            target_os = "openbsd"
        )))]
        fn open_backend() -> io::Result<Backend> {
            Ok(Backend::Poll {
                interest: Mutex::new(HashMap::new()),
            })
        }

        /// Registers `fd` with the given interest.
        pub fn add(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            self.ctl(fd, ev, true)
        }

        /// Replaces the interest of an already-registered `fd`.
        pub fn modify(&self, fd: RawFd, ev: Event) -> io::Result<()> {
            self.ctl(fd, ev, false)
        }

        /// Deregisters `fd`.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            match &self.backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll { epfd } => {
                    use sys::epoll::*;
                    let mut raw = EpollEvent { events: 0, data: 0 };
                    if unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, fd, &mut raw) } < 0 {
                        return Err(io::Error::last_os_error());
                    }
                    Ok(())
                }
                #[cfg(any(
                    target_os = "macos",
                    target_os = "freebsd",
                    target_os = "netbsd",
                    target_os = "openbsd"
                ))]
                Backend::Kqueue { kq } => {
                    // Best effort: a filter that was never added reports
                    // ENOENT, which deregistration can ignore.
                    let _ = kq_change(*kq, fd, sys::kqueue::EVFILT_READ, sys::kqueue::EV_DELETE, 0);
                    let _ = kq_change(
                        *kq,
                        fd,
                        sys::kqueue::EVFILT_WRITE,
                        sys::kqueue::EV_DELETE,
                        0,
                    );
                    Ok(())
                }
                Backend::Poll { interest } => {
                    interest.lock().expect("interest map").remove(&fd);
                    Ok(())
                }
            }
        }

        fn ctl(&self, fd: RawFd, ev: Event, adding: bool) -> io::Result<()> {
            match &self.backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll { epfd } => {
                    use sys::epoll::*;
                    let mut bits = 0u32;
                    if ev.readable {
                        bits |= EPOLLIN;
                    }
                    if ev.writable {
                        bits |= EPOLLOUT;
                    }
                    let mut raw = EpollEvent {
                        events: bits,
                        data: ev.key as u64,
                    };
                    let op = if adding { EPOLL_CTL_ADD } else { EPOLL_CTL_MOD };
                    if unsafe { epoll_ctl(*epfd, op, fd, &mut raw) } < 0 {
                        return Err(io::Error::last_os_error());
                    }
                    Ok(())
                }
                #[cfg(any(
                    target_os = "macos",
                    target_os = "freebsd",
                    target_os = "netbsd",
                    target_os = "openbsd"
                ))]
                Backend::Kqueue { kq } => {
                    use sys::kqueue::*;
                    let _ = adding;
                    // kqueue has per-filter registration; express interest
                    // as add/delete of each filter.
                    for (filter, on) in [(EVFILT_READ, ev.readable), (EVFILT_WRITE, ev.writable)] {
                        if on {
                            kq_change(*kq, fd, filter, EV_ADD, ev.key)?;
                        } else {
                            let _ = kq_change(*kq, fd, filter, EV_DELETE, ev.key);
                        }
                    }
                    Ok(())
                }
                Backend::Poll { interest } => {
                    // poll(2) reports a closed fd per wait (POLLNVAL), not
                    // at registration; refuse it here like epoll and
                    // kqueue do, so `add` means the same on every backend.
                    if adding && unsafe { sys::fcntl(fd, sys::F_GETFD) } < 0 {
                        return Err(io::Error::last_os_error());
                    }
                    interest.lock().expect("interest map").insert(fd, ev);
                    Ok(())
                }
            }
        }

        /// Blocks until at least one registered source is ready, the
        /// timeout elapses, or [`Poller::notify`] is called. Fills `events`
        /// (cleared first) and returns how many events it holds. A
        /// signal-interrupted wait returns 0 like a timeout.
        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            events.clear();
            let mut woken = false;
            match &self.backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll { epfd } => {
                    use sys::epoll::*;
                    let mut raw = [EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
                    let n = unsafe {
                        epoll_wait(*epfd, raw.as_mut_ptr(), WAIT_BATCH as i32, millis(timeout))
                    };
                    if n < 0 {
                        let e = io::Error::last_os_error();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(0);
                        }
                        return Err(e);
                    }
                    for r in raw.iter().take(n as usize) {
                        let bits = r.events;
                        let key = r.data as usize;
                        if key == NOTIFY_KEY {
                            woken = true;
                            continue;
                        }
                        events.push(Event {
                            key,
                            // Errors and hangups surface as readable so the
                            // owner reads, sees EOF/err, and cleans up.
                            readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0,
                            writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                        });
                    }
                }
                #[cfg(any(
                    target_os = "macos",
                    target_os = "freebsd",
                    target_os = "netbsd",
                    target_os = "openbsd"
                ))]
                Backend::Kqueue { kq } => {
                    use sys::kqueue::*;
                    let ts;
                    let ts_ptr = match timeout {
                        None => std::ptr::null(),
                        Some(d) => {
                            ts = Timespec {
                                tv_sec: d.as_secs() as _,
                                tv_nsec: d.subsec_nanos() as _,
                            };
                            &ts as *const Timespec
                        }
                    };
                    let mut raw: Vec<KEvent> = Vec::with_capacity(WAIT_BATCH);
                    let n = unsafe {
                        kevent(
                            *kq,
                            std::ptr::null(),
                            0,
                            raw.as_mut_ptr(),
                            WAIT_BATCH as i32,
                            ts_ptr,
                        )
                    };
                    if n < 0 {
                        let e = io::Error::last_os_error();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(0);
                        }
                        return Err(e);
                    }
                    unsafe { raw.set_len(n as usize) };
                    for r in &raw {
                        let key = r.udata as usize;
                        if key == NOTIFY_KEY {
                            woken = true;
                            continue;
                        }
                        events.push(Event {
                            key,
                            readable: r.filter == EVFILT_READ,
                            writable: r.filter == EVFILT_WRITE,
                        });
                    }
                }
                Backend::Poll { interest } => {
                    let fds: Vec<(RawFd, Event)> = {
                        let map = interest.lock().expect("interest map");
                        map.iter().map(|(fd, ev)| (*fd, *ev)).collect()
                    };
                    let mut pollfds: Vec<sys::PollFd> = fds
                        .iter()
                        .map(|(fd, ev)| sys::PollFd {
                            fd: *fd,
                            events: (if ev.readable { sys::POLLIN } else { 0 })
                                | (if ev.writable { sys::POLLOUT } else { 0 }),
                            revents: 0,
                        })
                        .collect();
                    let n = unsafe {
                        sys::poll(pollfds.as_mut_ptr(), pollfds.len() as _, millis(timeout))
                    };
                    if n < 0 {
                        let e = io::Error::last_os_error();
                        if e.kind() == io::ErrorKind::Interrupted {
                            return Ok(0);
                        }
                        return Err(e);
                    }
                    for (pfd, (_, ev)) in pollfds.iter().zip(&fds) {
                        if pfd.revents == 0 {
                            continue;
                        }
                        if ev.key == NOTIFY_KEY {
                            woken = true;
                            continue;
                        }
                        let err = pfd.revents & (sys::POLLERR | sys::POLLHUP) != 0;
                        events.push(Event {
                            key: ev.key,
                            readable: pfd.revents & sys::POLLIN != 0 || err,
                            writable: pfd.revents & sys::POLLOUT != 0 || err,
                        });
                    }
                }
            }
            if woken {
                let mut buf = [0u8; 64];
                let mut rx = self.wake_rx.lock().expect("wake pipe");
                while matches!(rx.read(&mut buf), Ok(n) if n > 0) {}
            }
            Ok(events.len())
        }

        /// Wakes a concurrent [`Poller::wait`] from any thread. Coalesces:
        /// many notifies before the next wait cost one wake-up.
        pub fn notify(&self) -> io::Result<()> {
            let mut tx = self.wake_tx.lock().expect("wake pipe");
            match tx.write(&[1]) {
                Ok(_) => Ok(()),
                // A full pipe already guarantees the next wait wakes.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
                Err(e) => Err(e),
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            match &self.backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll { epfd } => unsafe {
                    sys::close(*epfd);
                },
                #[cfg(any(
                    target_os = "macos",
                    target_os = "freebsd",
                    target_os = "netbsd",
                    target_os = "openbsd"
                ))]
                Backend::Kqueue { kq } => unsafe {
                    sys::close(*kq);
                },
                Backend::Poll { .. } => {}
            }
        }
    }

    #[cfg(any(
        target_os = "macos",
        target_os = "freebsd",
        target_os = "netbsd",
        target_os = "openbsd"
    ))]
    fn kq_change(kq: RawFd, fd: RawFd, filter: i16, flags: u16, key: usize) -> io::Result<()> {
        use sys::kqueue::*;
        let change = KEvent {
            ident: fd as usize,
            filter,
            flags,
            fflags: 0,
            data: 0,
            udata: key as *mut std::os::raw::c_void,
        };
        let n = unsafe { kevent(kq, &change, 1, std::ptr::null_mut(), 0, std::ptr::null()) };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    fn pair_nonblocking() -> (UnixStream, UnixStream) {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn readiness_round_trip() {
        let poller = Poller::new().unwrap();
        let (mut a, mut b) = pair_nonblocking();
        poller.add(b.as_raw_fd(), Event::readable(7)).unwrap();
        let mut events = Events::new();

        // Nothing ready: a zero timeout returns promptly with no events.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);

        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let ev = events.iter().next().unwrap();
        assert_eq!(ev.key, 7);
        assert!(ev.readable);

        // Level-triggered: still ready until drained.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn write_interest_and_modify() {
        let poller = Poller::new().unwrap();
        let (a, _b) = pair_nonblocking();
        // A fresh socket is writable immediately.
        poller.add(a.as_raw_fd(), Event::writable(3)).unwrap();
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events.iter().next().unwrap().writable);
        // Parking the source silences it.
        poller.modify(a.as_raw_fd(), Event::none(3)).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0);
        poller.delete(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_reports_readable() {
        let poller = Poller::new().unwrap();
        let (a, b) = pair_nonblocking();
        poller.add(b.as_raw_fd(), Event::readable(9)).unwrap();
        drop(a);
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(
            events.iter().next().unwrap().readable,
            "EOF must surface as readable so the owner can clean up"
        );
    }

    #[test]
    fn notify_wakes_a_blocked_wait() {
        use std::sync::Arc;
        let poller = Arc::new(Poller::new().unwrap());
        let waker = poller.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.notify().unwrap();
        });
        let mut events = Events::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert_eq!(n, 0, "the notify event itself is swallowed");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "wait returned on notify, not timeout"
        );
        t.join().unwrap();
    }

    #[test]
    fn timeout_elapses() {
        let poller = Poller::new().unwrap();
        let mut events = Events::new();
        let t0 = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert_eq!(n, 0);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        // A 100µs timeout must not become a 0ms busy-spin.
        let poller = Poller::new().unwrap();
        let mut events = Events::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_micros(100)))
            .unwrap();
        assert_eq!(n, 0);
    }
}
