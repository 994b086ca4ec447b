//! Runs a [`MoiraServer`] loop on a background thread so blocking clients
//! can talk to it from the same process.
//!
//! The production deployment runs the server as its own UNIX process; for
//! tests, examples, and the simulator we host it on a thread. New
//! connections are handed to the loop through a channel, preserving the
//! single-threaded, non-blocking character of the server itself.
//!
//! The loop is event-driven: between passes it blocks in the server's
//! reactor wait instead of sleeping a fixed interval, and the handle's
//! [`moira_core::Waker`] interrupts that wait whenever a command (attach,
//! stop) is enqueued — idle costs no CPU and commands take effect
//! immediately rather than on the next tick.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use moira_core::server::MoiraServer;
use moira_core::Waker;
use moira_protocol::transport::{pair, Channel};

use crate::conn::RpcClient;

/// Fallback wait bound per pass: how stale a command can go if the waker
/// notification is ever lost. Wakers make delivery immediate; this only
/// caps the worst case.
const COMMAND_TICK: Duration = Duration::from_millis(25);

enum Command {
    Attach(Box<dyn Channel>),
}

/// Handle on a server loop running on a background thread.
pub struct ServerThread {
    commands: Sender<Command>,
    waker: Waker,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<MoiraServer>>,
}

impl ServerThread {
    /// Spawns the loop.
    pub fn spawn(mut server: MoiraServer) -> ServerThread {
        let (tx, rx) = channel::<Command>();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let waker = server.waker();
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::SeqCst) {
                while let Ok(Command::Attach(chan)) = rx.try_recv() {
                    server.attach(chan, "local", 0);
                }
                // Blocks in the reactor wait until traffic, a waker
                // notification (attach/stop), or the fallback tick.
                server.poll_with_timeout(Some(COMMAND_TICK));
            }
            server
        });
        ServerThread {
            commands: tx,
            waker,
            stop,
            handle: Some(handle),
        }
    }

    /// Creates a new in-process connection to the running server.
    pub fn connect(&self) -> RpcClient {
        let (client_end, server_end) = pair();
        self.commands
            .send(Command::Attach(Box::new(server_end)))
            .expect("server thread alive");
        self.waker.wake();
        RpcClient::connect(Box::new(client_end))
    }

    /// Stops the loop and returns the server.
    pub fn shutdown(mut self) -> MoiraServer {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.handle
            .take()
            .expect("not yet joined")
            .join()
            .expect("server thread")
    }
}

impl Drop for ServerThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::MoiraConn;
    use moira_core::schema::{machine, members};
    use moira_core::server::standard_server;

    #[test]
    fn multiple_concurrent_clients() {
        let (server, state, _) = standard_server(moira_common::VClock::new());
        {
            let mut s = state.write();
            let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
            s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
                .unwrap();
        }
        let thread = ServerThread::spawn(server);
        let mut handles = Vec::new();
        for i in 0..8 {
            let mut client = thread.connect();
            handles.push(std::thread::spawn(move || {
                client.auth("ops", "stress").unwrap();
                client
                    .query("add_machine", &[&format!("BOX{i}"), "VAX"], &mut |_| {})
                    .unwrap();
                client.noop().unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let server = thread.shutdown();
        let s = server.state();
        let count = s.read().db.table(machine::T).len();
        assert_eq!(count, 8);
    }

    #[test]
    fn shutdown_interrupts_a_blocked_wait_promptly() {
        // With no traffic the loop sits in the reactor wait; the waker
        // must bring it down in far less time than a sleep-loop would.
        let (server, _state, _) = standard_server(moira_common::VClock::new());
        let thread = ServerThread::spawn(server);
        std::thread::sleep(Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        let _server = thread.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown waited on a sleeping loop"
        );
    }
}
