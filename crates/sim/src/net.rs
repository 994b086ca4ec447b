//! The deterministic fault-injecting network fabric.
//!
//! Every DCM→host update connection (and, via [`FaultyChannel`], any
//! client→server channel) can be routed through a [`NetFabric`]: a
//! per-link table of partitions, drop probabilities, and latency, driven
//! by a seeded RNG and the shared virtual clock. The same seed and the
//! same schedule of operations produce the same faults, which is what lets
//! the E8 convergence matrix assert exact end states under partition,
//! packet loss, and healing.

use std::collections::HashMap;
use std::sync::Arc;

use moira_common::clock::VClock;
use moira_common::rng::Mt;
use moira_dcm::net::{NetFault, Network};
use moira_protocol::transport::Channel;
use parking_lot::Mutex;

/// Fault configuration of one link (Moira ↔ one named host).
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Partitioned until this virtual time (`i64::MAX` = until healed).
    partitioned_until: Option<i64>,
    /// Probability each leg is lost in transit.
    drop_prob: f64,
    /// Virtual seconds each data-bearing leg takes.
    latency_secs: i64,
}

/// Counters the fabric keeps per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Connection attempts seen.
    pub connects: u64,
    /// Data-bearing legs seen.
    pub transmits: u64,
    /// Legs refused because the link was partitioned.
    pub partitions_hit: u64,
    /// Legs lost to the drop probability.
    pub drops: u64,
}

struct Inner {
    rng: Mt,
    links: HashMap<String, LinkState>,
    /// Per-rack fault domains: a rack's state applies to every host
    /// assigned to it, on top of the host's own link state.
    racks: HashMap<String, LinkState>,
    host_rack: HashMap<String, String>,
    stats: FabricStats,
}

/// The simulated network between Moira and every host.
pub struct NetFabric {
    clock: VClock,
    inner: Mutex<Inner>,
}

impl NetFabric {
    /// A fabric with no faults configured, rolling its drop dice from
    /// `seed`.
    pub fn new(clock: VClock, seed: u64) -> NetFabric {
        NetFabric {
            clock,
            inner: Mutex::new(Inner {
                rng: Mt::new(seed),
                links: HashMap::new(),
                racks: HashMap::new(),
                host_rack: HashMap::new(),
                stats: FabricStats::default(),
            }),
        }
    }

    /// Partitions the link to `host` until [`NetFabric::heal`].
    pub fn partition(&self, host: &str) {
        self.partition_until(host, i64::MAX);
    }

    /// Partitions the link to `host` until virtual time `until` — the
    /// partition heals by itself when the clock passes it.
    pub fn partition_until(&self, host: &str, until: i64) {
        let mut inner = self.inner.lock();
        inner
            .links
            .entry(host.to_owned())
            .or_default()
            .partitioned_until = Some(until);
    }

    /// Heals any partition on the link to `host`.
    pub fn heal(&self, host: &str) {
        let mut inner = self.inner.lock();
        if let Some(link) = inner.links.get_mut(host) {
            link.partitioned_until = None;
        }
    }

    /// Sets the probability that any leg to `host` is lost in transit.
    pub fn set_drop_prob(&self, host: &str, p: f64) {
        let mut inner = self.inner.lock();
        inner.links.entry(host.to_owned()).or_default().drop_prob = p.clamp(0.0, 1.0);
    }

    /// Sets the virtual seconds each data-bearing leg to `host` takes (the
    /// clock advances by this much per transmit).
    pub fn set_latency(&self, host: &str, secs: i64) {
        let mut inner = self.inner.lock();
        inner.links.entry(host.to_owned()).or_default().latency_secs = secs.max(0);
    }

    /// True if the link to `host` is partitioned right now (its own link
    /// or its rack's uplink).
    pub fn is_partitioned(&self, host: &str) -> bool {
        let now = self.clock.now();
        let inner = self.inner.lock();
        let gone = |l: &LinkState| l.partitioned_until.is_some_and(|until| now < until);
        inner.links.get(host).is_some_and(gone)
            || inner
                .host_rack
                .get(host)
                .and_then(|r| inner.racks.get(r))
                .is_some_and(gone)
    }

    /// Assigns `host` to rack `rack`'s fault domain (replacing any prior
    /// assignment). Rack faults stack on top of the host's own link.
    pub fn assign_rack(&self, host: &str, rack: &str) {
        let mut inner = self.inner.lock();
        inner.host_rack.insert(host.to_owned(), rack.to_owned());
        inner.racks.entry(rack.to_owned()).or_default();
    }

    /// Partitions a whole rack's uplink until [`NetFabric::heal_rack`].
    pub fn partition_rack(&self, rack: &str) {
        let mut inner = self.inner.lock();
        inner
            .racks
            .entry(rack.to_owned())
            .or_default()
            .partitioned_until = Some(i64::MAX);
    }

    /// Heals a rack's uplink.
    pub fn heal_rack(&self, rack: &str) {
        let mut inner = self.inner.lock();
        if let Some(rack) = inner.racks.get_mut(rack) {
            rack.partitioned_until = None;
        }
    }

    /// Sets the probability that any leg into `rack` is lost on the rack
    /// uplink — rolled independently of the per-host drop dice.
    pub fn set_rack_drop_prob(&self, rack: &str, p: f64) {
        let mut inner = self.inner.lock();
        inner.racks.entry(rack.to_owned()).or_default().drop_prob = p.clamp(0.0, 1.0);
    }

    /// True if `rack`'s uplink is partitioned right now.
    pub fn is_rack_partitioned(&self, rack: &str) -> bool {
        let now = self.clock.now();
        let inner = self.inner.lock();
        inner
            .racks
            .get(rack)
            .and_then(|l| l.partitioned_until)
            .is_some_and(|until| now < until)
    }

    /// The fabric's counters so far.
    pub fn stats(&self) -> FabricStats {
        self.inner.lock().stats
    }

    /// One fault roll for one leg to `host`; advances the clock by the
    /// link's latency when the leg goes through.
    fn roll(&self, host: &str, connecting: bool) -> Result<(), NetFault> {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        if connecting {
            inner.stats.connects += 1;
        } else {
            inner.stats.transmits += 1;
        }
        let link = inner.links.get(host).copied().unwrap_or_default();
        // The rack domain stacks on the host's own link. Hosts with no
        // rack (or a fault-free rack) roll exactly the dice they always
        // did, preserving seed determinism for existing schedules.
        let rack = inner
            .host_rack
            .get(host)
            .and_then(|r| inner.racks.get(r))
            .copied()
            .unwrap_or_default();
        let gone = |l: &LinkState| l.partitioned_until.is_some_and(|until| now < until);
        if gone(&link) || gone(&rack) {
            inner.stats.partitions_hit += 1;
            return Err(NetFault::Partitioned);
        }
        for prob in [link.drop_prob, rack.drop_prob] {
            if prob > 0.0 && inner.rng.chance(prob) {
                inner.stats.drops += 1;
                return Err(if connecting {
                    NetFault::TimedOut
                } else {
                    NetFault::Dropped
                });
            }
        }
        drop(inner);
        let latency = link.latency_secs + rack.latency_secs;
        if !connecting && latency > 0 {
            self.clock.advance(latency);
        }
        Ok(())
    }
}

impl Network for NetFabric {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        self.roll(host, true)
    }

    fn transmit(&self, host: &str, _len: usize) -> Result<(), NetFault> {
        self.roll(host, false)
    }
}

/// A client↔server [`Channel`] routed through the fabric as one named
/// link: partitioned links refuse sends, and lossy links silently swallow
/// frames — the sender only finds out when its per-request deadline
/// expires, exactly like a dropped TCP segment whose retransmits never
/// arrive.
pub struct FaultyChannel {
    inner: Box<dyn Channel>,
    fabric: Arc<NetFabric>,
    link: String,
}

impl FaultyChannel {
    /// Wraps `inner`, applying the fabric's faults for `link`.
    pub fn new(inner: Box<dyn Channel>, fabric: Arc<NetFabric>, link: &str) -> FaultyChannel {
        FaultyChannel {
            inner,
            fabric,
            link: link.to_owned(),
        }
    }
}

impl Channel for FaultyChannel {
    fn send(&mut self, frame: bytes::Bytes) -> std::io::Result<()> {
        match self.fabric.roll(&self.link, false) {
            Ok(()) => self.inner.send(frame),
            Err(NetFault::Partitioned) => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "link partitioned",
            )),
            // Lost in transit: the send "succeeds" but nothing arrives.
            Err(NetFault::Dropped) | Err(NetFault::TimedOut) => Ok(()),
        }
    }

    fn try_recv(&mut self) -> std::io::Result<Option<bytes::Bytes>> {
        self.inner.try_recv()
    }

    fn is_closed(&self) -> bool {
        self.inner.is_closed()
    }

    fn raw_fd(&self) -> moira_protocol::transport::RawFd {
        self.inner.raw_fd()
    }

    fn flush(&mut self) -> std::io::Result<bool> {
        self.inner.flush()
    }

    fn queued_bytes(&self) -> usize {
        self.inner.queued_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_and_heal() {
        let clock = VClock::new();
        let net = NetFabric::new(clock.clone(), 1);
        assert_eq!(net.connect("A.MIT.EDU"), Ok(()));
        net.partition("A.MIT.EDU");
        assert!(net.is_partitioned("A.MIT.EDU"));
        assert_eq!(net.connect("A.MIT.EDU"), Err(NetFault::Partitioned));
        assert_eq!(net.transmit("A.MIT.EDU", 10), Err(NetFault::Partitioned));
        // Other links are unaffected.
        assert_eq!(net.connect("B.MIT.EDU"), Ok(()));
        net.heal("A.MIT.EDU");
        assert_eq!(net.connect("A.MIT.EDU"), Ok(()));
        assert_eq!(net.stats().partitions_hit, 2);
    }

    #[test]
    fn timed_partition_heals_with_the_clock() {
        let clock = VClock::new();
        let start = clock.now();
        let net = NetFabric::new(clock.clone(), 1);
        net.partition_until("A", start + 100);
        assert_eq!(net.connect("A"), Err(NetFault::Partitioned));
        clock.advance(99);
        assert_eq!(net.connect("A"), Err(NetFault::Partitioned));
        clock.advance(1);
        assert_eq!(net.connect("A"), Ok(()));
    }

    #[test]
    fn drop_probability_is_seed_deterministic() {
        let faults = |seed: u64| -> Vec<bool> {
            let net = NetFabric::new(VClock::new(), seed);
            net.set_drop_prob("A", 0.5);
            (0..32).map(|_| net.transmit("A", 1).is_err()).collect()
        };
        assert_eq!(faults(7), faults(7), "same seed, same faults");
        assert_ne!(faults(7), faults(8), "different seed, different faults");
        let hit = faults(7).iter().filter(|&&f| f).count();
        assert!((4..=28).contains(&hit), "roughly half drop: {hit}/32");
    }

    #[test]
    fn rack_fault_domain_stacks_on_host_links() {
        let clock = VClock::new();
        let net = NetFabric::new(clock.clone(), 1);
        net.assign_rack("A", "r1");
        net.assign_rack("B", "r1");
        net.assign_rack("C", "r2");
        net.partition_rack("r1");
        assert!(net.is_rack_partitioned("r1"));
        assert!(net.is_partitioned("A"), "rack partition covers members");
        assert_eq!(net.connect("A"), Err(NetFault::Partitioned));
        assert_eq!(net.connect("B"), Err(NetFault::Partitioned));
        assert_eq!(net.connect("C"), Ok(()), "other rack unaffected");
        net.heal_rack("r1");
        assert_eq!(net.connect("A"), Ok(()));
        // A host's own partition still applies inside a healthy rack.
        net.partition("B");
        assert_eq!(net.connect("B"), Err(NetFault::Partitioned));
        // Rack drop dice roll on the uplink, independent of host links.
        net.set_rack_drop_prob("r2", 1.0);
        assert!(net.transmit("C", 1).is_err());
    }

    #[test]
    fn fault_free_rack_preserves_seed_determinism() {
        // Assigning hosts to racks with no configured rack faults must not
        // consume RNG rolls: existing seeded schedules stay byte-stable.
        let faults = |racked: bool| -> Vec<bool> {
            let net = NetFabric::new(VClock::new(), 7);
            if racked {
                net.assign_rack("A", "r1");
            }
            net.set_drop_prob("A", 0.5);
            (0..32).map(|_| net.transmit("A", 1).is_err()).collect()
        };
        assert_eq!(faults(false), faults(true));
    }

    #[test]
    fn latency_advances_the_virtual_clock() {
        let clock = VClock::new();
        let start = clock.now();
        let net = NetFabric::new(clock.clone(), 1);
        net.set_latency("A", 5);
        net.transmit("A", 100).unwrap();
        net.transmit("A", 100).unwrap();
        assert_eq!(clock.now(), start + 10);
        // Connection set-up carries no payload and takes no modelled time.
        net.connect("A").unwrap();
        assert_eq!(clock.now(), start + 10);
    }

    #[test]
    fn faulty_channel_swallows_dropped_frames() {
        use moira_protocol::transport::pair;
        let fabric = Arc::new(NetFabric::new(VClock::new(), 3));
        let (client_end, mut server_end) = pair();
        let mut chan = FaultyChannel::new(Box::new(client_end), fabric.clone(), "LINK");
        chan.send(bytes::Bytes::from_static(b"one")).unwrap();
        fabric.set_drop_prob("LINK", 1.0);
        chan.send(bytes::Bytes::from_static(b"two")).unwrap();
        fabric.set_drop_prob("LINK", 0.0);
        chan.send(bytes::Bytes::from_static(b"three")).unwrap();
        let mut seen = Vec::new();
        while let Ok(Some(frame)) = server_end.try_recv() {
            seen.push(frame);
        }
        assert_eq!(seen, vec![&b"one"[..], &b"three"[..]], "\"two\" was lost");
        // A partitioned link refuses outright.
        fabric.partition("LINK");
        assert!(chan.send(bytes::Bytes::from_static(b"four")).is_err());
    }

    /// An inner channel whose every answer is distinguishable from what a
    /// wrapper could make up on its own.
    struct Marked;

    impl Channel for Marked {
        fn send(&mut self, _frame: bytes::Bytes) -> std::io::Result<()> {
            Ok(())
        }
        fn try_recv(&mut self) -> std::io::Result<Option<bytes::Bytes>> {
            Ok(None)
        }
        fn is_closed(&self) -> bool {
            false
        }
        fn raw_fd(&self) -> moira_protocol::transport::RawFd {
            4242
        }
        fn flush(&mut self) -> std::io::Result<bool> {
            Ok(false)
        }
        fn queued_bytes(&self) -> usize {
            77
        }
    }

    #[test]
    fn faulty_channel_delegates_the_reactor_facing_methods() {
        // A wrapped TCP channel must keep its readiness fd, its outbox
        // flush and its backpressure signal: the server and
        // `recv_blocking` see the wrapper, not the socket.
        let fabric = Arc::new(NetFabric::new(VClock::new(), 3));
        let mut chan = FaultyChannel::new(Box::new(Marked), fabric, "LINK");
        assert_eq!(chan.raw_fd(), 4242);
        assert!(!chan.flush().unwrap(), "inner reports bytes still queued");
        assert_eq!(chan.queued_bytes(), 77);
    }
}
