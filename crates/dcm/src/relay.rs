//! The hierarchical fan-out tier: rack topology, relay election, and the
//! per-host delta cursor store.
//!
//! The paper's DCM walks ~20 server hosts one at a time; at thousands of
//! consumer hosts the same plan widens two ways. Update legs run on a
//! bounded worker pool (`fanout_width`; the paper's walk is width 1). And
//! hosts are grouped into *racks*: the DCM pushes each archive once to a
//! *relay* host per rack, and only then fans out to that rack's *leaf*
//! hosts — so a dead rack uplink costs one probe, not one timeout per
//! host. With no racks declared every host is pushed directly.
//!
//! For each `(service, host)` pair the [`CursorStore`] remembers the archive the host last
//! confirmed installing — the *base* the update protocol patches against
//! — together with the service generation it belongs to and a base-CRC
//! [`Manifest`]. The invariants:
//!
//! - **Monotone.** [`CursorStore::record`] never moves a cursor to an
//!   older generation; a delayed recording from a slow leg cannot clobber
//!   a newer confirmed install.
//! - **Advance only on confirmation.** Failed legs leave the cursor
//!   untouched: the host may hold the old archive, the new one, or a
//!   torn mix, and its base CRCs in the next stale reply sort that out.
//! - **Dropping costs bytes, never correctness.** A forgotten or stale
//!   cursor merely fails the base-CRC gate at transfer time, falling
//!   back to whole members.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use crate::archive::{Archive, Manifest};

/// What the DCM knows one host last installed for one service: the patch
/// base, the generation it belongs to, and its member-CRC manifest.
#[derive(Debug, Clone)]
pub struct Cursor {
    /// The service generation (`dfgen`) whose archive the host confirmed.
    pub generation: i64,
    base: Arc<Archive>,
    manifest: Manifest,
}

impl Cursor {
    /// The confirmed archive — the base for line-level patches.
    pub fn base(&self) -> &Arc<Archive> {
        &self.base
    }

    /// Member CRCs of the base, precomputed at record time.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }
}

/// Per-`(service, host)` delta cursors. See the module docs for the
/// invariants.
#[derive(Debug, Default)]
pub struct CursorStore {
    entries: HashMap<(String, String), Cursor>,
}

impl CursorStore {
    /// An empty store.
    pub fn new() -> CursorStore {
        CursorStore::default()
    }

    /// Records a confirmed install of `base` at `generation`. Monotone:
    /// returns `false` (and changes nothing) when the host's cursor is
    /// already at a newer generation.
    pub fn record(
        &mut self,
        service: &str,
        host: &str,
        generation: i64,
        base: Arc<Archive>,
    ) -> bool {
        let key = (service.to_owned(), host.to_owned());
        if let Some(existing) = self.entries.get(&key) {
            if generation < existing.generation {
                return false;
            }
        }
        let manifest = base.manifest();
        self.entries.insert(
            key,
            Cursor {
                generation,
                base,
                manifest,
            },
        );
        true
    }

    /// Unconditional overwrite — the operator-reset escape hatch (and the
    /// fault-matrix tests' way of planting a stale cursor).
    pub fn force(&mut self, service: &str, host: &str, generation: i64, base: Arc<Archive>) {
        let manifest = base.manifest();
        self.entries.insert(
            (service.to_owned(), host.to_owned()),
            Cursor {
                generation,
                base,
                manifest,
            },
        );
    }

    /// Drops one cursor (the next push ships whole members).
    pub fn forget(&mut self, service: &str, host: &str) {
        self.entries.remove(&(service.to_owned(), host.to_owned()));
    }

    /// The full cursor for one `(service, host)`, if recorded.
    pub fn cursor(&self, service: &str, host: &str) -> Option<&Cursor> {
        self.entries.get(&(service.to_owned(), host.to_owned()))
    }

    /// The patch base for one `(service, host)`, if recorded.
    pub fn base(&self, service: &str, host: &str) -> Option<Arc<Archive>> {
        self.cursor(service, host).map(|c| c.base.clone())
    }

    /// The generation a host last confirmed, if recorded.
    pub fn generation(&self, service: &str, host: &str) -> Option<i64> {
        self.cursor(service, host).map(|c| c.generation)
    }

    /// Number of cursors held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Static rack grouping of hosts. Racks are physical: one topology serves
/// every service; a host belongs to at most one rack (the last
/// [`add_rack`](RackTopology::add_rack) naming it wins).
#[derive(Debug, Clone, Default)]
pub struct RackTopology {
    /// Rack name → member hosts, in election-preference order.
    racks: BTreeMap<String, Vec<String>>,
    host_rack: HashMap<String, String>,
}

impl RackTopology {
    /// An empty topology: every host is pushed directly from the origin.
    pub fn new() -> RackTopology {
        RackTopology::default()
    }

    /// Declares a rack and its member hosts. Member order is the relay
    /// election preference order.
    pub fn add_rack(&mut self, rack: &str, hosts: impl IntoIterator<Item = String>) {
        let members: Vec<String> = hosts.into_iter().collect();
        for h in &members {
            self.host_rack.insert(h.clone(), rack.to_owned());
        }
        self.racks.insert(rack.to_owned(), members);
    }

    /// The rack a host belongs to, if any.
    pub fn rack_of(&self, host: &str) -> Option<&str> {
        self.host_rack.get(host).map(String::as_str)
    }

    /// Members of one rack (empty for an unknown rack).
    pub fn rack_members(&self, rack: &str) -> &[String] {
        self.racks.get(rack).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of racks declared.
    pub fn len(&self) -> usize {
        self.racks.len()
    }

    /// Whether no racks are declared.
    pub fn is_empty(&self) -> bool {
        self.racks.is_empty()
    }

    /// Splits one service's todo list into the two fan-out waves.
    ///
    /// `todo` is the cycle's host list in attempt order; `serving` is the
    /// set of hosts with an enabled server-host row for this service —
    /// only a host that itself serves the service can relay it. Per rack,
    /// the relay is the first member (in rack order) that serves; the
    /// rack's other todo members become leaves gated on that relay's
    /// reachability. The relay itself, rack-less hosts, and racks with no
    /// serving member all go direct in the origin wave. Indices into the
    /// plan refer to positions in `todo`.
    pub fn plan(&self, todo: &[String], serving: &HashSet<String>) -> FanoutPlan {
        let mut plan = FanoutPlan::default();
        let mut racks_touched: HashSet<&str> = HashSet::new();
        for (i, host) in todo.iter().enumerate() {
            let Some(rack) = self.rack_of(host) else {
                plan.origin.push(i);
                continue;
            };
            racks_touched.insert(rack);
            let relay = self
                .rack_members(rack)
                .iter()
                .find(|m| serving.contains(m.as_str()));
            match relay {
                // A relay's own update is an origin leg; everything else in
                // its rack rides behind it.
                Some(r) if r == host => plan.origin.push(i),
                Some(r) => plan.leaves.push((i, r.clone())),
                // No serving member to relay through: go direct.
                None => plan.origin.push(i),
            }
        }
        // A relay that is already up to date is not in `todo` at all; its
        // leaves still gate on its reachability at transfer time.
        plan.origin.sort_unstable();
        plan.leaves.sort_unstable_by_key(|&(i, _)| i);
        plan.racks = racks_touched.len();
        plan
    }
}

/// One service's fan-out split for one cycle: todo-list indices of the
/// origin wave (relays, rack-less, relay-less), leaf-wave indices paired
/// with their relay's host name, and the number of racks touched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FanoutPlan {
    /// Wave 1: direct pushes from the DCM.
    pub origin: Vec<usize>,
    /// Wave 2: `(todo index, relay host name)` — gated on the relay.
    pub leaves: Vec<(usize, String)>,
    /// Racks with at least one host in this cycle's todo list.
    pub racks: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(members: &[(&str, &[u8])]) -> Arc<Archive> {
        Arc::new(
            Archive::from_members(
                members
                    .iter()
                    .map(|(n, d)| (n.to_string(), d.to_vec()))
                    .collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn cursor_records_are_monotone() {
        let mut store = CursorStore::new();
        let gen5 = arc(&[("a", b"five")]);
        let gen9 = arc(&[("a", b"nine")]);
        assert!(store.record("HESIOD", "H1", 5, gen5.clone()));
        assert!(store.record("HESIOD", "H1", 9, gen9.clone()));
        assert_eq!(store.generation("HESIOD", "H1"), Some(9));
        // A delayed recording from an older leg is ignored…
        assert!(!store.record("HESIOD", "H1", 5, gen5.clone()));
        assert_eq!(store.generation("HESIOD", "H1"), Some(9));
        assert_eq!(store.base("HESIOD", "H1").unwrap(), gen9);
        // …but an equal generation re-record (idempotent retry) lands.
        assert!(store.record("HESIOD", "H1", 9, gen9.clone()));
        // force() bypasses the monotone check — operator reset.
        store.force("HESIOD", "H1", 5, gen5.clone());
        assert_eq!(store.generation("HESIOD", "H1"), Some(5));
        store.forget("HESIOD", "H1");
        assert!(store.is_empty());
    }

    #[test]
    fn cursor_manifest_matches_base() {
        let mut store = CursorStore::new();
        let base = arc(&[("passwd.db", b"root:0"), ("uid.db", b"0:root")]);
        store.record("HESIOD", "H1", 3, base.clone());
        let cursor = store.cursor("HESIOD", "H1").unwrap();
        assert_eq!(cursor.manifest(), &base.manifest());
        assert_eq!(cursor.manifest().entries.len(), 2);
    }

    #[test]
    fn cursors_are_keyed_per_service_and_host() {
        let mut store = CursorStore::new();
        let a = arc(&[("a", b"1")]);
        store.record("HESIOD", "H1", 1, a.clone());
        store.record("HESIOD", "H2", 2, a.clone());
        store.record("NFS", "H1", 3, a.clone());
        assert_eq!(store.len(), 3);
        assert_eq!(store.generation("HESIOD", "H1"), Some(1));
        assert_eq!(store.generation("NFS", "H1"), Some(3));
        assert_eq!(store.generation("NFS", "H2"), None);
    }

    fn hs(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    fn owned(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_topology_plans_everything_origin() {
        let topo = RackTopology::new();
        let todo = owned(&["A", "B", "C"]);
        let plan = topo.plan(&todo, &hs(&["A", "B", "C"]));
        assert_eq!(plan.origin, vec![0, 1, 2]);
        assert!(plan.leaves.is_empty());
        assert_eq!(plan.racks, 0);
    }

    #[test]
    fn relay_in_todo_leads_its_rack() {
        let mut topo = RackTopology::new();
        topo.add_rack("r1", owned(&["A", "B", "C"]));
        let todo = owned(&["A", "B", "C"]);
        let plan = topo.plan(&todo, &hs(&["A", "B", "C"]));
        assert_eq!(plan.origin, vec![0], "relay A goes direct");
        assert_eq!(
            plan.leaves,
            vec![(1, "A".to_string()), (2, "A".to_string())]
        );
        assert_eq!(plan.racks, 1);
    }

    #[test]
    fn up_to_date_relay_still_gates_its_leaves() {
        let mut topo = RackTopology::new();
        topo.add_rack("r1", owned(&["A", "B", "C"]));
        // A already converged — only B and C need the push; they still ride
        // behind A.
        let todo = owned(&["B", "C"]);
        let plan = topo.plan(&todo, &hs(&["A", "B", "C"]));
        assert!(plan.origin.is_empty());
        assert_eq!(
            plan.leaves,
            vec![(0, "A".to_string()), (1, "A".to_string())]
        );
    }

    #[test]
    fn relay_election_skips_non_serving_members() {
        let mut topo = RackTopology::new();
        topo.add_rack("r1", owned(&["A", "B", "C"]));
        // A is in the rack but does not serve this service: B relays.
        let todo = owned(&["B", "C"]);
        let plan = topo.plan(&todo, &hs(&["B", "C"]));
        assert_eq!(plan.origin, vec![0]);
        assert_eq!(plan.leaves, vec![(1, "B".to_string())]);
    }

    #[test]
    fn rack_without_serving_member_goes_direct() {
        let mut topo = RackTopology::new();
        topo.add_rack("r1", owned(&["A", "B"]));
        topo.add_rack("r2", owned(&["C"]));
        let todo = owned(&["A", "B", "C", "D"]);
        // Nobody in r1 serves; C serves itself; D is rack-less.
        let plan = topo.plan(&todo, &hs(&["C"]));
        assert_eq!(plan.origin, vec![0, 1, 2, 3]);
        assert!(plan.leaves.is_empty());
        assert_eq!(plan.racks, 2);
    }
}
