//! `get_server_statistics` — the wire-level view of the obs registry.
//!
//! The paper's server "logs all transactions which modify the database";
//! this query exposes the live measurement substrate over the same RPC
//! surface as every other retrieve: dispatch counters per tier, shed
//! counts, latency histograms as derived quantile rows, WAL counters, and
//! the DCM's transfer byte counters — whatever the registry currently
//! holds, flattened to `(statistic, value)` tuples.

use moira_common::errors::MrResult;

use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::state::{Caller, MoiraState};

/// Registers the statistics query.
pub fn register(r: &mut Registry) {
    let qs: &[QueryHandle] = &[QueryHandle {
        name: "get_server_statistics",
        shortname: "gsta",
        kind: QueryKind::Retrieve,
        access: AccessRule::Public,
        args: &[],
        returns: &["statistic", "value"],
        handler: Handler::Read(get_server_statistics),
    }];
    for q in qs {
        r.register(*q);
    }
}

fn get_server_statistics(
    state: &MoiraState,
    _c: &Caller,
    _a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    Ok(state
        .obs
        .snapshot()
        .rows()
        .into_iter()
        .map(|(statistic, value)| vec![statistic, value])
        .collect())
}

#[cfg(test)]
mod tests {
    use moira_common::VClock;

    use crate::state::{Caller, MoiraState};

    #[test]
    fn statistics_reflect_the_obs_registry() {
        let r = crate::registry::Registry::standard();
        let mut s = MoiraState::new(VClock::new());
        s.obs.counter("server.reads_dispatched").add(3);
        s.obs.histogram("server.latency.read").record(1500);
        let journal_before = s.journal.len();
        let rows = r
            .execute(
                &mut s,
                &Caller::anonymous("stats"),
                "get_server_statistics",
                &[],
            )
            .unwrap();
        let find = |name: &str| {
            rows.iter()
                .find(|row| row[0] == name)
                .unwrap_or_else(|| panic!("row {name} missing"))[1]
                .clone()
        };
        assert_eq!(find("server.reads_dispatched"), "3");
        assert_eq!(find("server.latency.read.count"), "1");
        assert_eq!(find("server.latency.read.max_ns"), "1500");
        // Public access: anonymous retrieval succeeds (asserted by the
        // unwraps above), and the query is journal-exempt.
        assert_eq!(s.journal.len(), journal_before);
    }
}
