//! The obs `Clock` seam under simulation: stage spans recorded inside a
//! deployment measure *virtual* seconds, not wall-clock nanoseconds.

use moira_common::VClock;
use moira_core::queries::testutil::add_test_user;
use moira_core::schema::users;
use moira_core::state::MoiraState;
use moira_db::{Relation, RowId, TableId};
use moira_dcm::generators::incremental::{self, DeltaPlan, LineKey, Section, SectionKind};
use moira_dcm::generators::Generator;
use moira_sim::deployment::Deployment;
use moira_sim::population::PopulationSpec;

/// A generator whose one fragment burns seven simulated seconds — the
/// stand-in for an expensive extraction pass.
struct SlowGenerator;

fn frag_slow(state: &MoiraState, _row: RowId) -> Option<(LineKey, String)> {
    state.db.clock().advance(7);
    Some(((0, String::new()), "slow\n".to_owned()))
}

impl Generator for SlowGenerator {
    fn service(&self) -> &'static str {
        "SLOW"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[users::R::ID]
    }

    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![Section {
                file: "slow.db",
                driver: users::R::ID,
                lookups: &[],
                kind: SectionKind::Lines(frag_slow),
                affected: None,
            }],
        }
    }
}

#[test]
fn stage_spans_report_simulated_durations() {
    let clock = VClock::new();
    let mut state = MoiraState::new(clock.clone());
    state.obs.set_virtual_clock(clock.clone());
    // One users row: one fragment render, one seven-second burn.
    add_test_user(&mut state, "slowpoke", 7007);

    let refreshed = incremental::refresh(&SlowGenerator, &state, None).unwrap();
    assert!(refreshed.full, "no cache: the rebuild path runs");

    let snap = state.obs.snapshot();
    let h = snap
        .histogram("dcm.stage.section_rebuild_ns")
        .expect("rebuild span recorded");
    assert_eq!(h.count, 1);
    assert_eq!(
        h.max, 7_000_000_000,
        "seven virtual seconds, exactly — wall time never leaks in"
    );
    assert_eq!(h.p50(), 7_000_000_000);
}

#[test]
fn deployment_cycles_record_stages_in_virtual_time() {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.run_dcm_once();

    let snap = d.state.read().obs.snapshot();
    let h = snap
        .histogram("dcm.stage.section_rebuild_ns")
        .expect("first cycle rebuilds every cached generator");
    assert!(h.count > 0);
    // The virtual clock does not tick during a refresh, so every span is
    // exactly zero — any positive duration means wall-clock leaked in.
    assert_eq!(h.max, 0, "virtual durations only");
    if let Some(scan) = snap.histogram("dcm.stage.delta_scan_ns") {
        assert_eq!(scan.max, 0);
    }
}
