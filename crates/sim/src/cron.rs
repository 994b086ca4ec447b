//! The cron driver.
//!
//! "The DCM is invoked regularly by cron at intervals which become the
//! minimum update time for any service" (§5.7). The driver advances virtual
//! time in cron-period steps, firing the DCM at each tick and immediately
//! whenever a `Trigger_DCM` request is pending.

use moira_dcm::dcm::DcmReport;

use crate::deployment::Deployment;

/// The paper's floor: "distribution of server-specific files can occur
/// every 15 minutes" (§5.1.E).
pub const MIN_CRON_PERIOD_SECS: i64 = 15 * 60;

/// Summary of a simulated stretch of wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct CronRun {
    /// One report per DCM invocation, in order.
    pub reports: Vec<DcmReport>,
    /// How many invocations were trigger-driven rather than scheduled.
    pub triggered_runs: usize,
    /// How many nightly backups ran.
    pub nightly_backups: usize,
}

impl CronRun {
    /// Total services regenerated across the run.
    pub fn total_generations(&self) -> usize {
        self.reports.iter().map(|r| r.generated.len()).sum()
    }

    /// Total host updates attempted.
    pub fn total_updates(&self) -> usize {
        self.reports.iter().map(|r| r.updates.len()).sum()
    }

    /// Total successful host updates.
    pub fn successful_updates(&self) -> usize {
        self.reports
            .iter()
            .flat_map(|r| &r.updates)
            .filter(|(_, _, res)| res.is_ok())
            .count()
    }
}

/// Runs the deployment for `duration_secs` of virtual time, firing the DCM
/// every `period_secs` (clamped to the 15-minute floor) and the nightly
/// backup every 24 hours.
pub fn run_cron(deployment: &mut Deployment, duration_secs: i64, period_secs: i64) -> CronRun {
    let period = period_secs.max(MIN_CRON_PERIOD_SECS);
    let mut run = CronRun::default();
    let mut elapsed = 0;
    let mut since_backup = 0;
    while elapsed < duration_secs {
        // A pending Trigger_DCM fires immediately, ahead of the schedule.
        if deployment.dcm_triggered() {
            run.triggered_runs += 1;
            run.reports.push(deployment.run_dcm_once());
        }
        deployment.advance(period);
        elapsed += period;
        since_backup += period;
        run.reports.push(deployment.run_dcm_once());
        if since_backup >= 24 * 3600 {
            deployment.run_nightly_backup();
            run.nightly_backups += 1;
            since_backup = 0;
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationSpec;

    #[test]
    fn one_simulated_day_converges() {
        let mut d = Deployment::build(&PopulationSpec::small());
        let run = run_cron(&mut d, 24 * 3600, 3600);
        assert!(run.reports.len() >= 24);
        // All five services generate exactly once (nothing changes after).
        assert_eq!(run.total_generations(), 5);
        // Updates: hesiod(1) + nfs(3) + mail(1) + zephyr(2) + passwd(2).
        assert_eq!(run.total_updates(), 9);
        assert_eq!(run.successful_updates(), 9);
    }

    #[test]
    fn nightly_backups_rotate_three_generations() {
        let mut d = Deployment::build(&PopulationSpec::small());
        let run = run_cron(&mut d, 5 * 24 * 3600, 6 * 3600);
        assert_eq!(run.nightly_backups, 5);
        // Only the last three generations stay on line.
        let generations = d.backups.generations().unwrap();
        assert_eq!(generations.len(), 3);
        assert!(d.last_backup > 0);
        // The newest generation restores into a working database.
        let mut fresh = moira_db::Database::new(moira_common::VClock::new());
        moira_core::schema::create_all_tables(&mut fresh);
        let restored = moira_db::backup::mrrestore(&mut fresh, &generations[0]).unwrap();
        assert!(restored > 500);
    }

    #[test]
    fn period_clamped_to_fifteen_minutes() {
        let mut d = Deployment::build(&PopulationSpec::small());
        let run = run_cron(&mut d, 3600, 60);
        assert_eq!(run.reports.len(), 4, "15-minute floor");
    }

    #[test]
    fn trigger_fires_extra_run() {
        let mut d = Deployment::build(&PopulationSpec::small());
        d.run_dcm_once();
        // Force an override (sets the trigger) and run a short cron window.
        {
            let mut s = d.state.write();
            let host = d.population.hesiod_servers[0].clone();
            d.registry
                .execute(
                    &mut s,
                    &moira_core::state::Caller::root("ops"),
                    "set_server_host_override",
                    &["HESIOD".into(), host],
                )
                .unwrap();
        }
        let run = run_cron(&mut d, 1800, 900);
        assert!(run.triggered_runs >= 1);
        // The override produced an off-schedule update.
        assert!(run.total_updates() >= 1);
    }
}
