//! Experiment E9: registration day (§5.10).
//!
//! "A new student must be able to get an athena account without any
//! intervention from Athena user accounts staff. … the user accounts
//! people would be faced with having to give out ~1000 accounts or more at
//! the beginning of each term." One thousand synthetic students walk up to
//! workstations and run the verify → grab_login → set_password flow,
//! including login-collision retries.

use moira_bench::{write_json, Table};
use moira_core::schema::{nfsquota, users};
use moira_core::userreg::{make_authenticator, RegReply, RegRequest};
use moira_sim::{Deployment, PopulationSpec};

fn main() {
    let mut spec = PopulationSpec::athena_1988().scaled_users(2_000);
    spec.unregistered_users = 1_000;
    eprintln!(
        "building the deployment ({} students on the registrar's tape)…",
        spec.unregistered_users
    );
    let d = Deployment::build(&spec);
    let students = d.population.unregistered.clone();

    let mut registered = 0usize;
    let mut collisions = 0usize;
    let mut failures = 0usize;
    let t0 = std::time::Instant::now();
    for (i, (first, last, id_number)) in students.iter().enumerate() {
        // Verify.
        let reply = d.regserver.handle(&RegRequest::VerifyUser {
            first: first.clone(),
            last: last.clone(),
            authenticator: make_authenticator(id_number, first, last, None),
        });
        if !matches!(reply, RegReply::Ok(0)) {
            failures += 1;
            continue;
        }
        // Grab a login; first choice collides for every tenth student (they
        // all want the same cool name), forcing the retry path.
        let mut choices = Vec::new();
        if i % 10 == 0 {
            choices.push("wizard".to_owned());
        }
        choices.push(format!("f{i:05}"));
        let mut got = false;
        for login in choices {
            let reply = d.regserver.handle(&RegRequest::GrabLogin {
                first: first.clone(),
                last: last.clone(),
                authenticator: make_authenticator(id_number, first, last, Some(&login)),
            });
            match reply {
                RegReply::Ok(_) => {
                    got = true;
                    break;
                }
                RegReply::LoginTaken => {
                    collisions += 1;
                }
                _ => break,
            }
        }
        if !got {
            failures += 1;
            continue;
        }
        // Set the password.
        let reply = d.regserver.handle(&RegRequest::SetPassword {
            first: first.clone(),
            last: last.clone(),
            authenticator: make_authenticator(id_number, first, last, Some("hunter2")),
        });
        if matches!(reply, RegReply::Ok(_)) {
            registered += 1;
        } else {
            failures += 1;
        }
    }
    let elapsed = t0.elapsed();
    let per_student_ms = elapsed.as_secs_f64() * 1e3 / students.len() as f64;

    // End-state invariants.
    let (half_registered, poboxes, lockers, principals) = {
        let s = d.state.read();
        let t = s.db.table(users::T);
        let half = t.select(&moira_db::Pred::Eq(users::STATUS, 2.into())).len();
        let po = t
            .iter()
            .filter(|(row, _)| {
                t.cell(*row, users::STATUS).as_int() == 2
                    && t.cell(*row, users::POTYPE).as_str() == "POP"
            })
            .count();
        let lockers = s.db.table(nfsquota::T).len();
        let principals = (0..students.len())
            .filter(|i| d.kdc.principal_exists(&format!("f{i:05}")))
            .count();
        (half, po, lockers, principals)
    };

    let mut table = Table::new(&["Metric", "Value"]);
    table.row(&["students on tape".into(), students.len().to_string()]);
    table.row(&[
        "registered (full 3-step flow)".into(),
        registered.to_string(),
    ]);
    table.row(&["login collisions retried".into(), collisions.to_string()]);
    table.row(&["failures".into(), failures.to_string()]);
    table.row(&[
        "half-registered accounts (status 2)".into(),
        half_registered.to_string(),
    ]);
    table.row(&["poboxes assigned".into(), poboxes.to_string()]);
    table.row(&[
        "kerberos principals reserved".into(),
        principals.to_string(),
    ]);
    table.row(&[
        "quota records (incl. existing users)".into(),
        lockers.to_string(),
    ]);
    table.row(&["elapsed".into(), format!("{:.2}s", elapsed.as_secs_f64())]);
    table.row(&["per student".into(), format!("{per_student_ms:.2} ms")]);
    table.print("E9 — Registration day: ~1000 accounts with zero staff intervention (§5.10)");
    println!(
        "\nall students registered without staff intervention: {}",
        registered == students.len() && failures == 0
    );
    write_json(
        "table_registration",
        &serde_json::json!({
            "students": students.len(),
            "registered": registered,
            "collisions": collisions,
            "failures": failures,
            "half_registered": half_registered,
            "poboxes": poboxes,
            "principals": principals,
            "per_student_ms": per_student_ms,
        }),
    );
}
