//! The administrative interface programs (§5.1.H) in action: the paper's
//! own two motivating examples — a quota change and a mailing-list
//! self-subscription — driven through the twelve client tools, including
//! the menu package.
//!
//! Run with: `cargo run --example admin_tools`

use std::cell::RefCell;
use std::rc::Rc;

use moira::client::apps::{
    chfn, chpobox, chsh, usermaint_menu, DcmMaint, ListFlags, ListMaint, MailMaint, UserMaint,
};
use moira::client::{DirectClient, MoiraConn};
use moira::core::schema::users;
use moira::sim::{Deployment, PopulationSpec};

fn main() {
    let mut athena = Deployment::build(&PopulationSpec::small());
    athena.run_dcm_once();
    athena.advance(60); // administrative work starts after the DCM pass
    let user = athena.population.active_logins[0].clone();
    let admin_conn = || {
        DirectClient::connect_as_root(athena.state.clone(), athena.registry.clone(), "admin_tools")
    };

    // --- The paper's first example (§3): the accounts administrator
    // changes a disk quota "on her workstation … the change will
    // automatically take place on the proper server a short time later."
    let mut conn = admin_conn();
    println!(
        "{}",
        UserMaint::set_quota(&mut conn, &user, &user, 500).unwrap()
    );

    // --- The paper's second example (§3): a user adds themselves to a
    // public mailing list.
    let mut me = DirectClient::connect(
        athena.state.clone(),
        athena.registry.clone(),
        &user,
        "mailmaint",
    );
    let public = MailMaint::public_lists(&mut me).unwrap();
    println!(
        "public lists visible to {user}: {:?}…",
        &public[..public.len().min(3)]
    );
    println!(
        "{}",
        MailMaint::subscribe(&mut me, &user, &public[0]).unwrap()
    );

    // --- A tour of the other tools.
    let mut conn = admin_conn();
    println!("{}", chsh(&mut conn, &user, "/bin/tcsh").unwrap());
    println!(
        "{}",
        chfn(&mut conn, &user, &[("office_phone", "x3-1300")]).unwrap()
    );
    let po = athena.population.pop_servers[1].clone();
    println!("{}", chpobox(&mut conn, &user, "POP", &po).unwrap());
    println!(
        "{}",
        ListMaint::create(
            &mut conn,
            "drama-club",
            &ListFlags {
                active: true,
                public: true,
                maillist: true,
                ..Default::default()
            },
            "USER",
            &user,
            "Drama Club"
        )
        .unwrap()
    );
    println!(
        "{}",
        ListMaint::add_member(&mut conn, "drama-club", "USER", &user).unwrap()
    );
    for line in DcmMaint::status(&mut conn, "*").unwrap() {
        println!("dcm_maint: {line}");
    }

    // --- The menu package (§5.6.3) driving usermaint interactively.
    println!("\n--- usermaint menu session (scripted) ---");
    let boxed: Rc<RefCell<Box<dyn MoiraConn>>> = Rc::new(RefCell::new(Box::new(admin_conn())));
    let menu = usermaint_menu(boxed);
    let mut output = String::new();
    let script = ["chsh", user.as_str(), "/bin/sh", "q"];
    menu.run(&mut script.into_iter(), &mut output);
    print!("{output}");

    // --- Propagate and verify the change reached the servers.
    athena.advance(13 * 3600);
    athena.run_dcm_once();
    let uid: i64 = {
        let s = athena.state.read();
        let row =
            s.db.table(users::T)
                .select_one(&moira::db::Pred::Eq(users::LOGIN, user.clone().into()))
                .unwrap();
        s.db.cell(row, users::UID).as_int()
    };
    let served = athena
        .nfs
        .values()
        .any(|n| n.lock().quota(uid) == Some(500));
    println!("\nquota change visible on the proper NFS server after propagation: {served}");
    let hesiod = athena.hesiod_one();
    let passwd = hesiod.lock().resolve(&user, "passwd").unwrap();
    println!(
        "hesiod serves the new shell: {}",
        passwd[0].ends_with(":/bin/sh")
    );
}
