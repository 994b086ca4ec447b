//! Golden bytes of every generated archive on the small population.
//!
//! The constants were recorded at the last commit that still had hand-written
//! whole-file builders beside the section fragments, so this test proves the
//! one surviving render path — sections built from `full_rebuild_rows`, and
//! per-host archives cut from the shared member plus per-host members —
//! emits the bytes the second renderer did.

use moira::common::crc::crc32;
use moira::core::state::Caller;
use moira::dcm::generators::standard_generators;
use moira::sim::{Deployment, PopulationSpec};

/// CRC-32 of `generate(state, "").to_bytes()` per standard generator.
const SHARED: &[(&str, u32)] = &[
    ("HESIOD", 0x0635_1902),
    ("NFS", 0xd2c6_26d4),
    ("MAIL", 0x9ead_a671),
    ("ZEPHYR", 0x1dab_1386),
    ("PASSWD", 0x553d_d3ce),
];

/// CRC-32 of the archive each host installed: `(service, index into the
/// population's server list, crc)`. NFS server 0 is `value3`-restricted to
/// `srv-cred` below; dialup server 0 is HOSTACCESS-restricted to
/// `moira-admins` by the population builder; index 1 of each is unrestricted.
const PER_HOST: &[(&str, usize, u32)] = &[
    ("NFS", 0, 0xa04c_bb16),
    ("NFS", 1, 0x177c_047e),
    ("PASSWD", 0, 0x73fb_3b5e),
    ("PASSWD", 1, 0x0119_6a0b),
];

#[test]
fn surviving_render_path_emits_the_recorded_bytes() {
    let mut d = Deployment::build(&PopulationSpec::small());
    // Restricted exactly as `value3_restricts_nfs_credentials_per_host`.
    let restricted_nfs = d.population.nfs_servers[0].clone();
    let insider = d.population.active_logins[0].clone();
    {
        let mut s = d.state.write();
        let root = Caller::root("t");
        let run = |s: &mut _, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            d.registry.execute(s, &root, q, &args).unwrap()
        };
        run(
            &mut s,
            "add_list",
            &[
                "srv-cred", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["srv-cred", "USER", &insider],
        );
        // The population's restricted dialup host admits `moira-admins`,
        // which it leaves empty: give it a direct and a nested member.
        let second = d.population.active_logins[1].clone();
        run(
            &mut s,
            "add_member_to_list",
            &["moira-admins", "USER", &second],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["moira-admins", "LIST", "srv-cred"],
        );
        run(
            &mut s,
            "update_server_host_info",
            &["NFS", &restricted_nfs, "1", "0", "0", "srv-cred"],
        );
    }

    {
        let state = d.state.read();
        let generators = standard_generators();
        assert_eq!(generators.len(), SHARED.len());
        for (g, (service, crc)) in generators.iter().zip(SHARED) {
            assert_eq!(g.service(), *service);
            let bytes = g.generate(&state, "").unwrap().to_bytes();
            assert_eq!(crc32(&bytes), *crc, "{service} from-scratch archive");
        }
    }

    d.run_dcm_once();
    for (service, index, crc) in PER_HOST {
        let host = match *service {
            "NFS" => &d.population.nfs_servers[*index],
            _ => &d.population.dialup_servers[*index],
        };
        let installed = d
            .dcm
            .cursors()
            .base(service, host)
            .unwrap_or_else(|| panic!("{service} installed on {host}"));
        assert_eq!(
            crc32(&installed.to_bytes()),
            *crc,
            "{service} archive of server {index}"
        );
    }

    // An unrestricted host's shared-format member *is* the prepared member.
    for (service, member) in [("NFS", "credentials"), ("PASSWD", "passwd")] {
        let host = match service {
            "NFS" => &d.population.nfs_servers[1],
            _ => &d.population.dialup_servers[1],
        };
        let installed = d.dcm.cursors().base(service, host).unwrap();
        let prepared = d.dcm.prepared(service).unwrap();
        assert!(installed.get(member).is_some());
        assert_eq!(installed.get(member), prepared.get(member), "{service}");
    }
    // …and a restricted host's is a strict subset of it.
    let restricted = d.dcm.cursors().base("NFS", &restricted_nfs).unwrap();
    let shared = d.dcm.prepared("NFS").unwrap();
    let lines = |a: &[u8]| String::from_utf8(a.to_vec()).unwrap();
    let (restricted, shared) = (
        lines(restricted.get("credentials").unwrap()),
        lines(shared.get("credentials").unwrap()),
    );
    assert_eq!(restricted.lines().count(), 1);
    assert!(shared.contains(&restricted));
    assert!(restricted.starts_with(&format!("{insider}:")));
}
