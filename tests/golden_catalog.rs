//! Golden reply bytes of the whole query catalog on the small population.
//!
//! The constants were recorded at the last commit whose handlers still
//! named tables and columns by string (`state.db.cell("users", id, "modby")`),
//! so this test proves the typed column handles that replaced the strings
//! read and write the same cells: the compiler rejects a column of the wrong
//! relation, but only bytes catch `users::MODBY` where `users::FMODBY` was
//! meant.
//!
//! Every registered handle is covered or the test fails: each retrieve is
//! run with every argument set below, as root and as an unprivileged
//! self-caller, on the pristine population and again after the append and
//! update handles ran; each mutation is run with a fixed argument set, as an
//! unprivileged caller and then as root, and its error code recorded; the
//! `mrbackup` dump of every relation is pinned after the writes and once
//! more after the deletes.
//!
//! `GOLDEN_PRINT=1 cargo test --test golden_catalog -- --nocapture` prints
//! the tables instead of checking them.

use std::collections::{BTreeMap, BTreeSet};

use moira::common::crc::crc32;
use moira::core::registry::{QueryKind, Registry};
use moira::core::state::{Caller, MoiraState};
use moira::db::backup::mrbackup;
use moira::sim::{Deployment, PopulationSpec};

/// Argument sets per retrieve (and special) handle. `$`-names are resolved
/// from the population, see [`resolve`].
const READS: &[(&str, &[&[&str]])] = &[
    ("get_all_logins", &[&[]]),
    ("get_all_active_logins", &[&[]]),
    ("get_user_by_login", &[&["*"], &["$L0"], &["no-such"]]),
    ("get_user_by_uid", &[&["$UID0"], &["999999"]]),
    ("get_user_by_name", &[&["*", "*"], &["$FIRST0", "$LAST0"]]),
    ("get_user_by_class", &[&["*"], &["1990"]]),
    ("get_user_by_mitid", &[&["*"], &["$MITID0"]]),
    ("get_finger_by_login", &[&["*"], &["$L0"], &["$L1"]]),
    ("get_pobox", &[&["*"], &["$L0"], &["$L2"]]),
    ("get_all_poboxes", &[&[]]),
    ("get_poboxes_pop", &[&[]]),
    ("get_poboxes_smtp", &[&[]]),
    ("get_machine", &[&["*"], &["$NFS0"], &["dialup-*"]]),
    ("get_cluster", &[&["*"], &["cluster-00"]]),
    (
        "get_machine_to_cluster_map",
        &[&["*", "*"], &["*", "cluster-00"], &["$NFS0", "*"]],
    ),
    (
        "get_cluster_data",
        &[&["*", "*"], &["cluster-00", "lpr"], &["golden-*", "*"]],
    ),
    (
        "get_list_info",
        &[&["*"], &["$L0"], &["ml-000"], &["golden-list"]],
    ),
    ("expand_list_names", &[&["ml-*"], &["ml-000"], &["*"]]),
    (
        "get_ace_use",
        &[
            &["USER", "$L0"],
            &["RUSER", "$L0"],
            &["LIST", "moira-admins"],
            &["RLIST", "zctl-0"],
            &["LIST", "golden-list"],
        ],
    ),
    (
        "qualified_get_lists",
        &[
            &["TRUE", "DONTCARE", "FALSE", "TRUE", "DONTCARE"],
            &["DONTCARE", "DONTCARE", "DONTCARE", "DONTCARE", "TRUE"],
            &["FALSE", "TRUE", "TRUE", "FALSE", "FALSE"],
        ],
    ),
    (
        "get_members_of_list",
        &[&["ml-000"], &["$L0"], &["golden-list"], &["moira-admins"]],
    ),
    (
        "get_lists_of_member",
        &[
            &["USER", "$L0"],
            &["RUSER", "$L0"],
            &["LIST", "zctl-0"],
            &["RLIST", "golden-list"],
            &["STRING", "golden@example.org"],
        ],
    ),
    (
        "count_members_of_list",
        &[&["ml-000"], &["golden-list"], &["no-such"]],
    ),
    ("get_server_info", &[&["*"], &["NFS"], &["GOLDEN"]]),
    (
        "qualified_get_server",
        &[
            &["TRUE", "DONTCARE", "FALSE"],
            &["DONTCARE", "DONTCARE", "DONTCARE"],
            &["FALSE", "TRUE", "TRUE"],
        ],
    ),
    (
        "get_server_host_info",
        &[&["*", "*"], &["NFS", "$NFS0"], &["GOLDEN", "*"]],
    ),
    (
        "qualified_get_server_host",
        &[
            &[
                "*", "DONTCARE", "DONTCARE", "DONTCARE", "DONTCARE", "DONTCARE",
            ],
            &["NFS", "TRUE", "FALSE", "DONTCARE", "FALSE", "FALSE"],
            &["GOLDEN", "DONTCARE", "TRUE", "TRUE", "TRUE", "TRUE"],
        ],
    ),
    ("get_server_locations", &[&["*"], &["POP"], &["GOLDEN"]]),
    ("get_filesys_by_label", &[&["*"], &["$L0"], &["golden-fs*"]]),
    ("get_filesys_by_machine", &[&["$NFS0"], &["$NFS1"]]),
    (
        "get_filesys_by_nfsphys",
        &[&["$NFS0", "/u1/lockers"], &["$NFS1", "/u2/*"]],
    ),
    ("get_filesys_by_group", &[&["$L0"], &["golden-list"]]),
    ("get_all_nfsphys", &[&[]]),
    (
        "get_nfsphys",
        &[
            &["$NFS0", "*"],
            &["$NFS0", "/u1/lockers"],
            &["$NFS1", "/u2/golden"],
        ],
    ),
    (
        "get_nfs_quota",
        &[&["$L0", "$L0"], &["*", "$L0"], &["golden-fs2", "$L1"]],
    ),
    (
        "get_nfs_quotas_by_partition",
        &[&["$NFS0", "/u1/lockers"], &["$NFS1", "*"]],
    ),
    ("get_zephyr_class", &[&["*"], &["zclass-0"], &["golden-*"]]),
    (
        "get_server_host_access",
        &[&["*"], &["$DIAL0"], &["$DIAL1"]],
    ),
    ("get_service", &[&["*"], &["svc1"], &["GOLDEN*"]]),
    ("get_printcap", &[&["*"], &["prn00"], &["golden*"]]),
    (
        "get_alias",
        &[
            &["*", "*", "*"],
            &["pobox", "TYPE", "POP"],
            &["golden*", "*", "*"],
        ],
    ),
    ("get_value", &[&["dcm_enable"], &["golden"], &["no-such"]]),
    ("get_all_table_stats", &[&[]]),
    ("_help", &[&["get_user_by_login"], &["no_such_query"]]),
    ("_list_queries", &[&[]]),
    ("_list_users", &[&[]]),
];

/// Retrieves whose reply is not a function of the database (obs latencies).
const UNPINNED: &[&str] = &["get_server_statistics"];

/// The append and update handles, in execution order.
const WRITES: &[(&str, &[&str])] = &[
    (
        "add_user",
        &[
            "golden",
            "UNIQUE_UID",
            "/bin/sh",
            "Fowler",
            "Harmon",
            "C",
            "1",
            "gold-id",
            "1990",
        ],
    ),
    (
        "add_user",
        &[
            "#",
            "UNIQUE_UID",
            "/bin/csh",
            "Doe",
            "Gold",
            "",
            "0",
            "gold-id-2",
            "G",
        ],
    ),
    ("register_user", &["$UNREG_UID", "goldreg", "1"]),
    (
        "update_user",
        &[
            "golden",
            "goldenx",
            "7777",
            "/bin/tcsh",
            "Fowler",
            "Harmon",
            "Q",
            "1",
            "gold-id-3",
            "1991",
        ],
    ),
    ("update_user_shell", &["$L1", "/bin/golden"]),
    ("update_user_status", &["goldenx", "2"]),
    (
        "update_finger_by_login",
        &[
            "$L1",
            "Full Name",
            "nick",
            "home",
            "555-1",
            "office",
            "555-2",
            "EECS",
            "student",
        ],
    ),
    ("set_pobox", &["$L1", "SMTP", "golden@example.org"]),
    ("set_pobox", &["goldenx", "POP", "$POP0"]),
    ("delete_pobox", &["$L2"]),
    ("set_pobox_pop", &["$L2"]),
    ("add_machine", &["golden-box.mit.edu", "RT"]),
    (
        "update_machine",
        &["golden-box.mit.edu", "GOLDEN-BOX2", "VAX"],
    ),
    ("add_cluster", &["golden-clu", "a cluster", "E40"]),
    (
        "update_cluster",
        &["golden-clu", "golden-clu2", "renamed", "W20"],
    ),
    ("add_machine_to_cluster", &["GOLDEN-BOX2", "golden-clu2"]),
    ("add_machine_to_cluster", &["GOLDEN-BOX2", "cluster-00"]),
    ("add_cluster_data", &["golden-clu2", "syslib", "golden-lib"]),
    (
        "add_list",
        &[
            "golden-list",
            "1",
            "1",
            "0",
            "1",
            "1",
            "UNIQUE_GID",
            "USER",
            "$L1",
            "a list",
        ],
    ),
    (
        "add_list",
        &[
            "golden-sub",
            "1",
            "0",
            "1",
            "0",
            "0",
            "-1",
            "LIST",
            "golden-list",
            "a sublist",
        ],
    ),
    (
        "update_list",
        &[
            "golden-sub",
            "golden-sub2",
            "1",
            "1",
            "0",
            "1",
            "0",
            "-1",
            "LIST",
            "golden-list",
            "renamed",
        ],
    ),
    ("add_member_to_list", &["golden-list", "USER", "$L0"]),
    (
        "add_member_to_list",
        &["golden-list", "LIST", "golden-sub2"],
    ),
    (
        "add_member_to_list",
        &["golden-list", "STRING", "golden@example.org"],
    ),
    ("add_member_to_list", &["golden-sub2", "USER", "$L2"]),
    (
        "add_server_info",
        &[
            "golden",
            "60",
            "/tmp/golden.out",
            "install-golden",
            "UNIQUE",
            "1",
            "LIST",
            "golden-list",
        ],
    ),
    (
        "update_server_info",
        &[
            "GOLDEN",
            "120",
            "/tmp/golden2.out",
            "install-golden2",
            "REPLICAT",
            "0",
            "USER",
            "$L1",
        ],
    ),
    (
        "set_server_internal_flags",
        &["GOLDEN", "11", "12", "1", "3", "went wrong"],
    ),
    ("reset_server_error", &["GOLDEN"]),
    (
        "add_server_host_info",
        &["GOLDEN", "GOLDEN-BOX2", "1", "7", "8", "nine"],
    ),
    (
        "update_server_host_info",
        &["GOLDEN", "GOLDEN-BOX2", "0", "17", "18", "nineteen"],
    ),
    (
        "set_server_host_internal",
        &[
            "GOLDEN",
            "GOLDEN-BOX2",
            "0",
            "0",
            "0",
            "5",
            "host broke",
            "21",
            "22",
        ],
    ),
    ("reset_server_host_error", &["GOLDEN", "GOLDEN-BOX2"]),
    ("set_server_host_override", &["GOLDEN", "GOLDEN-BOX2"]),
    (
        "add_nfsphys",
        &["$NFS1", "/u2/golden", "ra1c", "3", "10", "5000"],
    ),
    (
        "update_nfsphys",
        &["$NFS1", "/u2/golden", "ra2c", "7", "20", "6000"],
    ),
    ("adjust_nfsphys_allocation", &["$NFS1", "/u2/golden", "5"]),
    (
        "add_filesys",
        &[
            "golden-fs",
            "NFS",
            "$NFS1",
            "/u2/golden/fs",
            "/mit/golden-fs",
            "w",
            "a locker",
            "$L1",
            "golden-list",
            "1",
            "PROJECT",
        ],
    ),
    (
        "update_filesys",
        &[
            "golden-fs",
            "golden-fs2",
            "NFS",
            "$NFS1",
            "/u2/golden/fs2",
            "/mit/golden-fs2",
            "r",
            "moved",
            "$L0",
            "golden-list",
            "0",
            "COURSE",
        ],
    ),
    (
        "add_filesys",
        &[
            "golden-rvd",
            "RVD",
            "$NFS0",
            "golden-pack",
            "/mnt/golden",
            "r",
            "",
            "$L0",
            "golden-list",
            "0",
            "SYSTEM",
        ],
    ),
    ("add_nfs_quota", &["golden-fs2", "$L1", "40"]),
    ("update_nfs_quota", &["golden-fs2", "$L1", "55"]),
    (
        "add_zephyr_class",
        &[
            "golden-class",
            "LIST",
            "golden-list",
            "USER",
            "$L1",
            "NONE",
            "NONE",
            "LIST",
            "moira-admins",
        ],
    ),
    (
        "update_zephyr_class",
        &[
            "golden-class",
            "golden-class2",
            "USER",
            "$L0",
            "LIST",
            "golden-list",
            "LIST",
            "golden-list",
            "NONE",
            "NONE",
        ],
    ),
    (
        "add_server_host_access",
        &["GOLDEN-BOX2", "LIST", "golden-list"],
    ),
    ("update_server_host_access", &["GOLDEN-BOX2", "USER", "$L1"]),
    ("add_service", &["golden-svc", "UDP", "4242", "a service"]),
    (
        "add_printcap",
        &[
            "golden-prn",
            "GOLDEN-BOX2",
            "/usr/spool/golden",
            "golden-rp",
            "a printer",
        ],
    ),
    ("add_alias", &["golden-alias", "PRINTER", "golden-prn"]),
    ("add_value", &["golden", "17"]),
    ("update_value", &["golden", "18"]),
];

/// The delete handles, in execution order (dependents first).
const DELETES: &[(&str, &[&str])] = &[
    ("delete_value", &["golden"]),
    ("delete_alias", &["golden-alias", "PRINTER", "golden-prn"]),
    ("delete_printcap", &["golden-prn"]),
    ("delete_service", &["golden-svc"]),
    ("delete_server_host_access", &["GOLDEN-BOX2"]),
    ("delete_zephyr_class", &["golden-class2"]),
    ("delete_nfs_quota", &["golden-fs2", "$L1"]),
    ("delete_filesys", &["golden-fs2"]),
    ("delete_filesys", &["golden-rvd"]),
    ("delete_nfsphys", &["$NFS1", "/u2/golden"]),
    ("delete_server_host_info", &["GOLDEN", "GOLDEN-BOX2"]),
    ("delete_server_info", &["GOLDEN"]),
    (
        "set_server_internal_flags",
        &["GOLDEN", "11", "12", "0", "0", ""],
    ),
    ("delete_server_info", &["GOLDEN"]),
    (
        "delete_member_from_list",
        &["golden-list", "STRING", "golden@example.org"],
    ),
    ("delete_member_from_list", &["golden-list", "USER", "$L0"]),
    ("delete_list", &["golden-list"]),
    (
        "delete_member_from_list",
        &["golden-list", "LIST", "golden-sub2"],
    ),
    ("delete_member_from_list", &["golden-sub2", "USER", "$L2"]),
    ("delete_list", &["golden-sub2"]),
    ("delete_list", &["golden-list"]),
    (
        "delete_cluster_data",
        &["golden-clu2", "syslib", "golden-lib"],
    ),
    (
        "delete_machine_from_cluster",
        &["GOLDEN-BOX2", "golden-clu2"],
    ),
    (
        "delete_machine_from_cluster",
        &["GOLDEN-BOX2", "cluster-00"],
    ),
    ("delete_cluster", &["golden-clu2"]),
    ("delete_machine", &["GOLDEN-BOX2"]),
    ("delete_user", &["goldenx"]),
    ("delete_user", &["$L0"]),
    ("update_user_status", &["goldenx", "0"]),
    ("delete_pobox", &["goldenx"]),
    ("delete_user", &["goldenx"]),
    ("delete_user_by_uid", &["$UNREG_UID2"]),
];

/// `(handle, crc on the pristine population, crc after WRITES)`, one entry per
/// READS entry: CRC-32 of the transcript [`record`] builds.
const READ_CRCS: &[(&str, u32, u32)] = &[
    ("get_all_logins", 0xcf41a241, 0xe1d594c8),
    ("get_all_active_logins", 0xa413e023, 0xbc60da4a),
    ("get_user_by_login", 0x55b4c11b, 0xf77ed7e3),
    ("get_user_by_uid", 0x87c793f0, 0x87c793f0),
    ("get_user_by_name", 0x8d5e7470, 0x2c5f9865),
    ("get_user_by_class", 0x719f4805, 0x5b18d175),
    ("get_user_by_mitid", 0x736e8e22, 0x95213816),
    ("get_finger_by_login", 0xc0a90404, 0xe8cb9a7c),
    ("get_pobox", 0x15688605, 0xf0e4fb40),
    ("get_all_poboxes", 0x55f2ab74, 0xde41ee29),
    ("get_poboxes_pop", 0x55f2ab74, 0xe60af940),
    ("get_poboxes_smtp", 0x8422c10a, 0xc18f74f6),
    ("get_machine", 0x8bc6efd8, 0xff109a61),
    ("get_cluster", 0xb2f3aee7, 0x2e6b3f3a),
    ("get_machine_to_cluster_map", 0x4e655417, 0x6974ddbc),
    ("get_cluster_data", 0x4038ef2d, 0x9bdd7574),
    ("get_list_info", 0x5d10da89, 0x04e957f5),
    ("expand_list_names", 0x04798316, 0x4df34102),
    ("get_ace_use", 0x03489f14, 0x5debc2d5),
    ("qualified_get_lists", 0x0839c094, 0x6db5ff38),
    ("get_members_of_list", 0x3c96ddaa, 0x0e22c921),
    ("get_lists_of_member", 0x9f9f7cf7, 0x1261e468),
    ("count_members_of_list", 0x04c37e64, 0xc8a5af57),
    ("get_server_info", 0xa261cb58, 0x69b4e23b),
    ("qualified_get_server", 0x136b845d, 0x6d7c9752),
    ("get_server_host_info", 0xe12cb526, 0x8ea9ec6d),
    ("qualified_get_server_host", 0x77e0d800, 0xf93b55b2),
    ("get_server_locations", 0xc4f6f166, 0x7bd50810),
    ("get_filesys_by_label", 0x6cf7a7d8, 0xede1bfc4),
    ("get_filesys_by_machine", 0x9568c1d2, 0xe33fbbbe),
    ("get_filesys_by_nfsphys", 0x9c9a67ef, 0x54d4ec57),
    ("get_filesys_by_group", 0x7e341f07, 0xdc90fdcb),
    ("get_all_nfsphys", 0xab9883a6, 0x6251aa53),
    ("get_nfsphys", 0x4e7d3f0e, 0x705dbdba),
    ("get_nfs_quota", 0x64548947, 0x21473bb5),
    ("get_nfs_quotas_by_partition", 0x5d3eeb70, 0xe88205c4),
    ("get_zephyr_class", 0x28bf15c9, 0x4422a8f2),
    ("get_server_host_access", 0xab45e493, 0x2956a1a2),
    ("get_service", 0x296386bc, 0xfa71d92a),
    ("get_printcap", 0xf5fa7f4e, 0x8c93e4fd),
    ("get_alias", 0x86bf0d6a, 0x1638e078),
    ("get_value", 0xe3e6c7b9, 0x488ceb6f),
    ("get_all_table_stats", 0x53b52107, 0xc15c0427),
    ("_help", 0x36619a3d, 0x36619a3d),
    ("_list_queries", 0x032e4846, 0x032e4846),
    ("_list_users", 0x7e0b1cf3, 0x7e0b1cf3),
];
/// `(handle, code for the unprivileged caller, code for root)` per WRITES then
/// DELETES entry; 0 is success.
const WRITE_CODES: &[(&str, i32, i32)] = &[
    ("add_user", 47836419, 0),
    ("add_user", 47836419, 0),
    ("register_user", 47836419, 0),
    ("update_user", 47836419, 0),
    ("update_user_shell", 0, 0),
    ("update_user_status", 47836419, 0),
    ("update_finger_by_login", 0, 0),
    ("set_pobox", 0, 0),
    ("set_pobox", 47836419, 0),
    ("delete_pobox", 47836419, 0),
    ("set_pobox_pop", 47836419, 0),
    ("add_machine", 47836419, 0),
    ("update_machine", 47836419, 0),
    ("add_cluster", 47836419, 0),
    ("update_cluster", 47836419, 0),
    ("add_machine_to_cluster", 47836419, 0),
    ("add_machine_to_cluster", 47836419, 0),
    ("add_cluster_data", 47836419, 0),
    ("add_list", 47836419, 0),
    ("add_list", 47836419, 0),
    ("update_list", 47836419, 0),
    ("add_member_to_list", 0, 47836423),
    ("add_member_to_list", 0, 47836423),
    ("add_member_to_list", 0, 47836423),
    ("add_member_to_list", 47836419, 0),
    ("add_server_info", 47836419, 0),
    ("update_server_info", 47836419, 0),
    ("set_server_internal_flags", 47836419, 0),
    ("reset_server_error", 0, 0),
    ("add_server_host_info", 0, 47836423),
    ("update_server_host_info", 0, 0),
    ("set_server_host_internal", 47836419, 0),
    ("reset_server_host_error", 0, 0),
    ("set_server_host_override", 0, 0),
    ("add_nfsphys", 47836419, 0),
    ("update_nfsphys", 47836419, 0),
    ("adjust_nfsphys_allocation", 47836419, 0),
    ("add_filesys", 47836419, 0),
    ("update_filesys", 47836419, 0),
    ("add_filesys", 47836419, 0),
    ("add_nfs_quota", 47836419, 0),
    ("update_nfs_quota", 47836419, 0),
    ("add_zephyr_class", 47836419, 0),
    ("update_zephyr_class", 47836419, 0),
    ("add_server_host_access", 47836419, 0),
    ("update_server_host_access", 47836419, 0),
    ("add_service", 47836419, 0),
    ("add_printcap", 47836419, 0),
    ("add_alias", 47836419, 0),
    ("add_value", 47836419, 0),
    ("update_value", 47836419, 0),
    ("delete_value", 47836419, 0),
    ("delete_alias", 47836419, 0),
    ("delete_printcap", 47836419, 0),
    ("delete_service", 47836419, 0),
    ("delete_server_host_access", 47836419, 0),
    ("delete_zephyr_class", 47836419, 0),
    ("delete_nfs_quota", 47836419, 0),
    ("delete_filesys", 47836419, 0),
    ("delete_filesys", 47836419, 0),
    ("delete_nfsphys", 47836419, 0),
    ("delete_server_host_info", 0, 47836434),
    ("delete_server_info", 47836419, 47836425),
    ("set_server_internal_flags", 47836419, 0),
    ("delete_server_info", 47836419, 0),
    ("delete_member_from_list", 0, 47836418),
    ("delete_member_from_list", 0, 47836418),
    ("delete_list", 47836425, 47836425),
    ("delete_member_from_list", 0, 47836418),
    ("delete_member_from_list", 47836419, 0),
    ("delete_list", 47836419, 0),
    ("delete_list", 0, 47836436),
    ("delete_cluster_data", 47836419, 0),
    ("delete_machine_from_cluster", 47836419, 0),
    ("delete_machine_from_cluster", 47836419, 0),
    ("delete_cluster", 47836419, 0),
    ("delete_machine", 47836419, 0),
    ("delete_user", 47836419, 47836425),
    ("delete_user", 47836419, 47836425),
    ("update_user_status", 47836419, 0),
    ("delete_pobox", 47836419, 0),
    ("delete_user", 47836419, 0),
    ("delete_user_by_uid", 47836419, 0),
];
/// `(relation, crc after WRITES, crc after DELETES)` of its `mrbackup` dump.
const DUMP_CRCS: &[(&str, u32, u32)] = &[
    ("alias", 0xa76e5f23, 0x74124b23),
    ("capacls", 0xd49d54d6, 0xd49d54d6),
    ("cluster", 0x89550a3a, 0x60696167),
    ("filesys", 0x9b968423, 0xfd28e3ba),
    ("hostaccess", 0x434399cb, 0xf98dc55e),
    ("list", 0x7b2f356b, 0x5ed6ab9c),
    ("machine", 0x1ec2383e, 0x65d9fcb7),
    ("mcmap", 0xdf98732d, 0x6842bef0),
    ("members", 0x5dc05477, 0x620bb421),
    ("nfsphys", 0xf9e20f38, 0xf501ba55),
    ("nfsquota", 0xad5ea81e, 0x00d3ee37),
    ("printcap", 0x2a8a198d, 0xa4fda9ab),
    ("serverhosts", 0x3d7df66b, 0x4dcda4b9),
    ("servers", 0xb2351ab2, 0xcd2d9e45),
    ("services", 0x417e41d8, 0x40af0f0a),
    ("strings", 0x40ea4fc0, 0x40ea4fc0),
    ("svc", 0x46f7843c, 0xf5ed06f9),
    ("users", 0x0411687c, 0x1b586ea6),
    ("values", 0x77af7d51, 0x9ff65052),
    ("zephyr", 0xfa8e47d4, 0x30c5f289),
];

/// Values the argument tables name by `$`-placeholder.
struct Names(BTreeMap<&'static str, String>);

impl Names {
    fn collect(d: &Deployment) -> Names {
        let p = &d.population;
        let state = d.state.read();
        let root = Caller::root("golden");
        let user = |login: &str| {
            d.registry
                .execute_read(&state, &root, "get_user_by_login", &[login.to_owned()])
                .unwrap()
                .remove(0)
        };
        let unreg_uid = |i: usize| {
            let (first, last, _) = &p.unregistered[i];
            d.registry
                .execute_read(
                    &state,
                    &root,
                    "get_user_by_name",
                    &[first.clone(), last.clone()],
                )
                .unwrap()
                .remove(0)
                .remove(1)
        };
        let l0 = user(&p.active_logins[0]);
        Names(BTreeMap::from([
            ("$L0", p.active_logins[0].clone()),
            ("$L1", p.active_logins[1].clone()),
            ("$L2", p.active_logins[2].clone()),
            ("$UID0", l0[1].clone()),
            ("$LAST0", l0[3].clone()),
            ("$FIRST0", l0[4].clone()),
            ("$MITID0", l0[7].clone()),
            ("$UNREG_UID", unreg_uid(0)),
            ("$UNREG_UID2", unreg_uid(1)),
            ("$NFS0", p.nfs_servers[0].clone()),
            ("$NFS1", p.nfs_servers[1].clone()),
            ("$POP0", p.pop_servers[0].clone()),
            ("$DIAL0", p.dialup_servers[0].clone()),
            ("$DIAL1", p.dialup_servers[1].clone()),
        ]))
    }

    fn resolve(&self, args: &[&str]) -> Vec<String> {
        args.iter()
            .map(|a| match self.0.get(a) {
                Some(v) => v.clone(),
                None => {
                    assert!(!a.starts_with('$'), "unknown placeholder {a}");
                    (*a).to_owned()
                }
            })
            .collect()
    }
}

/// Appends one call's outcome to a transcript: the error code, or every
/// tuple with unit separators between fields and a newline after each.
fn record(out: &mut String, who: &str, args: &[String], reply: Result<Vec<Vec<String>>, i32>) {
    out.push_str(who);
    out.push('(');
    out.push_str(&args.join("\u{1f}"));
    out.push_str(")\n");
    match reply {
        Err(code) => out.push_str(&format!("error {code}\n")),
        Ok(rows) => {
            for row in rows {
                out.push_str(&row.join("\u{1f}"));
                out.push('\n');
            }
        }
    }
}

/// One CRC per READS entry: every argument set, as root and as `$L0`.
fn read_pass(registry: &Registry, state: &MoiraState, names: &Names) -> Vec<(&'static str, u32)> {
    let callers = [
        Caller::root("golden"),
        Caller::new(&names.0["$L0"], "golden"),
    ];
    READS
        .iter()
        .map(|(query, arg_sets)| {
            let mut transcript = String::new();
            for args in *arg_sets {
                let args = names.resolve(args);
                for caller in &callers {
                    let reply = registry
                        .execute_read(state, caller, query, &args)
                        .map_err(|e| e.code());
                    record(&mut transcript, caller.who(), &args, reply);
                }
            }
            (*query, crc32(transcript.as_bytes()))
        })
        .collect()
}

/// Runs each entry as the unprivileged `$L1`, then as root; returns both
/// error codes (0 = success) per entry.
fn write_pass(
    registry: &Registry,
    state: &mut MoiraState,
    names: &Names,
    entries: &[(&'static str, &[&str])],
) -> Vec<(&'static str, i32, i32)> {
    let plain = Caller::new(&names.0["$L1"], "golden");
    let root = Caller::root("golden");
    entries
        .iter()
        .map(|(query, args)| {
            let args = names.resolve(args);
            let mut code = |caller: &Caller| match registry.execute(state, caller, query, &args) {
                Ok(_) => 0,
                Err(e) => e.code(),
            };
            (*query, code(&plain), code(&root))
        })
        .collect()
}

fn dump_crcs(state: &MoiraState) -> Vec<(String, u32)> {
    mrbackup(&state.db)
        .into_iter()
        .map(|(table, dump)| (table, crc32(dump.as_bytes())))
        .collect()
}

#[test]
fn typed_handles_reply_with_the_recorded_bytes() {
    let d = Deployment::build(&PopulationSpec::small());
    let names = Names::collect(&d);
    let registry = &d.registry;

    // Every handle is covered, by name.
    let read_names: BTreeSet<&str> = READS.iter().map(|(q, _)| *q).collect();
    let write_names: BTreeSet<&str> = WRITES.iter().chain(DELETES).map(|(q, _)| *q).collect();
    for h in registry.handles() {
        let covered = if h.kind.is_mutation() {
            write_names.contains(h.name)
        } else {
            read_names.contains(h.name) || UNPINNED.contains(&h.name)
        };
        assert!(
            covered,
            "{:?} handle {} has no golden entry",
            h.kind, h.name
        );
        assert!(
            h.kind != QueryKind::Delete || DELETES.iter().any(|(q, _)| *q == h.name),
            "{} belongs in DELETES",
            h.name
        );
    }

    let pristine = read_pass(registry, &d.state.read(), &names);
    let writes = write_pass(registry, &mut d.state.write(), &names, WRITES);
    let written = read_pass(registry, &d.state.read(), &names);
    let dump_written = dump_crcs(&d.state.read());
    let deletes = write_pass(registry, &mut d.state.write(), &names, DELETES);
    let dump_deleted = dump_crcs(&d.state.read());

    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("const READ_CRCS: &[(&str, u32, u32)] = &[");
        for ((q, a), (_, b)) in pristine.iter().zip(&written) {
            println!("    (\"{q}\", 0x{a:08x}, 0x{b:08x}),");
        }
        println!("];\nconst WRITE_CODES: &[(&str, i32, i32)] = &[");
        for (q, plain, root) in writes.iter().chain(&deletes) {
            println!("    (\"{q}\", {plain}, {root}),");
        }
        println!("];\nconst DUMP_CRCS: &[(&str, u32, u32)] = &[");
        for ((t, a), (_, b)) in dump_written.iter().zip(&dump_deleted) {
            println!("    (\"{t}\", 0x{a:08x}, 0x{b:08x}),");
        }
        println!("];");
        return;
    }

    assert_eq!(READ_CRCS.len(), READS.len());
    for (((q, a), (_, b)), want) in pristine.iter().zip(&written).zip(READ_CRCS) {
        assert_eq!((*q, *a, *b), *want, "{q}: replies (pristine, after writes)");
    }
    let codes: Vec<_> = writes.into_iter().chain(deletes).collect();
    assert_eq!(codes, WRITE_CODES, "error codes (unprivileged, root)");
    assert_eq!(DUMP_CRCS.len(), dump_written.len());
    for (((t, a), (_, b)), want) in dump_written.iter().zip(&dump_deleted).zip(DUMP_CRCS) {
        assert_eq!(
            (t.as_str(), *a, *b),
            *want,
            "{t}: mrbackup dump (after writes, after deletes)"
        );
    }
}
