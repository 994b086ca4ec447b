//! The workload generator: the operation sequence is a pure function of
//! `--seed` and of the population's names (the population seed stays 1988).
//!
//! The program under test receives only the generated requests. The
//! generator also keeps the model the correctness checks compare against:
//! the shell each login should have and which bench-made memberships should
//! exist, as of the last operation handed out.

use std::collections::HashSet;

use moira_protocol::wire::{MajorRequest, Request};

/// Shells the write operations rotate through (`/bin/csh` is what
/// `populate` gives everyone).
pub const SHELLS: [&str; 8] = [
    "/bin/csh",
    "/bin/sh",
    "/bin/tcsh",
    "/bin/ksh",
    "/bin/bash",
    "/bin/athena/tcsh",
    "/bin/athena/bash",
    "/usr/athena/bin/zsh",
];

/// SplitMix64: small, seedable, and the harness's own, so a change to the
/// repository's RNG cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request-path workloads (`propagate` draws its logins from
/// [`Rng`] directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 100 % `get_user_by_login`, logins uniform.
    ReadPoint,
    /// 100 % mutations.
    WriteCommit,
    /// Reads, multi-tuple retrieves, access pre-checks and 10 % mutations
    /// on one connection; logins Zipf(1).
    MixedAdmin,
}

/// One request, by index into the population's names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `get_user_by_login login`.
    GetUser(u32),
    /// `update_user_shell login shell`.
    SetShell(u32, u8),
    /// `add_member_to_list list USER login`.
    AddMember(u32, u32),
    /// `delete_member_from_list list USER login`.
    DelMember(u32, u32),
    /// `get_lists_of_member USER login`.
    ListsOfMember(u32),
    /// `get_members_of_list list`.
    MembersOfList(u32),
    /// `get_filesys_by_label login`.
    FilesysByLabel(u32),
    /// `Access` pre-check of `update_user_shell login shell`.
    AccessShell(u32),
}

/// Stated shares of each operation kind, in [`Op::kind`] order.
pub const KINDS: [&str; 8] = [
    "get_user_by_login",
    "update_user_shell",
    "add_member_to_list",
    "delete_member_from_list",
    "get_lists_of_member",
    "get_members_of_list",
    "get_filesys_by_label",
    "access:update_user_shell",
];

/// Of the mutations, this share is `update_user_shell`; the rest is
/// add/delete membership pairs, half each.
pub const SHELL_SHARE_OF_WRITES: f64 = 0.6;

impl Mix {
    /// The stated share of each [`KINDS`] entry.
    pub fn shares(self) -> [f64; 8] {
        let w = |total: f64| {
            let member = total * (1.0 - SHELL_SHARE_OF_WRITES) / 2.0;
            (total * SHELL_SHARE_OF_WRITES, member, member)
        };
        match self {
            Mix::ReadPoint => [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            Mix::WriteCommit => {
                let (s, a, d) = w(1.0);
                [0.0, s, a, d, 0.0, 0.0, 0.0, 0.0]
            }
            Mix::MixedAdmin => {
                let (s, a, d) = w(0.10);
                [0.50, s, a, d, 0.15, 0.15, 0.05, 0.05]
            }
        }
    }
}

impl Op {
    /// Index into [`KINDS`].
    #[cfg(test)]
    pub fn kind(self) -> usize {
        match self {
            Op::GetUser(_) => 0,
            Op::SetShell(..) => 1,
            Op::AddMember(..) => 2,
            Op::DelMember(..) => 3,
            Op::ListsOfMember(_) => 4,
            Op::MembersOfList(_) => 5,
            Op::FilesysByLabel(_) => 6,
            Op::AccessShell(_) => 7,
        }
    }

    /// True for the operations that commit a mutation.
    pub fn is_write(self) -> bool {
        matches!(
            self,
            Op::SetShell(..) | Op::AddMember(..) | Op::DelMember(..)
        )
    }
}

/// The names operations index into, in population order.
#[derive(Debug, Clone, Default)]
pub struct Names {
    /// Active logins.
    pub logins: Vec<String>,
    /// Public mailing lists.
    pub lists: Vec<String>,
    /// `(list, login)` pairs that are members already; the generator never
    /// adds one of these, so no add fails with `MR_EXISTS`.
    pub members: HashSet<(u32, u32)>,
}

impl Names {
    /// The request kind and its string arguments (query name first).
    pub fn call(&self, op: Op) -> (MajorRequest, Vec<&str>) {
        let login = |i: u32| self.logins[i as usize].as_str();
        let list = |i: u32| self.lists[i as usize].as_str();
        let query = MajorRequest::Query;
        match op {
            Op::GetUser(l) => (query, vec!["get_user_by_login", login(l)]),
            Op::SetShell(l, s) => (
                query,
                vec!["update_user_shell", login(l), SHELLS[s as usize]],
            ),
            Op::AddMember(m, l) => (query, vec!["add_member_to_list", list(m), "USER", login(l)]),
            Op::DelMember(m, l) => (
                query,
                vec!["delete_member_from_list", list(m), "USER", login(l)],
            ),
            Op::ListsOfMember(l) => (query, vec!["get_lists_of_member", "USER", login(l)]),
            Op::MembersOfList(m) => (query, vec!["get_members_of_list", list(m)]),
            Op::FilesysByLabel(l) => (query, vec!["get_filesys_by_label", login(l)]),
            Op::AccessShell(l) => (
                MajorRequest::Access,
                vec!["update_user_shell", login(l), SHELLS[1]],
            ),
        }
    }

    /// The wire request for `op`.
    pub fn request(&self, op: Op) -> Request {
        let (major, args) = self.call(op);
        Request::new(major, &args)
    }
}

/// The seeded operation stream plus the model of what it has written.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    /// Cumulative [`Mix::shares`] with the two membership kinds merged
    /// into one slot (adds and deletes alternate).
    cdf: [f64; 7],
    /// Cumulative Zipf(1) weights over login ranks; empty when uniform.
    zipf: Vec<f64>,
    logins: usize,
    lists: usize,
    existing: HashSet<(u32, u32)>,
    /// Shell index each login has as of the last operation handed out.
    pub shell: Vec<u8>,
    /// The membership added and not yet deleted.
    pub pending_member: Option<(u32, u32)>,
    /// Every `(list, login)` pair the stream has added at some point.
    pub touched_members: HashSet<(u32, u32)>,
}

impl OpGen {
    /// A stream for `mix` seeded with `seed` over `names`.
    pub fn new(mix: Mix, seed: u64, names: &Names) -> OpGen {
        let s = mix.shares();
        let slots = [s[0], s[1], s[2] + s[3], s[4], s[5], s[6], s[7]];
        let mut cdf = [0.0; 7];
        let mut acc = 0.0;
        for (c, share) in cdf.iter_mut().zip(slots) {
            acc += share;
            *c = acc;
        }
        let zipf = if mix == Mix::MixedAdmin {
            // Rank r is login r in population order whatever the seed, so
            // the hot keys (and their reply sizes) are the same in every
            // run; the seed decides only the order of draws.
            let mut acc = 0.0;
            (1..=names.logins.len())
                .map(|r| {
                    acc += 1.0 / r as f64;
                    acc
                })
                .collect()
        } else {
            Vec::new()
        };
        OpGen {
            rng: Rng::new(seed),
            cdf,
            zipf,
            logins: names.logins.len(),
            lists: names.lists.len(),
            existing: names.members.clone(),
            shell: vec![0; names.logins.len()],
            pending_member: None,
            touched_members: HashSet::new(),
        }
    }

    fn login(&mut self) -> u32 {
        if self.zipf.is_empty() {
            return self.rng.below(self.logins) as u32;
        }
        let total = *self.zipf.last().expect("non-empty population");
        let x = self.rng.unit() * total;
        self.zipf.partition_point(|&c| c <= x).min(self.logins - 1) as u32
    }

    /// The next write of the mutation sub-mix.
    fn write(&mut self, membership: bool) -> Op {
        if !membership {
            let l = self.login();
            // Always a different shell, so every update is a real commit.
            let step = 1 + self.rng.below(SHELLS.len() - 1) as u8;
            let s = (self.shell[l as usize] + step) % SHELLS.len() as u8;
            self.shell[l as usize] = s;
            return Op::SetShell(l, s);
        }
        if let Some((m, l)) = self.pending_member.take() {
            return Op::DelMember(m, l);
        }
        loop {
            let pair = (self.rng.below(self.lists) as u32, self.login());
            if !self.existing.contains(&pair) {
                self.pending_member = Some(pair);
                self.touched_members.insert(pair);
                return Op::AddMember(pair.0, pair.1);
            }
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        let x = self.rng.unit() * self.cdf[6];
        match self.cdf.partition_point(|&c| c <= x).min(6) {
            0 => Op::GetUser(self.login()),
            1 => self.write(false),
            2 => self.write(true),
            3 => Op::ListsOfMember(self.login()),
            4 => Op::MembersOfList(self.rng.below(self.lists) as u32),
            5 => Op::FilesysByLabel(self.login()),
            _ => Op::AccessShell(self.login()),
        }
    }

    /// A write whatever the mix — used to top the commit count up before
    /// the crash, in the same proportions as the mutation sub-mix.
    pub fn next_write(&mut self) -> Op {
        let membership = self.rng.unit() >= SHELL_SHARE_OF_WRITES;
        self.write(membership)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(logins: usize, lists: usize) -> Names {
        let mut members = HashSet::new();
        // Every third login is already on list 0.
        for l in (0..logins as u32).step_by(3) {
            members.insert((0, l));
        }
        Names {
            logins: (0..logins).map(|i| format!("user{i}")).collect(),
            lists: (0..lists).map(|i| format!("ml-{i:03}")).collect(),
            members,
        }
    }

    fn take(mix: Mix, seed: u64, n: usize) -> Vec<Op> {
        let names = names(1000, 20);
        let mut g = OpGen::new(mix, seed, &names);
        (0..n).map(|_| g.next_op()).collect()
    }

    #[test]
    fn same_seed_same_sequence_and_another_seed_another() {
        for mix in [Mix::ReadPoint, Mix::WriteCommit, Mix::MixedAdmin] {
            assert_eq!(take(mix, 7, 5000), take(mix, 7, 5000), "{mix:?}");
            assert_ne!(take(mix, 7, 5000), take(mix, 8, 5000), "{mix:?}");
        }
    }

    #[test]
    fn mix_shares_are_within_one_percent_of_the_stated_ones() {
        for mix in [Mix::ReadPoint, Mix::WriteCommit, Mix::MixedAdmin] {
            let n = 400_000;
            let mut counts = [0usize; 8];
            for op in take(mix, 11, n) {
                counts[op.kind()] += 1;
            }
            for (kind, (count, share)) in counts.iter().zip(mix.shares()).enumerate() {
                let got = *count as f64 / n as f64;
                assert!(
                    (got - share).abs() < 0.01,
                    "{mix:?} {}: {got:.4} vs stated {share:.4}",
                    KINDS[kind]
                );
            }
            assert!((mix.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn add_delete_pairing_leaves_table_sizes_unchanged() {
        let names = names(1000, 20);
        let mut g = OpGen::new(Mix::WriteCommit, 3, &names);
        let mut present: HashSet<(u32, u32)> = names.members.clone();
        let base = present.len();
        for _ in 0..50_000 {
            match g.next_op() {
                Op::AddMember(m, l) => assert!(present.insert((m, l)), "add of a present member"),
                Op::DelMember(m, l) => {
                    assert!(present.remove(&(m, l)), "delete of an absent member")
                }
                Op::SetShell(l, s) => assert_eq!(g.shell[l as usize], s),
                other => panic!("write_commit produced {other:?}"),
            }
            assert!(
                present.len() - base <= 1,
                "at most one bench membership exists"
            );
        }
        assert_eq!(
            present.len() - base,
            usize::from(g.pending_member.is_some())
        );
    }

    #[test]
    fn every_shell_update_changes_the_shell() {
        let names = names(50, 3);
        let mut g = OpGen::new(Mix::WriteCommit, 9, &names);
        let mut shell = vec![0u8; 50];
        for _ in 0..20_000 {
            if let Op::SetShell(l, s) = g.next_op() {
                assert_ne!(shell[l as usize], s);
                shell[l as usize] = s;
            }
        }
        assert_eq!(shell, g.shell);
    }

    #[test]
    fn zipf_favours_low_ranks_and_uniform_does_not() {
        let hot = |mix| {
            take(mix, 5, 100_000)
                .iter()
                .filter(|op| matches!(op, Op::GetUser(l) if *l < 10))
                .count() as f64
                / take(mix, 5, 100_000)
                    .iter()
                    .filter(|op| matches!(op, Op::GetUser(_)))
                    .count() as f64
        };
        // H(10)/H(1000) = 0.391; uniform gives 10/1000.
        assert!((hot(Mix::MixedAdmin) - 0.391).abs() < 0.02);
        assert!((hot(Mix::ReadPoint) - 0.01).abs() < 0.005);
    }

    #[test]
    fn requests_carry_the_named_arguments() {
        let names = names(10, 2);
        let r = names.request(Op::AddMember(1, 4));
        assert_eq!(r.major, MajorRequest::Query);
        assert_eq!(
            r.string_args().unwrap(),
            ["add_member_to_list", "ml-001", "USER", "user4"]
        );
        let r = names.request(Op::AccessShell(2));
        assert_eq!(r.major, MajorRequest::Access);
        assert_eq!(r.string_args().unwrap()[0], "update_user_shell");
    }
}
