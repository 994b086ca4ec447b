//! The Moira-to-server update protocol (§5.9).
//!
//! Goals, from the paper: "Completely automatic update for normal cases and
//! expected kinds of failures. Survives clean server crashes. Survives
//! clean Moira crashes. Easy to understand state and recovery by hand."
//! The strategy is atomic operations only: transfer everything first (with
//! checksums), then execute an instruction sequence whose file
//! installations are atomic renames, then confirm.
//!
//! The transfer phase is a manifest handshake rather than a blind full
//! send: Moira first ships the per-member CRC [`Manifest`], the host
//! replies with the names it is missing or holds stale (compared against
//! its installed copy of the target archive), and only those members cross
//! the wire. The host reconstructs the complete archive in manifest order
//! from the partial transfer plus its base copy, verifies the whole-archive
//! checksum, and installs it atomically — so the partial protocol keeps
//! exactly the integrity and idempotence guarantees of the full one.
//!
//! Stale members themselves need not cross whole: the host's reply carries
//! the CRC of its own base copy of each stale member, and when that matches
//! what Moira last pushed to the host, only a line-level patch
//! ([`line_patch`]) is sent. A member whose base the DCM cannot vouch for —
//! first push, evicted cache, tampered base — falls back to the full bytes,
//! and the whole-archive checksum still guards the reconstruction either
//! way, so a bad patch can never install.

// The update leg talks to hosts that may be down or hostile: errors surface
// as `UpdateError`, never as a panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;

use moira_krb::ticket::{Authenticator, Ticket};

use crate::archive::{crc32, Archive, Manifest};
use crate::host::{HostError, SimHost};
use crate::net::Network;

/// Suffix for staged files awaiting the atomic swap; stale ones are
/// "deleted (as it may be incomplete) when the next update starts".
pub const STAGING_SUFFIX: &str = ".moira_update";

/// Suffix for the previous version kept for `Revert`.
pub const BACKUP_SUFFIX: &str = ".moira_backup";

/// Where the instruction script is staged on the target.
pub const SCRIPT_PATH: &str = "/tmp/moira_script";

/// The §5.9 execution-phase instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    /// Extract one member of the transferred tar file into
    /// `dest.moira_update` — "Rather than extract all of the files at once,
    /// only the ones that are needed are extracted one at a time."
    Extract {
        /// Member name within the archive.
        member: String,
        /// Destination path (staged with [`STAGING_SUFFIX`]).
        dest: String,
    },
    /// Swap the staged file in via atomic rename, keeping the old version.
    Swap {
        /// The target path.
        file: String,
    },
    /// Put the old file back — "may be useful in the case of an erroneous
    /// installation."
    Revert {
        /// The target path.
        file: String,
    },
    /// Send a signal to the process whose pid is recorded in a file.
    Signal {
        /// Path of the pid file.
        pidfile: String,
    },
    /// Execute a supplied command.
    Exec {
        /// The command line.
        command: String,
    },
}

impl Instruction {
    /// Serializes to one script line.
    pub fn to_line(&self) -> String {
        match self {
            Instruction::Extract { member, dest } => format!("extract {member} {dest}"),
            Instruction::Swap { file } => format!("swap {file}"),
            Instruction::Revert { file } => format!("revert {file}"),
            Instruction::Signal { pidfile } => format!("signal {pidfile}"),
            Instruction::Exec { command } => format!("exec {command}"),
        }
    }

    /// Parses one script line.
    pub fn from_line(line: &str) -> Option<Instruction> {
        let mut words = line.splitn(2, ' ');
        let op = words.next()?;
        let rest = words.next().unwrap_or("");
        Some(match op {
            "extract" => {
                let mut parts = rest.splitn(2, ' ');
                Instruction::Extract {
                    member: parts.next()?.to_owned(),
                    dest: parts.next()?.to_owned(),
                }
            }
            "swap" => Instruction::Swap {
                file: rest.to_owned(),
            },
            "revert" => Instruction::Revert {
                file: rest.to_owned(),
            },
            "signal" => Instruction::Signal {
                pidfile: rest.to_owned(),
            },
            "exec" => Instruction::Exec {
                command: rest.to_owned(),
            },
            _ => return None,
        })
    }
}

/// A whole installation script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Script {
    /// Instructions in execution order.
    pub instructions: Vec<Instruction>,
}

impl Script {
    /// Builds the standard script for a service: extract + swap each
    /// archive member into place under `install_dir`, then run the
    /// service's install command.
    pub fn standard(archive: &Archive, install_dir: &str, install_cmd: &str) -> Script {
        let mut instructions = Vec::new();
        for (member, _) in archive.iter() {
            let dest = format!("{}/{member}", install_dir.trim_end_matches('/'));
            instructions.push(Instruction::Extract {
                member: member.to_owned(),
                dest: dest.clone(),
            });
            instructions.push(Instruction::Swap { file: dest });
        }
        instructions.push(Instruction::Exec {
            command: install_cmd.to_owned(),
        });
        Script { instructions }
    }

    /// Serializes the script.
    pub fn to_text(&self) -> String {
        self.instructions
            .iter()
            .map(|i| i.to_line() + "\n")
            .collect()
    }

    /// Parses a serialized script.
    pub fn from_text(text: &str) -> Option<Script> {
        let instructions = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(Instruction::from_line)
            .collect::<Option<Vec<_>>>()?;
        Some(Script { instructions })
    }
}

/// Failures the DCM observes from an update attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// Could not connect / host went away ("tagged for retry at a later
    /// time" — a soft error).
    HostDown,
    /// A single operation exceeded the timeout; "the connection is closed,
    /// and the installation assumed to have failed" (soft).
    Timeout,
    /// Transfer checksum mismatch (soft; retried).
    Checksum,
    /// The target could not parse what arrived (soft).
    BadData,
    /// The installation script exited non-zero (a hard error: recorded and
    /// reported via Zephyr).
    ExecFailed(i32),
    /// Kerberos mutual authentication failed at connection set-up (soft;
    /// retried — tickets may simply have expired).
    AuthFailed,
    /// Another update of the same host is already in progress (soft; the
    /// conflict clears when the other update finishes).
    Busy,
}

impl UpdateError {
    /// Hard errors stop retries until an operator resets them; soft errors
    /// are retried on later DCM passes.
    pub fn is_hard(&self) -> bool {
        matches!(self, UpdateError::ExecFailed(_))
    }

    /// Numeric code recorded in `hosterror`.
    pub fn code(&self) -> i32 {
        match self {
            UpdateError::HostDown => 100,
            UpdateError::Timeout => 101,
            UpdateError::Checksum => 102,
            UpdateError::BadData => 103,
            UpdateError::ExecFailed(c) => 1000 + c,
            UpdateError::AuthFailed => 104,
            UpdateError::Busy => 105,
        }
    }

    /// Recovers the error from its [`UpdateError::code`] value.
    pub fn from_code(code: i32) -> Option<UpdateError> {
        Some(match code {
            100 => UpdateError::HostDown,
            101 => UpdateError::Timeout,
            102 => UpdateError::Checksum,
            103 => UpdateError::BadData,
            104 => UpdateError::AuthFailed,
            105 => UpdateError::Busy,
            c if c >= 1000 => UpdateError::ExecFailed(c - 1000),
            _ => return None,
        })
    }

    /// Human-readable message recorded in `hosterrmsg`.
    pub fn message(&self) -> String {
        match self {
            UpdateError::HostDown => "server host unreachable".to_owned(),
            UpdateError::Timeout => "update timed out".to_owned(),
            UpdateError::Checksum => "file checksum mismatch".to_owned(),
            UpdateError::BadData => "transferred data unparsable".to_owned(),
            UpdateError::ExecFailed(c) => format!("install script exited {c}"),
            UpdateError::AuthFailed => "kerberos authentication failed".to_owned(),
            UpdateError::Busy => "host update already in progress".to_owned(),
        }
    }
}

/// Simulates the network leg of a transfer, applying the host's corruption
/// plan.
fn transmit(host: &SimHost, data: &[u8]) -> Vec<u8> {
    let mut wire = data.to_vec();
    if host.fail.corrupt_transfers && !wire.is_empty() {
        let idx = wire.len() / 2;
        wire[idx] ^= 0x20;
    }
    wire
}

/// One entry of the host's stale-member reply: a member it is missing or
/// holds stale, plus the CRC of its own base copy when it has one — the
/// DCM's opening to send a patch instead of the whole member.
type StaleEntry = (String, Option<u32>);

/// The host side of the manifest diff: manifest entries whose member is
/// missing from the base archive or whose contents hash differently, each
/// annotated with the base copy's CRC (if any).
fn stale_entries(manifest: &Manifest, base: Option<&Archive>) -> Vec<StaleEntry> {
    manifest
        .entries
        .iter()
        .filter_map(|(name, crc)| {
            let base_crc = base.and_then(|b| b.get(name)).map(crc32);
            (base_crc != Some(*crc)).then(|| (name.clone(), base_crc))
        })
        .collect()
}

/// Serializes the stale-member reply: `u32 count | per entry: u32 name len
/// | name | u8 has_base | [u32 base crc]`.
fn encode_stale(entries: &[StaleEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (name, base_crc) in entries {
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        match base_crc {
            Some(crc) => {
                out.push(1);
                out.extend_from_slice(&crc.to_be_bytes());
            }
            None => out.push(0),
        }
    }
    out
}

/// Parses a stale-member reply; `None` on any framing violation.
fn decode_stale(bytes: &[u8]) -> Option<Vec<StaleEntry>> {
    let mut pos = 0usize;
    let take_u32 = |pos: &mut usize| -> Option<u32> {
        let v = u32::from_be_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    };
    let count = take_u32(&mut pos)? as usize;
    if count > 1 << 20 {
        return None;
    }
    let mut entries = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let len = take_u32(&mut pos)? as usize;
        let name = String::from_utf8(bytes.get(pos..pos + len)?.to_vec()).ok()?;
        pos += len;
        let base_crc = match bytes.get(pos)? {
            0 => {
                pos += 1;
                None
            }
            1 => {
                pos += 1;
                Some(take_u32(&mut pos)?)
            }
            _ => return None,
        };
        entries.push((name, base_crc));
    }
    (pos == bytes.len()).then_some(entries)
}

/// A compact line-level patch turning `old` into `new`.
///
/// The generated data files are line records keyed by entity name, so a
/// handful of database rows changing leaves long runs of identical lines;
/// greedy monotone matching finds those runs and the patch carries only
/// copy directives plus the literal bytes of genuinely new lines.
///
/// Encoding: `u32 op count | per op: u8 tag` with tag 0 = copy
/// (`u32 start line | u32 line count` from `old`) and tag 1 = insert
/// (`u32 byte len | bytes`).
pub fn line_patch(old: &[u8], new: &[u8]) -> Vec<u8> {
    enum Op {
        Copy(u32, u32),
        Insert(Vec<u8>),
    }
    let old_lines: Vec<&[u8]> = old.split_inclusive(|&b| b == b'\n').collect();
    let mut index: HashMap<&[u8], Vec<usize>> = HashMap::new();
    for (i, line) in old_lines.iter().enumerate() {
        index.entry(line).or_default().push(i);
    }
    let mut ops: Vec<Op> = Vec::new();
    // Matches are monotone: each new line may only reuse an old line at or
    // past the cursor, so copies never run backwards and runs stay long.
    let mut cursor = 0usize;
    for line in new.split_inclusive(|&b| b == b'\n') {
        let hit = index.get(line).and_then(|positions| {
            let p = positions.partition_point(|&i| i < cursor);
            positions.get(p).copied()
        });
        match (hit, ops.last_mut()) {
            (Some(k), Some(Op::Copy(start, count))) if *start as usize + *count as usize == k => {
                *count += 1;
                cursor = k + 1;
            }
            (Some(k), _) => {
                ops.push(Op::Copy(k as u32, 1));
                cursor = k + 1;
            }
            (None, Some(Op::Insert(bytes))) => bytes.extend_from_slice(line),
            (None, _) => ops.push(Op::Insert(line.to_vec())),
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(&(ops.len() as u32).to_be_bytes());
    for op in &ops {
        match op {
            Op::Copy(start, count) => {
                out.push(0);
                out.extend_from_slice(&start.to_be_bytes());
                out.extend_from_slice(&count.to_be_bytes());
            }
            Op::Insert(bytes) => {
                out.push(1);
                out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
                out.extend_from_slice(bytes);
            }
        }
    }
    out
}

/// Applies a [`line_patch`] against the base bytes; `None` on framing
/// violations or copy directives outside the base.
pub fn apply_line_patch(old: &[u8], patch: &[u8]) -> Option<Vec<u8>> {
    let old_lines: Vec<&[u8]> = old.split_inclusive(|&b| b == b'\n').collect();
    let mut pos = 0usize;
    let take_u32 = |pos: &mut usize| -> Option<u32> {
        let v = u32::from_be_bytes(patch.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    };
    let count = take_u32(&mut pos)? as usize;
    if count > 1 << 20 {
        return None;
    }
    let mut out = Vec::new();
    for _ in 0..count {
        match patch.get(pos)? {
            0 => {
                pos += 1;
                let start = take_u32(&mut pos)? as usize;
                let lines = take_u32(&mut pos)? as usize;
                for line in old_lines.get(start..start.checked_add(lines)?)? {
                    out.extend_from_slice(line);
                }
            }
            1 => {
                pos += 1;
                let len = take_u32(&mut pos)? as usize;
                out.extend_from_slice(patch.get(pos..pos + len)?);
                pos += len;
            }
            _ => return None,
        }
    }
    (pos == patch.len()).then_some(out)
}

/// How one stale member crosses the wire.
enum MemberDelta {
    /// The complete member bytes — first push, unknown base, or a patch
    /// that would not have been smaller.
    Full(Vec<u8>),
    /// A [`line_patch`] against the base copy whose CRC the host reported.
    Patch(Vec<u8>),
}

/// Serializes the partial-transfer payload: `u32 entry count | per entry:
/// u32 name len | name | u8 tag (0 full, 1 patch) | u32 data len | data`.
fn encode_delta(entries: &[(String, MemberDelta)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (name, delta) in entries {
        out.extend_from_slice(&(name.len() as u32).to_be_bytes());
        out.extend_from_slice(name.as_bytes());
        let (tag, data) = match delta {
            MemberDelta::Full(d) => (0u8, d),
            MemberDelta::Patch(d) => (1u8, d),
        };
        out.push(tag);
        out.extend_from_slice(&(data.len() as u32).to_be_bytes());
        out.extend_from_slice(data);
    }
    out
}

/// Parses a partial-transfer payload; `None` on any framing violation.
fn decode_delta(bytes: &[u8]) -> Option<Vec<(String, MemberDelta)>> {
    let mut pos = 0usize;
    let take_u32 = |pos: &mut usize| -> Option<u32> {
        let v = u32::from_be_bytes(bytes.get(*pos..*pos + 4)?.try_into().ok()?);
        *pos += 4;
        Some(v)
    };
    let count = take_u32(&mut pos)? as usize;
    if count > 1 << 20 {
        return None;
    }
    let mut entries = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        let name_len = take_u32(&mut pos)? as usize;
        let name = String::from_utf8(bytes.get(pos..pos + name_len)?.to_vec()).ok()?;
        pos += name_len;
        let tag = *bytes.get(pos)?;
        pos += 1;
        let data_len = take_u32(&mut pos)? as usize;
        let data = bytes.get(pos..pos + data_len)?.to_vec();
        pos += data_len;
        entries.push((
            name,
            match tag {
                0 => MemberDelta::Full(data),
                1 => MemberDelta::Patch(data),
                _ => return None,
            },
        ));
    }
    (pos == bytes.len()).then_some(entries)
}

/// Byte-level accounting for one update attempt, returned by
/// [`run_update`]: how much of the transfer rode as line
/// patches versus whole members, and — on failure — which protocol leg
/// broke, so the DCM can count retries per leg.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Stale members shipped as line patches against the cached base.
    pub patch_members: u64,
    /// Encoded patch payload bytes.
    pub patch_bytes: u64,
    /// Stale members shipped whole.
    pub full_members: u64,
    /// Whole-member payload bytes.
    pub full_bytes: u64,
    /// The protocol leg in flight when the attempt failed; `None` on
    /// success. One of `connect`, `manifest`, `stale`, `delta`, `script`,
    /// `execute`, `confirm`.
    pub failed_leg: Option<&'static str>,
}

/// Kerberos credentials presented by the DCM at connection set-up.
#[derive(Debug, Clone)]
pub struct UpdateCredentials {
    /// Ticket for the host's `rcmd` service.
    pub ticket: Ticket,
    /// Fresh authenticator under the session key.
    pub authenticator: Authenticator,
}

/// Runs one complete update against a host — transfer phase, execution
/// phase, confirmation — with every connection and transfer leg routed
/// through `net`, which may partition, drop, or stall any of them. The
/// result is `Ok(())` only when the server confirmed a successful
/// installation; the [`TransferStats`] beside it carry the patch/whole
/// byte split and, on failure, the protocol leg that broke.
///
/// Hosts with a configured verifier reject connections whose `credentials`
/// are absent, forged, or replayed — "Kerberos is used to verify the
/// identity of both ends at connection set-up time" (§5.9.2).
///
/// The fault surface mirrors a real TCP update connection:
///
/// - connection set-up can fail (host partitioned away, SYN lost);
/// - any transfer leg (manifest, stale reply, partial archive, script)
///   can fail mid-stream;
/// - the **confirmation** leg can fail *after* the host executed the
///   script successfully. The DCM then sees a timeout even though the
///   files installed — precisely the ambiguity §5.9 resolves by making
///   installations idempotent ("extra installations are not harmful"),
///   so the inevitable retry converges.
///
/// `prev` is the archive the DCM last pushed to this host, if it still
/// holds one: stale members whose host-side base CRC matches the cached
/// copy are shipped as line patches against it instead of whole.
pub fn run_update(
    net: &dyn Network,
    host: &mut SimHost,
    credentials: Option<&UpdateCredentials>,
    archive: &Archive,
    prev: Option<&Archive>,
    target: &str,
    script: &Script,
) -> (Result<(), UpdateError>, TransferStats) {
    let mut stats = TransferStats::default();
    let result = update_legs(
        net,
        host,
        credentials,
        archive,
        prev,
        target,
        script,
        &mut stats,
    );
    (result, stats)
}

/// The legs of [`run_update`], in protocol order. `stats.failed_leg` names
/// the leg in flight, so an early `?` return leaves it pointing at the leg
/// that broke.
#[allow(clippy::too_many_arguments)]
fn update_legs(
    net: &dyn Network,
    host: &mut SimHost,
    credentials: Option<&UpdateCredentials>,
    archive: &Archive,
    prev: Option<&Archive>,
    target: &str,
    script: &Script,
    stats: &mut TransferStats,
) -> Result<(), UpdateError> {
    moira_common::lockorder::assert_may_block("update_legs");
    // A. Transfer phase.
    // A.1 Connect and authenticate.
    stats.failed_leg = Some("connect");
    net.connect(&host.name).map_err(|f| f.to_update_error())?;
    if !host.reachable() {
        return Err(UpdateError::HostDown);
    }
    if let Some(verifier) = &host.verifier {
        let Some(creds) = credentials else {
            return Err(UpdateError::AuthFailed);
        };
        if verifier
            .verify(&creds.ticket, &creds.authenticator)
            .is_err()
        {
            return Err(UpdateError::AuthFailed);
        }
    }
    if host.fail.hang {
        return Err(UpdateError::Timeout);
    }
    // Stale staging files from a crashed previous update are deleted first.
    let stale: Vec<String> = host
        .file_names()
        .iter()
        .filter(|n| n.ends_with(STAGING_SUFFIX))
        .map(|s| s.to_string())
        .collect();
    for path in stale {
        host.remove_file(&path);
    }

    // A.2 Send the archive manifest: per-member CRCs plus the checksum of
    // the complete serialized archive.
    stats.failed_leg = Some("manifest");
    let manifest_bytes = archive.manifest().to_bytes();
    net.transmit(&host.name, manifest_bytes.len())
        .map_err(|f| f.to_update_error())?;
    let received_manifest = transmit(host, &manifest_bytes);
    // — host side: a failed self-CRC means the manifest was mangled in
    // flight; nothing has been written, so the retry is clean.
    let Some(manifest) = Manifest::from_bytes(&received_manifest) else {
        return Err(UpdateError::Checksum);
    };

    // A.3 The host diffs the manifest against its installed copy of the
    // target archive and replies with the member names it needs, each
    // carrying the CRC of its own base copy when it has one. A missing
    // or unparseable base means everything is stale — the first push and
    // the recovery-from-tampering path are both just "all members".
    stats.failed_leg = Some("stale");
    let base = host.read_file(target).and_then(Archive::from_bytes);
    let reply = encode_stale(&stale_entries(&manifest, base.as_ref()));
    net.transmit(&host.name, reply.len())
        .map_err(|f| f.to_update_error())?;
    // — Moira side: an unparseable reply is bad data from the host.
    let Some(stale) = decode_stale(&reply) else {
        return Err(UpdateError::BadData);
    };

    // A.4 Transfer the stale members — as a line patch where the host's
    // base CRC matches the copy the DCM last pushed (and the patch is
    // actually smaller), otherwise whole.
    stats.failed_leg = Some("delta");
    let mut delta: Vec<(String, MemberDelta)> = Vec::with_capacity(stale.len());
    for (name, base_crc) in &stale {
        let Some(data) = archive.get(name) else {
            // The host asked for a member the archive does not carry; a
            // corrupted reply. The whole-archive verify would reject the
            // reconstruction anyway, so just skip it.
            continue;
        };
        let patch = base_crc
            .and_then(|crc| {
                let prev_member = prev?.get(name)?;
                (crc32(prev_member) == crc).then(|| line_patch(prev_member, data))
            })
            .filter(|patch| patch.len() < data.len());
        let entry = match patch {
            Some(patch) => {
                stats.patch_members += 1;
                stats.patch_bytes += patch.len() as u64;
                MemberDelta::Patch(patch)
            }
            None => {
                stats.full_members += 1;
                stats.full_bytes += data.len() as u64;
                MemberDelta::Full(data.to_vec())
            }
        };
        delta.push((name.clone(), entry));
    }
    let delta_bytes = encode_delta(&delta);
    net.transmit(&host.name, delta_bytes.len())
        .map_err(|f| f.to_update_error())?;
    let received = transmit(host, &delta_bytes);
    let Some(delta) = decode_delta(&received) else {
        return Err(UpdateError::Checksum);
    };
    // — host side: materialize each transferred member (applying patches
    // against the base copy), then reconstruct the complete archive in
    // manifest order, preferring fresh members over the base, and verify
    // the whole-archive checksum before anything touches disk.
    let mut fresh: HashMap<String, Vec<u8>> = HashMap::with_capacity(delta.len());
    for (name, entry) in delta {
        let data = match entry {
            MemberDelta::Full(data) => data,
            MemberDelta::Patch(patch) => {
                // A patch without a base copy is bad data; a patch that
                // does not apply means something was mangled in flight.
                let Some(base_member) = base.as_ref().and_then(|b| b.get(&name)) else {
                    return Err(UpdateError::BadData);
                };
                let Some(applied) = apply_line_patch(base_member, &patch) else {
                    return Err(UpdateError::Checksum);
                };
                applied
            }
        };
        fresh.insert(name, data);
    }
    let mut rebuilt = Archive::new();
    for (name, _) in &manifest.entries {
        let data = fresh
            .get(name)
            .map(|d| d.as_slice())
            .or_else(|| base.as_ref().and_then(|b| b.get(name)));
        let Some(data) = data else {
            return Err(UpdateError::BadData);
        };
        if rebuilt.add(name, data.to_vec()).is_err() {
            return Err(UpdateError::BadData);
        }
    }
    let rebuilt_bytes = rebuilt.to_bytes();
    if crc32(&rebuilt_bytes) != manifest.full_crc {
        return Err(UpdateError::Checksum);
    }
    match host.write_file(target, &rebuilt_bytes) {
        Ok(()) => {}
        Err(HostError::Down) => return Err(UpdateError::HostDown),
        Err(_) => return Err(UpdateError::BadData),
    }

    // A.5 Transfer the installation instruction sequence.
    stats.failed_leg = Some("script");
    let script_text = script.to_text();
    net.transmit(&host.name, script_text.len())
        .map_err(|f| f.to_update_error())?;
    let received_script = transmit(host, script_text.as_bytes());
    if crc32(&received_script) != crc32(script_text.as_bytes()) {
        return Err(UpdateError::Checksum);
    }
    match host.write_file(SCRIPT_PATH, &received_script) {
        Ok(()) => {}
        Err(_) => return Err(UpdateError::HostDown),
    }
    // A.6 Flush all data to disk — the in-memory host is always durable.

    // B. Execution phase, driven by a single command from Moira; the host
    // executes the staged script against the staged archive.
    stats.failed_leg = Some("execute");
    net.transmit(&host.name, 1)
        .map_err(|f| f.to_update_error())?;
    let result = execute_on_host(host, target);

    // C. Confirm installation. The confirmation travels back over the
    // network: if it is lost, Moira must assume failure and retry, even
    // though the host may have installed everything.
    match result {
        Ok(0) => {
            stats.failed_leg = Some("confirm");
            net.transmit(&host.name, 1)
                .map_err(|f| f.to_update_error())?;
            stats.failed_leg = None;
            Ok(())
        }
        Ok(code) => Err(UpdateError::ExecFailed(code)),
        Err(HostError::Down) => Err(UpdateError::HostDown),
        Err(_) => Err(UpdateError::BadData),
    }
}

/// The server side of the execution phase: parse the staged script and run
/// it. Public so crash-recovery tests can re-drive a rebooted host.
pub fn execute_on_host(host: &mut SimHost, target: &str) -> Result<i32, HostError> {
    let script_bytes = match host.read_file(SCRIPT_PATH) {
        Some(b) => b.to_vec(),
        None => return Ok(200),
    };
    let Some(script) = String::from_utf8(script_bytes)
        .ok()
        .and_then(|t| Script::from_text(&t))
    else {
        return Ok(201);
    };
    let Some(archive) = host.read_file(target).and_then(Archive::from_bytes) else {
        return Ok(202);
    };
    for instruction in &script.instructions {
        match instruction {
            Instruction::Extract { member, dest } => {
                let Some(data) = archive.get(member).map(|d| d.to_vec()) else {
                    return Ok(203);
                };
                host.write_file(&format!("{dest}{STAGING_SUFFIX}"), &data)?;
            }
            Instruction::Swap { file } => {
                // Keep the old version for Revert, then swap atomically.
                if let Some(old) = host.read_file(file).map(|d| d.to_vec()) {
                    host.write_file(&format!("{file}{BACKUP_SUFFIX}"), &old)?;
                }
                host.rename(&format!("{file}{STAGING_SUFFIX}"), file)?;
            }
            Instruction::Revert { file } => {
                host.rename(&format!("{file}{BACKUP_SUFFIX}"), file)?;
            }
            Instruction::Signal { pidfile } => host.signal(pidfile)?,
            Instruction::Exec { command } => {
                let code = host.exec(command)?;
                if code != 0 {
                    return Ok(code);
                }
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::PerfectNetwork;

    /// [`run_update`] with the defaults most tests want: a perfect network,
    /// no credentials, no cached base, stats dropped.
    fn push(
        host: &mut SimHost,
        archive: &Archive,
        target: &str,
        script: &Script,
    ) -> Result<(), UpdateError> {
        run_update(&PerfectNetwork, host, None, archive, None, target, script).0
    }

    fn sample_archive() -> Archive {
        let mut a = Archive::new();
        a.add("passwd.db", b"babette:*:6530\n".to_vec()).unwrap();
        a.add("uid.db", b"6530.uid\n".to_vec()).unwrap();
        a
    }

    fn sample_script(a: &Archive) -> Script {
        Script::standard(a, "/var/hesiod", "restart-hesiod")
    }

    #[test]
    fn script_round_trip() {
        let a = sample_archive();
        let s = sample_script(&a);
        assert_eq!(Script::from_text(&s.to_text()).unwrap(), s);
        assert!(Script::from_text("garbage line here\n").is_none());
        // Exercise each instruction's serialization.
        for inst in [
            Instruction::Revert {
                file: "/etc/passwd".into(),
            },
            Instruction::Signal {
                pidfile: "/var/run/hesiod.pid".into(),
            },
        ] {
            assert_eq!(Instruction::from_line(&inst.to_line()).unwrap(), inst);
        }
    }

    #[test]
    fn successful_update_installs_files() {
        let mut host = SimHost::new("SUOMI.MIT.EDU");
        let a = sample_archive();
        push(&mut host, &a, "/tmp/hesiod.out", &sample_script(&a)).unwrap();
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
        assert_eq!(host.read_file("/var/hesiod/uid.db").unwrap(), b"6530.uid\n");
        assert_eq!(host.exec_log, vec!["restart-hesiod"]);
        // No staging debris.
        assert!(!host
            .file_names()
            .iter()
            .any(|n| n.ends_with(STAGING_SUFFIX)));
    }

    #[test]
    fn reinstallation_is_idempotent() {
        // "Since the all the data files being prepared are valid, extra
        // installations are not harmful."
        let mut host = SimHost::new("X");
        let a = sample_archive();
        let s = sample_script(&a);
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
    }

    #[test]
    fn down_host_reported() {
        let mut host = SimHost::new("X");
        host.up = false;
        let a = sample_archive();
        assert_eq!(
            push(&mut host, &a, "/tmp/t", &sample_script(&a)),
            Err(UpdateError::HostDown)
        );
        host.reboot();
        host.fail.refuse_connect = true;
        assert_eq!(
            push(&mut host, &a, "/tmp/t", &sample_script(&a)),
            Err(UpdateError::HostDown)
        );
    }

    #[test]
    fn corruption_caught_by_checksum() {
        let mut host = SimHost::new("X");
        host.fail.corrupt_transfers = true;
        let a = sample_archive();
        assert_eq!(
            push(&mut host, &a, "/tmp/t", &sample_script(&a)),
            Err(UpdateError::Checksum)
        );
        // Nothing was installed.
        assert!(host.read_file("/var/hesiod/passwd.db").is_none());
    }

    #[test]
    fn timeout_reported() {
        let mut host = SimHost::new("X");
        host.fail.hang = true;
        let a = sample_archive();
        assert_eq!(
            push(&mut host, &a, "/tmp/t", &sample_script(&a)),
            Err(UpdateError::Timeout)
        );
    }

    #[test]
    fn exec_failure_is_hard() {
        let mut host = SimHost::new("X");
        host.fail.fail_exec_with = Some(9);
        let a = sample_archive();
        let err = push(&mut host, &a, "/tmp/t", &sample_script(&a)).unwrap_err();
        assert_eq!(err, UpdateError::ExecFailed(9));
        assert!(err.is_hard());
        assert!(!UpdateError::HostDown.is_hard());
    }

    #[test]
    fn crash_mid_execution_never_tears_installed_files() {
        let a = sample_archive();
        let s = sample_script(&a);
        // Install a good old version first.
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        let mut newer = Archive::new();
        newer.add("passwd.db", b"NEW CONTENTS\n".to_vec()).unwrap();
        newer.add("uid.db", b"NEW UID\n".to_vec()).unwrap();
        // Crash at every possible op count and verify: each installed file
        // is either the complete old or the complete new version.
        for crash_at in 0..12u64 {
            let mut h = SimHost::new("X");
            push(&mut h, &a, "/tmp/t", &s).unwrap();
            h.fail.crash_after_ops = Some(crash_at);
            let result = push(
                &mut h,
                &newer,
                "/tmp/t",
                &Script::standard(&newer, "/var/hesiod", "restart"),
            );
            if result.is_ok() {
                assert_eq!(
                    h.read_file("/var/hesiod/passwd.db").unwrap(),
                    b"NEW CONTENTS\n"
                );
                continue;
            }
            for (file, old, new) in [
                (
                    "/var/hesiod/passwd.db",
                    &b"babette:*:6530\n"[..],
                    &b"NEW CONTENTS\n"[..],
                ),
                ("/var/hesiod/uid.db", &b"6530.uid\n"[..], &b"NEW UID\n"[..]),
            ] {
                let contents = h.read_file(file).unwrap();
                assert!(
                    contents == old || contents == new,
                    "crash_at={crash_at}: torn file {file}: {contents:?}"
                );
            }
        }
    }

    #[test]
    fn retry_after_crash_converges() {
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        host.fail.crash_after_ops = Some(2);
        assert!(push(&mut host, &a, "/tmp/t", &s).is_err());
        // "Updates not received will be retried at a later point until they
        // succeed."
        host.reboot();
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
    }

    #[test]
    fn stale_staging_files_cleared_on_next_update() {
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        host.write_file("/var/hesiod/passwd.db.moira_update", b"INCOMPLETE")
            .unwrap();
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        assert!(!host
            .file_names()
            .iter()
            .any(|n| n.ends_with(STAGING_SUFFIX)));
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
    }

    #[test]
    fn revert_restores_previous_version() {
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        let mut newer = Archive::new();
        newer.add("passwd.db", b"BROKEN\n".to_vec()).unwrap();
        newer.add("uid.db", b"BROKEN\n".to_vec()).unwrap();
        push(
            &mut host,
            &newer,
            "/tmp/t",
            &Script::standard(&newer, "/var/hesiod", "restart"),
        )
        .unwrap();
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"BROKEN\n"
        );
        // An operator-driven revert script puts the old file back.
        let revert = Script {
            instructions: vec![Instruction::Revert {
                file: "/var/hesiod/passwd.db".into(),
            }],
        };
        push(&mut host, &Archive::new(), "/tmp/t", &revert).unwrap();
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
    }

    #[test]
    fn signal_instruction_delivers() {
        let a = Archive::new();
        let s = Script {
            instructions: vec![Instruction::Signal {
                pidfile: "/var/run/named.pid".into(),
            }],
        };
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        assert_eq!(host.signals, vec!["/var/run/named.pid"]);
    }

    #[test]
    fn error_codes_round_trip() {
        for err in [
            UpdateError::HostDown,
            UpdateError::Timeout,
            UpdateError::Checksum,
            UpdateError::BadData,
            UpdateError::AuthFailed,
            UpdateError::Busy,
            UpdateError::ExecFailed(0),
            UpdateError::ExecFailed(203),
        ] {
            assert_eq!(UpdateError::from_code(err.code()), Some(err), "{err:?}");
        }
        assert_eq!(UpdateError::from_code(0), None);
        assert_eq!(UpdateError::from_code(99), None);
        assert!(!UpdateError::Busy.is_hard(), "busy is retried, not fatal");
    }

    /// A test network that fails the Nth leg (0 = connect) with a fixed
    /// fault, succeeding on every other leg.
    struct FailLeg {
        fail_at: u64,
        fault: crate::net::NetFault,
        legs: std::sync::atomic::AtomicU64,
    }

    impl FailLeg {
        fn new(fail_at: u64, fault: crate::net::NetFault) -> FailLeg {
            FailLeg {
                fail_at,
                fault,
                legs: std::sync::atomic::AtomicU64::new(0),
            }
        }

        fn roll(&self) -> Result<(), crate::net::NetFault> {
            let n = self.legs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if n == self.fail_at {
                Err(self.fault)
            } else {
                Ok(())
            }
        }
    }

    impl Network for FailLeg {
        fn connect(&self, _host: &str) -> Result<(), crate::net::NetFault> {
            self.roll()
        }

        fn transmit(&self, _host: &str, _len: usize) -> Result<(), crate::net::NetFault> {
            self.roll()
        }
    }

    #[test]
    fn network_fault_on_any_leg_is_soft_and_retry_converges() {
        use crate::net::NetFault;
        let a = sample_archive();
        let s = sample_script(&a);
        // Seven legs: connect, manifest, stale reply, partial archive,
        // script, execute-go, confirm.
        for leg in 0..7u64 {
            let mut host = SimHost::new("X");
            let net = FailLeg::new(leg, NetFault::Dropped);
            let err = run_update(&net, &mut host, None, &a, None, "/tmp/t", &s)
                .0
                .unwrap_err();
            assert!(!err.is_hard(), "leg {leg}: {err:?}");
            // Retry over a healed network always converges to the full
            // install, whatever state the failed attempt left behind.
            push(&mut host, &a, "/tmp/t", &s).unwrap();
            assert_eq!(
                host.read_file("/var/hesiod/passwd.db").unwrap(),
                b"babette:*:6530\n"
            );
        }
    }

    #[test]
    fn lost_confirmation_reports_timeout_but_files_installed() {
        use crate::net::NetFault;
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        // Leg 6 is the confirmation; the host has done all the work.
        let net = FailLeg::new(6, NetFault::TimedOut);
        assert_eq!(
            run_update(&net, &mut host, None, &a, None, "/tmp/t", &s).0,
            Err(UpdateError::Timeout)
        );
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n",
            "the install completed even though Moira never heard the confirm"
        );
        // The retried update is harmless ("extra installations are not
        // harmful") and this time confirms.
        push(&mut host, &a, "/tmp/t", &s).unwrap();
    }

    #[test]
    fn partition_reported_as_host_down() {
        use crate::net::NetFault;
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        let net = FailLeg::new(0, NetFault::Partitioned);
        assert_eq!(
            run_update(&net, &mut host, None, &a, None, "/tmp/t", &s).0,
            Err(UpdateError::HostDown)
        );
        assert!(host.file_names().is_empty(), "nothing reached the host");
    }

    /// A network that records every transmit length, for observing how many
    /// bytes each leg put on the wire.
    #[derive(Default)]
    struct RecordNet {
        lens: std::sync::Mutex<Vec<usize>>,
    }

    impl RecordNet {
        /// Transmit lengths of the last update: `[manifest, stale reply,
        /// partial archive, script, go, confirm]`.
        fn legs(&self) -> Vec<usize> {
            self.lens.lock().unwrap().clone()
        }
    }

    impl Network for RecordNet {
        fn connect(&self, _host: &str) -> Result<(), crate::net::NetFault> {
            Ok(())
        }

        fn transmit(&self, _host: &str, len: usize) -> Result<(), crate::net::NetFault> {
            self.lens.lock().unwrap().push(len);
            Ok(())
        }
    }

    #[test]
    fn second_update_ships_only_stale_members() {
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();

        // Change one of the two members.
        let mut b = Archive::new();
        b.add("passwd.db", b"babette:*:6530\nnewbie:*:7000\n".to_vec())
            .unwrap();
        b.add("uid.db", b"6530.uid\n".to_vec()).unwrap();
        let net = RecordNet::default();
        run_update(
            &net,
            &mut host,
            None,
            &b,
            None,
            "/tmp/t",
            &sample_script(&b),
        )
        .0
        .unwrap();
        let legs = net.legs();
        let expected_partial = encode_delta(&[(
            "passwd.db".to_owned(),
            MemberDelta::Full(b.get("passwd.db").unwrap().to_vec()),
        )])
        .len();
        assert_eq!(legs[2], expected_partial, "only passwd.db crossed");
        assert!(legs[2] < b.to_bytes().len());
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\nnewbie:*:7000\n"
        );

        // A third push with nothing changed transfers an empty delta.
        let net = RecordNet::default();
        run_update(
            &net,
            &mut host,
            None,
            &b,
            None,
            "/tmp/t",
            &sample_script(&b),
        )
        .0
        .unwrap();
        assert_eq!(
            net.legs()[2],
            encode_delta(&[]).len(),
            "no stale members: the partial leg is the empty frame"
        );
    }

    #[test]
    fn corrupted_base_falls_back_to_full_transfer() {
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();
        // Someone tampered with the host's copy of the target archive.
        host.write_file("/tmp/t", b"NOT AN ARCHIVE").unwrap();
        let net = RecordNet::default();
        run_update(&net, &mut host, None, &a, Some(&a), "/tmp/t", &s)
            .0
            .unwrap();
        let expected: Vec<(String, MemberDelta)> = a
            .iter()
            .map(|(n, d)| (n.to_owned(), MemberDelta::Full(d.to_vec())))
            .collect();
        assert_eq!(
            net.legs()[2],
            encode_delta(&expected).len(),
            "unparseable base: every member ships whole, even with a cached prev"
        );
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\n"
        );
    }

    #[test]
    fn removed_member_disappears_from_target_archive() {
        let a = sample_archive();
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &sample_script(&a)).unwrap();
        let mut b = Archive::new();
        b.add("passwd.db", b"babette:*:6530\n".to_vec()).unwrap();
        push(&mut host, &b, "/tmp/t", &sample_script(&b)).unwrap();
        // The reconstructed target archive matches the new archive exactly:
        // the dropped member is gone, not resurrected from the base copy.
        let installed = Archive::from_bytes(host.read_file("/tmp/t").unwrap()).unwrap();
        assert_eq!(installed, b);
    }

    #[test]
    fn stale_reply_round_trip() {
        for entries in [
            vec![],
            vec![("passwd.db".to_owned(), Some(0xdead_beef))],
            vec![
                ("a".to_owned(), None),
                ("b c".to_owned(), Some(0)),
                (String::new(), None),
            ],
        ] {
            assert_eq!(decode_stale(&encode_stale(&entries)), Some(entries));
        }
        assert_eq!(decode_stale(&[0, 0, 0, 1]), None, "truncated");
        let mut extra = encode_stale(&[("x".to_owned(), None)]);
        extra.push(0);
        assert_eq!(decode_stale(&extra), None, "trailing garbage");
        // An invalid has_base tag is a framing violation.
        let mut bad = encode_stale(&[("x".to_owned(), None)]);
        let tag_at = bad.len() - 1;
        bad[tag_at] = 7;
        assert_eq!(decode_stale(&bad), None, "bad has_base tag");
    }

    #[test]
    fn line_patch_round_trip() {
        let cases: &[(&[u8], &[u8])] = &[
            (b"", b""),
            (b"", b"new file\n"),
            (b"old\n", b""),
            (b"a\nb\nc\n", b"a\nb\nc\n"),
            (b"a\nb\nc\n", b"a\nB\nc\n"),
            (b"a\nb\nc\nd\n", b"b\nd\na\n"),
            (b"x\ny\n", b"x\ny\nz"), // no trailing newline
            (b"dup\ndup\nq\n", b"dup\nq\ndup\n"),
            (
                b"bytes\x00with\x01noise\n",
                b"bytes\x00with\x01noise\nmore\n",
            ),
        ];
        for (old, new) in cases {
            let patch = line_patch(old, new);
            assert_eq!(
                apply_line_patch(old, &patch).as_deref(),
                Some(*new),
                "old={old:?} new={new:?}"
            );
        }
        // A copy directive past the end of the base must not apply.
        let mut patch = Vec::new();
        patch.extend_from_slice(&1u32.to_be_bytes());
        patch.push(0);
        patch.extend_from_slice(&5u32.to_be_bytes());
        patch.extend_from_slice(&1u32.to_be_bytes());
        assert_eq!(apply_line_patch(b"one line\n", &patch), None);
        // Truncations never apply.
        let patch = line_patch(b"a\nb\n", b"a\nc\n");
        for cut in 0..patch.len() {
            assert!(
                apply_line_patch(b"a\nb\n", &patch[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn line_patch_of_small_edit_is_small() {
        // 10k passwd-style lines, 10 changed: the patch is a few copy
        // directives plus the changed lines, far below the full member.
        let old: Vec<u8> = (0..10_000)
            .flat_map(|i| format!("user{i}:*:{}:/bin/csh\n", 5000 + i).into_bytes())
            .collect();
        let new: Vec<u8> = (0..10_000)
            .flat_map(|i| {
                let shell = if i % 1000 == 0 {
                    "/bin/tcsh"
                } else {
                    "/bin/csh"
                };
                format!("user{i}:*:{}:{shell}\n", 5000 + i).into_bytes()
            })
            .collect();
        let patch = line_patch(&old, &new);
        assert_eq!(apply_line_patch(&old, &patch).as_deref(), Some(&new[..]));
        assert!(
            patch.len() * 100 < new.len(),
            "patch {} bytes vs member {} bytes",
            patch.len(),
            new.len()
        );
    }

    #[test]
    fn matching_base_ships_patch_not_member() {
        // Push a large member, change a little, push again with `prev`
        // cached: the partial leg carries a patch, not the member.
        let big: Vec<u8> = (0..2_000)
            .flat_map(|i| format!("user{i}:*:{}\n", 5000 + i).into_bytes())
            .collect();
        let mut changed = big.clone();
        changed.extend_from_slice(b"newbie:*:7000\n");
        let a = Archive::from_members(vec![("passwd.db".into(), big)]).unwrap();
        let b = Archive::from_members(vec![("passwd.db".into(), changed.clone())]).unwrap();
        let s = sample_script(&b);
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();

        let net = RecordNet::default();
        run_update(&net, &mut host, None, &b, Some(&a), "/tmp/t", &s)
            .0
            .unwrap();
        let member_len = b.get("passwd.db").unwrap().len();
        assert!(
            net.legs()[2] * 10 < member_len,
            "patch leg {} vs member {}",
            net.legs()[2],
            member_len
        );
        assert_eq!(host.read_file("/var/hesiod/passwd.db").unwrap(), changed);
        assert_eq!(
            Archive::from_bytes(host.read_file("/tmp/t").unwrap()).unwrap(),
            b,
            "the reconstructed target archive is exact"
        );
    }

    #[test]
    fn mismatched_base_falls_back_to_whole_member() {
        // The DCM's cached prev does not match what the host actually
        // holds (say the host was re-imaged from an older push): the CRC
        // gate rejects the patch and the whole member ships, converging.
        let a = sample_archive();
        let s = sample_script(&a);
        let mut host = SimHost::new("X");
        push(&mut host, &a, "/tmp/t", &s).unwrap();

        let mut b = Archive::new();
        b.add("passwd.db", b"babette:*:6530\nnewbie:*:7000\n".to_vec())
            .unwrap();
        b.add("uid.db", b"6530.uid\n".to_vec()).unwrap();
        let mut wrong_prev = Archive::new();
        wrong_prev
            .add("passwd.db", b"ancient:*:1\n".to_vec())
            .unwrap();
        wrong_prev.add("uid.db", b"1.uid\n".to_vec()).unwrap();
        let net = RecordNet::default();
        run_update(
            &net,
            &mut host,
            None,
            &b,
            Some(&wrong_prev),
            "/tmp/t",
            &sample_script(&b),
        )
        .0
        .unwrap();
        let expected = encode_delta(&[(
            "passwd.db".to_owned(),
            MemberDelta::Full(b.get("passwd.db").unwrap().to_vec()),
        )])
        .len();
        assert_eq!(net.legs()[2], expected, "whole member, no patch");
        assert_eq!(
            host.read_file("/var/hesiod/passwd.db").unwrap(),
            b"babette:*:6530\nnewbie:*:7000\n"
        );
    }

    #[test]
    fn transfer_stats_split_patch_and_whole_members() {
        // First push: everything ships whole. Second push with a small
        // edit and the prev archive cached: the changed member rides as a
        // patch. A lost confirmation pins the failure on that leg.
        let big: Vec<u8> = (0..2_000)
            .flat_map(|i| format!("user{i}:*:{}\n", 5000 + i).into_bytes())
            .collect();
        let mut changed = big.clone();
        changed.extend_from_slice(b"newbie:*:7000\n");
        let a = Archive::from_members(vec![("passwd.db".into(), big)]).unwrap();
        let b = Archive::from_members(vec![("passwd.db".into(), changed)]).unwrap();

        let mut host = SimHost::new("X");
        let net = PerfectNetwork;
        let (result, first) = run_update(
            &net,
            &mut host,
            None,
            &a,
            None,
            "/tmp/t",
            &sample_script(&a),
        );
        result.unwrap();
        assert_eq!(first.failed_leg, None);
        assert_eq!(first.patch_members, 0);
        assert_eq!(first.full_members, 1);
        assert_eq!(first.full_bytes, a.get("passwd.db").unwrap().len() as u64);

        let (result, second) = run_update(
            &net,
            &mut host,
            None,
            &b,
            Some(&a),
            "/tmp/t",
            &sample_script(&b),
        );
        result.unwrap();
        assert_eq!(second.failed_leg, None);
        assert_eq!(second.patch_members, 1);
        assert_eq!(second.full_members, 0);
        assert!(
            second.patch_bytes > 0
                && second.patch_bytes < b.get("passwd.db").unwrap().len() as u64 / 10,
            "patch bytes {} vs member {}",
            second.patch_bytes,
            b.get("passwd.db").unwrap().len()
        );

        // An unreachable host fails on the connect leg.
        let mut downed = SimHost::new("Y");
        downed.up = false;
        let (result, failed) = run_update(
            &net,
            &mut downed,
            None,
            &a,
            None,
            "/tmp/t",
            &sample_script(&a),
        );
        assert_eq!(result, Err(UpdateError::HostDown));
        assert_eq!(failed.failed_leg, Some("connect"));

        // Fault network leg 5 (0-indexed: connect, manifest, stale, delta,
        // script, execute-go, confirm): the failure lands on the execute
        // leg.
        let net = FailLeg::new(5, crate::net::NetFault::TimedOut);
        let (result, mid) = run_update(
            &net,
            &mut SimHost::new("Z"),
            None,
            &a,
            None,
            "/tmp/t",
            &sample_script(&a),
        );
        assert_eq!(result, Err(UpdateError::Timeout));
        assert_eq!(mid.failed_leg, Some("execute"));
    }

    #[test]
    fn missing_member_is_soft_error() {
        let a = sample_archive();
        let bad = Script {
            instructions: vec![Instruction::Extract {
                member: "nonexistent.db".into(),
                dest: "/var/x".into(),
            }],
        };
        let mut host = SimHost::new("X");
        let err = push(&mut host, &a, "/tmp/t", &bad).unwrap_err();
        assert_eq!(err, UpdateError::ExecFailed(203));
    }
}
