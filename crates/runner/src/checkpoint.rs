//! Checkpoint file format: container for the per-component snapshots of one
//! experiment (or one distributed partition, before the orchestrator merges
//! the partitions of a slot). Every checkpoint is a ring entry: a run
//! quiesces at the slots of its plan and writes each container into the
//! ring directory as [`ring_entry_path`]; a one-shot checkpoint is a ring
//! with one slot.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   "SBCK"                      4 bytes
//! version u16 (CKPT_VERSION)          rejected if unknown
//! flags   u16 (reserved, must be 0)
//! name    u32-prefixed UTF-8          experiment name (validated on restore)
//! time    u64                         checkpoint virtual time [ps]
//! count   u64                         number of components
//! per component:
//!   name  u32-prefixed UTF-8          component name
//!   blob  u32-prefixed bytes          kernel snapshot ++ model snapshot
//! checksum u64                        FNV-1a over every preceding byte
//! ```
//!
//! Corrupt, truncated, or version-mismatched files fail decoding with a
//! descriptive [`SnapError`] — never a panic or silent misrestore. The
//! trailing checksum catches bit flips that happen to decode structurally.

use std::path::Path;

use simbricks_base::snap::{fnv1a, SnapError, SnapReader, SnapResult, SnapWriter};
use simbricks_base::SimTime;

/// File magic: "SBCK" (SimBricks ChecKpoint).
pub const CKPT_MAGIC: [u8; 4] = *b"SBCK";
/// Format version this build writes and reads. Bumped to 2 when the
/// pooled-buffer work extended the `KernelStats` snapshot encoding from 13
/// to 16 `u64`s, and to 3 when hierarchical sync extended the per-port sync
/// state (`last_promise` after the adaptive interval, a seventh `PortStats`
/// counter): v2 files would pass the magic check and then misparse, so they
/// are rejected cleanly here instead.
// Version 4: TcpConn RTT estimator state is integer picoseconds
// (u64 srtt/rttvar), replacing the former f64 nanosecond fields.
// Version 5: per-port link-impairment state (PRNG, Gilbert–Elliott chain,
// reorder holdback slot, counters) appended to the SyncPort snapshot, and
// per-egress-queue AQM state (enqueue timestamps, CoDel/PI controller
// variables) appended to the switch snapshot.
// Version 6: the EventLog snapshot gained a leading mode tag for the
// fingerprint-only log (per-epoch FNV accumulators replace materialized
// entries when active), shifting every field after it.
// Version 7: the `KernelStats` encoding lost its barrier-wait counter with
// the global-barrier sync mode, going from 16 to 15 `u64`s.
// Version 8: host physical memory is encoded as (index, bytes) entries of
// 256-byte chunks instead of 4 KiB pages.
pub const CKPT_VERSION: u16 = 8;

/// A decoded checkpoint container.
#[derive(Debug)]
pub struct CheckpointFile {
    /// Experiment name recorded at save time.
    pub name: String,
    /// Virtual time the experiment was quiesced at.
    pub at: SimTime,
    /// Per-component (name, state blob) in experiment build order.
    pub components: Vec<(String, Vec<u8>)>,
}

impl CheckpointFile {
    /// Encode the container to bytes (checksum appended).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.raw(&CKPT_MAGIC);
        w.u16(CKPT_VERSION);
        w.u16(0);
        w.str(&self.name);
        w.time(self.at);
        w.usize(self.components.len());
        for (name, blob) in &self.components {
            w.str(name);
            w.bytes(blob);
        }
        let mut out = w.into_vec();
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode and validate a container from bytes.
    pub fn decode(buf: &[u8]) -> SnapResult<CheckpointFile> {
        let mut head = SnapReader::new(buf);
        if head.take(CKPT_MAGIC.len())? != CKPT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = head.u16()?;
        if version != CKPT_VERSION {
            return Err(SnapError::Version {
                found: version,
                expected: CKPT_VERSION,
            });
        }
        let (body, sum) = match buf.split_last_chunk::<8>() {
            Some((body, sum)) if body.len() >= 6 => (body, u64::from_le_bytes(*sum)),
            _ => return Err(SnapError::Truncated),
        };
        if fnv1a(body) != sum {
            return Err(SnapError::Corrupt(
                "checksum mismatch (file damaged or partially written)".into(),
            ));
        }
        let mut r = SnapReader::new(&body[6..]);
        let flags = r.u16()?;
        if flags != 0 {
            return Err(SnapError::Corrupt(format!("unknown flags {flags:#x}")));
        }
        let name = r.str()?;
        let at = r.time()?;
        let count = r.usize()?;
        // Every component carries two `u32` length prefixes, so the rest of
        // the body bounds the count before anything is reserved for it. A
        // count beyond that is a body that ends before its components.
        if count > r.remaining() / 8 {
            return Err(SnapError::Truncated);
        }
        let mut components = Vec::with_capacity(count);
        for _ in 0..count {
            let cname = r.str()?;
            let blob = r.bytes()?;
            components.push((cname, blob));
        }
        if !r.is_empty() {
            return Err(SnapError::Corrupt(format!(
                "{} trailing bytes after last component",
                r.remaining()
            )));
        }
        Ok(CheckpointFile {
            name,
            at,
            components,
        })
    }

    /// Write the container to `path` (atomically, via [`write_blob`]).
    pub fn write_to(&self, path: &Path) -> SnapResult<()> {
        write_blob(path, &self.encode())
    }

    /// Read and validate a container from `path`.
    pub fn read_from(path: &Path) -> SnapResult<CheckpointFile> {
        let bytes = std::fs::read(path)
            .map_err(|e| SnapError::Io(format!("read {}: {e}", path.display())))?;
        Self::decode(&bytes)
    }

    /// Merge per-partition containers (same experiment, same quiesce time)
    /// into one whole-experiment container whose components follow `order` —
    /// the global build order recorded at partition discovery. The result is
    /// byte-identical to what a single-process run of the same experiment
    /// would have checkpointed, so distributed ring entries restore through
    /// the ordinary local path.
    pub fn merge(parts: &[CheckpointFile], order: &[String]) -> SnapResult<CheckpointFile> {
        let first = parts
            .first()
            .ok_or_else(|| SnapError::Corrupt("merge of zero checkpoint parts".into()))?;
        let mut by_name: std::collections::BTreeMap<&str, &[u8]> =
            std::collections::BTreeMap::new();
        for p in parts {
            if p.name != first.name || p.at != first.at {
                return Err(SnapError::Corrupt(format!(
                    "checkpoint parts disagree: ({}, {}) vs ({}, {})",
                    p.name,
                    p.at.as_ps(),
                    first.name,
                    first.at.as_ps()
                )));
            }
            for (cname, blob) in &p.components {
                if by_name.insert(cname, blob).is_some() {
                    return Err(SnapError::Corrupt(format!(
                        "component {cname} appears in more than one partition"
                    )));
                }
            }
        }
        let mut components = Vec::with_capacity(order.len());
        for name in order {
            match by_name.remove(name.as_str()) {
                Some(blob) => components.push((name.clone(), blob.to_vec())),
                None => {
                    return Err(SnapError::Corrupt(format!(
                        "component {name} missing from checkpoint parts"
                    )))
                }
            }
        }
        if let Some((extra, _)) = by_name.into_iter().next() {
            return Err(SnapError::Corrupt(format!(
                "component {extra} not in the experiment's build order"
            )));
        }
        Ok(CheckpointFile {
            name: first.name.clone(),
            at: first.at,
            components,
        })
    }
}

/// Write an already-encoded checkpoint container to `path` via a temp file
/// plus rename, so a crash or full disk mid-write never destroys an
/// existing good checkpoint with a truncated one. If either step fails, the
/// temp file is removed — a failed save must not leak `.tmp` litter into
/// the checkpoint directory.
pub fn write_blob(path: &Path, bytes: &[u8]) -> SnapResult<()> {
    write_blob_with(path, bytes, &mut |tmp, bytes| std::fs::write(tmp, bytes))
}

/// [`write_blob`] with an injectable writer for the temp file, so tests can
/// simulate a full disk. On writer error *or* rename error the temp file is
/// deleted before the error propagates.
pub fn write_blob_with(
    path: &Path,
    bytes: &[u8],
    write: &mut dyn FnMut(&Path, &[u8]) -> std::io::Result<()>,
) -> SnapResult<()> {
    let tmp = path.with_extension("ckpt.tmp");
    if let Err(e) = write(&tmp, bytes) {
        let _ = std::fs::remove_file(&tmp);
        return Err(SnapError::Io(format!("write {}: {e}", tmp.display())));
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(SnapError::Io(format!("rename to {}: {e}", path.display())));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Checkpoint rings
// ---------------------------------------------------------------------------

/// Metadata file name inside a checkpoint-ring directory.
pub const RING_META_FILE: &str = "RING.meta";
/// Scenario text file name inside a checkpoint-ring directory (written by
/// the CLI layer; the replay tool rebuilds the experiment from it).
pub const RING_SCENARIO_FILE: &str = "scenario.toml";

/// Metadata describing a checkpoint-ring directory: a bounded sequence of
/// SBCK containers `ck-<time_ps>.ckpt` snapshotted every `period` of virtual
/// time, of which only the newest `keep` survive (0 = keep all).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingMeta {
    /// Experiment name (validated against the containers on open).
    pub name: String,
    /// Virtual time between ring entries.
    pub period: SimTime,
    /// Newest entries kept; 0 keeps every entry.
    pub keep: usize,
    /// Experiment end time — bounds the epoch count during bisection.
    pub end: SimTime,
}

impl RingMeta {
    /// Write the metadata file into `dir` (line-oriented `key=value` text).
    pub fn write_to(&self, dir: &Path) -> SnapResult<()> {
        let text = format!(
            "simbricks-ring v1\nname={}\nperiod_ps={}\nkeep={}\nend_ps={}\n",
            self.name,
            self.period.as_ps(),
            self.keep,
            self.end.as_ps()
        );
        let path = dir.join(RING_META_FILE);
        std::fs::write(&path, text)
            .map_err(|e| SnapError::Io(format!("write {}: {e}", path.display())))
    }

    /// Read and validate the metadata file from `dir`.
    pub fn read_from(dir: &Path) -> SnapResult<RingMeta> {
        let path = dir.join(RING_META_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SnapError::Io(format!("read {}: {e}", path.display())))?;
        let mut lines = text.lines();
        if lines.next() != Some("simbricks-ring v1") {
            return Err(SnapError::Corrupt(format!(
                "{}: not a simbricks-ring v1 metadata file",
                path.display()
            )));
        }
        let mut name = None;
        let mut period = None;
        let mut keep = None;
        let mut end = None;
        for line in lines {
            let Some((k, v)) = line.split_once('=') else {
                continue;
            };
            match k {
                "name" => name = Some(v.to_string()),
                "period_ps" => period = v.parse::<u64>().ok().map(SimTime::from_ps),
                "keep" => keep = v.parse::<usize>().ok(),
                "end_ps" => end = v.parse::<u64>().ok().map(SimTime::from_ps),
                _ => {}
            }
        }
        match (name, period, keep, end) {
            (Some(name), Some(period), Some(keep), Some(end)) if period > SimTime::ZERO => {
                Ok(RingMeta {
                    name,
                    period,
                    keep,
                    end,
                })
            }
            _ => Err(SnapError::Corrupt(format!(
                "{}: missing or invalid ring metadata fields",
                path.display()
            ))),
        }
    }
}

/// Path of the ring entry checkpointed at virtual time `t`.
pub fn ring_entry_path(dir: &Path, t: SimTime) -> std::path::PathBuf {
    dir.join(format!("ck-{:020}.ckpt", t.as_ps()))
}

/// All ring entries in `dir`, sorted by checkpoint time (directory order is
/// not deterministic, the explicit sort is what makes replay deterministic).
pub fn ring_entries(dir: &Path) -> SnapResult<Vec<(SimTime, std::path::PathBuf)>> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| SnapError::Io(format!("read dir {}: {e}", dir.display())))?;
    let mut out = Vec::new();
    for ent in rd {
        let ent = ent.map_err(|e| SnapError::Io(format!("read dir {}: {e}", dir.display())))?;
        let fname = ent.file_name();
        let Some(fname) = fname.to_str() else {
            continue;
        };
        if let Some(ps) = fname
            .strip_prefix("ck-")
            .and_then(|s| s.strip_suffix(".ckpt"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((SimTime::from_ps(ps), ent.path()));
        }
    }
    out.sort_by_key(|(t, _)| *t);
    Ok(out)
}

/// Pure pruning policy: given the (sorted or unsorted) checkpoint times
/// currently present and the `keep` bound, return the times to delete —
/// everything but the newest `keep`. `keep == 0` keeps all.
pub fn ring_prune_plan(times: &[SimTime], keep: usize) -> Vec<SimTime> {
    if keep == 0 || times.len() <= keep {
        return Vec::new();
    }
    let mut sorted = times.to_vec();
    sorted.sort();
    sorted.truncate(times.len() - keep);
    sorted
}

/// Apply [`ring_prune_plan`] to the entries on disk, returning the removed
/// paths.
pub fn prune_ring(dir: &Path, keep: usize) -> SnapResult<Vec<std::path::PathBuf>> {
    let entries = ring_entries(dir)?;
    let times: Vec<SimTime> = entries.iter().map(|(t, _)| *t).collect();
    let doomed = ring_prune_plan(&times, keep);
    let mut removed = Vec::new();
    for t in doomed {
        let path = ring_entry_path(dir, t);
        std::fs::remove_file(&path)
            .map_err(|e| SnapError::Io(format!("remove {}: {e}", path.display())))?;
        removed.push(path);
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointFile {
        CheckpointFile {
            name: "exp".into(),
            at: SimTime::from_ms(3),
            components: vec![
                ("a.host".into(), vec![1, 2, 3]),
                ("a.nic".into(), vec![]),
                ("switch".into(), vec![9; 100]),
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let f = sample();
        let bytes = f.encode();
        let back = CheckpointFile::decode(&bytes).unwrap();
        assert_eq!(back.name, "exp");
        assert_eq!(back.at, SimTime::from_ms(3));
        assert_eq!(back.components, f.components);
    }

    /// Table-driven negative tests: every class of damaged input must fail
    /// with the right, descriptive error — no panics, no silent acceptance.
    #[test]
    fn damaged_inputs_fail_with_clear_errors() {
        let good = sample().encode();

        struct Case {
            name: &'static str,
            make: fn(&[u8]) -> Vec<u8>,
            check: fn(&SnapError) -> bool,
        }
        let cases = [
            Case {
                name: "empty file",
                make: |_| Vec::new(),
                check: |e| matches!(e, SnapError::Truncated),
            },
            Case {
                name: "wrong magic",
                make: |g| {
                    let mut b = g.to_vec();
                    b[0] = b'X';
                    b
                },
                check: |e| matches!(e, SnapError::BadMagic),
            },
            Case {
                name: "future version",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 0xff;
                    b[5] = 0x7f;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 0x7fff,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                // The previous on-disk format: its per-port sync state lacks
                // the hierarchical-sync fields, so restoring it would
                // misparse. It must be rejected by the version gate alone,
                // before any body parsing happens.
                name: "version-2 checkpoint from an older build",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 2;
                    b[5] = 0;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 2,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                // The immediately preceding format: a v4 SyncPort snapshot
                // ends after the stats block, with no impairment state, and a
                // v4 switch snapshot lacks AQM fields. Those bodies would
                // misparse under the current decoder, so the version gate
                // must reject the file outright.
                name: "version-4 checkpoint from an older build",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 4;
                    b[5] = 0;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 4,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                // v5 is the format immediately before the event-log mode tag
                // was added: a v5 EventLog snapshot starts directly with the
                // enabled flag, so the current decoder would read its first
                // byte as a mode tag and misparse. The version gate must
                // reject it before any body decoding.
                name: "version-5 checkpoint from an older build",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 5;
                    b[5] = 0;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 5,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                // v6 is the format before the global-barrier counter left
                // `KernelStats`: every v6 component blob carries one more
                // stats word, which the current decoder would take as the
                // first byte of the event log. The version gate must reject
                // it before any body decoding.
                name: "version-6 checkpoint from an older build",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 6;
                    b[5] = 0;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 6,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                // v7 encodes host memory as (page index, 4 KiB page): the
                // current decoder would take each page index for a chunk
                // index and refuse each page as an over-long chunk. The
                // version gate must name the real cause, before any body
                // decoding.
                name: "version-7 checkpoint from an older build",
                make: |g| {
                    let mut b = g.to_vec();
                    b[4] = 7;
                    b[5] = 0;
                    b
                },
                check: |e| {
                    matches!(
                        e,
                        SnapError::Version {
                            found: 7,
                            expected: CKPT_VERSION
                        }
                    )
                },
            },
            Case {
                name: "truncated mid-component",
                make: |g| g[..g.len() / 2].to_vec(),
                check: |e| {
                    // Cutting the file also cuts the checksum; either way a
                    // clean error, never a panic.
                    matches!(e, SnapError::Truncated | SnapError::Corrupt(_))
                },
            },
            Case {
                name: "checksum trailer cut off",
                make: |g| g[..g.len() - 8].to_vec(),
                check: |e| matches!(e, SnapError::Truncated | SnapError::Corrupt(_)),
            },
            Case {
                name: "single flipped payload bit",
                make: |g| {
                    let mut b = g.to_vec();
                    let mid = b.len() / 2;
                    b[mid] ^= 0x10;
                    b
                },
                check: |e| matches!(e, SnapError::Corrupt(_)),
            },
            Case {
                name: "flipped checksum",
                make: |g| {
                    let mut b = g.to_vec();
                    let last = b.len() - 1;
                    b[last] ^= 1;
                    b
                },
                check: |e| matches!(e, SnapError::Corrupt(_)),
            },
            Case {
                name: "nonzero reserved flags",
                make: |g| {
                    // Rebuild with bad flags and a matching checksum, so the
                    // flag check itself is what fires.
                    let mut body = g[..g.len() - 8].to_vec();
                    body[6] = 1;
                    let sum = fnv1a(&body);
                    body.extend_from_slice(&sum.to_le_bytes());
                    body
                },
                check: |e| matches!(e, SnapError::Corrupt(_)),
            },
        ];
        for case in &cases {
            let damaged = (case.make)(&good);
            match CheckpointFile::decode(&damaged) {
                Ok(_) => panic!("{}: damaged input decoded successfully", case.name),
                Err(e) => assert!((case.check)(&e), "{}: unexpected error {e:?}", case.name),
            }
        }
    }

    /// Fuzz-ish hardening sweep: decode must return `Err` — never panic and
    /// never silently accept — for *every* truncation length (a torn write
    /// can stop at any byte) and for a single flipped bit at *every* byte
    /// position (bit rot anywhere in the blob). Exhaustive rather than
    /// sampled: the container is small and the sweep is the proof that no
    /// byte position escapes the magic/version gates or the FNV-1a trailer.
    #[test]
    fn every_truncation_and_bit_flip_is_rejected_cleanly() {
        let good = sample().encode();
        assert!(CheckpointFile::decode(&good).is_ok());
        for n in 0..good.len() {
            assert!(
                CheckpointFile::decode(&good[..n]).is_err(),
                "truncation to {n}/{} bytes decoded successfully",
                good.len()
            );
        }
        for i in 0..good.len() {
            for bit in 0..8 {
                let mut b = good.clone();
                b[i] ^= 1 << bit;
                assert!(
                    CheckpointFile::decode(&b).is_err(),
                    "flip of bit {bit} at byte {i}/{} decoded successfully",
                    good.len()
                );
            }
        }
    }

    /// The same classes of damage applied to a checkpoint-ring entry on
    /// disk: loading must surface a typed error, so ring recovery can reject
    /// the entry and fall back to an older slot instead of crashing.
    #[test]
    fn damaged_ring_entries_on_disk_load_as_errors() {
        let dir = tmpdir("ring-damage");
        let at = SimTime::from_ms(2);
        let path = ring_entry_path(&dir, at);
        let good = sample().encode();

        write_blob(&path, &good).unwrap();
        assert!(CheckpointFile::read_from(&path).is_ok());

        // Torn write: half the entry.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            CheckpointFile::read_from(&path),
            Err(SnapError::Truncated | SnapError::Corrupt(_))
        ));

        // Bit rot in the middle.
        let mut rotted = good.clone();
        let mid = rotted.len() / 2;
        rotted[mid] ^= 0x10;
        std::fs::write(&path, &rotted).unwrap();
        assert!(matches!(
            CheckpointFile::read_from(&path),
            Err(SnapError::Corrupt(_))
        ));

        // Zero-length entry (crash between create and write).
        std::fs::write(&path, []).unwrap();
        assert!(matches!(
            CheckpointFile::read_from(&path),
            Err(SnapError::Truncated)
        ));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_from_missing_file_is_io_error() {
        let e = CheckpointFile::read_from(Path::new("/nonexistent/nope.ckpt")).unwrap_err();
        assert!(matches!(e, SnapError::Io(_)));
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sbck-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Regression: a failed save (full disk, permission error) must remove
    /// the temp file it created — a half-written `.tmp` next to good ring
    /// entries used to survive the error path.
    #[test]
    fn failed_write_cleans_up_temp_file() {
        let dir = tmpdir("leak");
        let path = dir.join("state.ckpt");

        // Full-disk-simulating writer: writes a partial prefix, then fails.
        let mut full_disk = |tmp: &Path, bytes: &[u8]| -> std::io::Result<()> {
            std::fs::write(tmp, &bytes[..bytes.len() / 2])?;
            Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "no space left on device",
            ))
        };
        let err = write_blob_with(&path, &[7u8; 64], &mut full_disk).unwrap_err();
        assert!(matches!(err, SnapError::Io(_)), "unexpected error {err:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "temp file leaked on the error path: {leftovers:?}"
        );

        // Rename failure (target directory vanished) also cleans up.
        let gone = dir.join("sub").join("state.ckpt");
        let err = write_blob_with(&gone, &[7u8; 64], &mut |tmp, bytes| {
            // The temp path is also under the missing dir; write it next to
            // the test dir instead so only the rename fails.
            let _ = tmp;
            std::fs::write(dir.join("sub.ckpt.tmp"), bytes)
        })
        .unwrap_err();
        assert!(matches!(err, SnapError::Io(_)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_meta_roundtrip_and_rejects_garbage() {
        let dir = tmpdir("meta");
        let meta = RingMeta {
            name: "exp".into(),
            period: SimTime::from_us(500),
            keep: 4,
            end: SimTime::from_ms(6),
        };
        meta.write_to(&dir).unwrap();
        assert_eq!(RingMeta::read_from(&dir).unwrap(), meta);

        std::fs::write(dir.join(RING_META_FILE), "not a ring\n").unwrap();
        assert!(matches!(
            RingMeta::read_from(&dir),
            Err(SnapError::Corrupt(_))
        ));
        std::fs::write(dir.join(RING_META_FILE), "simbricks-ring v1\nname=x\n").unwrap();
        assert!(matches!(
            RingMeta::read_from(&dir),
            Err(SnapError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ring_entries_sorted_and_pruned_to_newest_keep() {
        let dir = tmpdir("ring");
        // Write entries out of order; a stray file must be ignored.
        for ms in [5u64, 1, 3, 2, 4] {
            std::fs::write(ring_entry_path(&dir, SimTime::from_ms(ms)), b"x").unwrap();
        }
        std::fs::write(dir.join("README"), b"not a checkpoint").unwrap();
        let entries = ring_entries(&dir).unwrap();
        let times: Vec<u64> = entries
            .iter()
            .map(|(t, _)| t.as_ps() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5]);

        let removed = prune_ring(&dir, 2).unwrap();
        assert_eq!(removed.len(), 3);
        let left: Vec<u64> = ring_entries(&dir)
            .unwrap()
            .iter()
            .map(|(t, _)| t.as_ps() / 1_000_000_000)
            .collect();
        assert_eq!(left, vec![4, 5], "pruning must keep the newest entries");

        // keep == 0 keeps everything.
        assert!(prune_ring(&dir, 0).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_plan_is_pure_and_keeps_newest() {
        let t = |ms: u64| SimTime::from_ms(ms);
        assert!(ring_prune_plan(&[t(1), t(2)], 0).is_empty());
        assert!(ring_prune_plan(&[t(1), t(2)], 2).is_empty());
        assert_eq!(ring_prune_plan(&[t(3), t(1), t(2)], 1), vec![t(1), t(2)]);
        assert_eq!(ring_prune_plan(&[t(3), t(1), t(2)], 2), vec![t(1)]);
        assert!(ring_prune_plan(&[], 3).is_empty());
    }

    #[test]
    fn merge_orders_components_and_rejects_mismatch() {
        let part = |names: &[&str], at: SimTime| CheckpointFile {
            name: "exp".into(),
            at,
            components: names
                .iter()
                .map(|n| (n.to_string(), vec![n.len() as u8]))
                .collect(),
        };
        let at = SimTime::from_ms(1);
        let order = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let merged =
            CheckpointFile::merge(&[part(&["b"], at), part(&["c", "a"], at)], &order).unwrap();
        let names: Vec<&str> = merged.components.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(merged.at, at);

        // Disagreeing quiesce times.
        let e = CheckpointFile::merge(
            &[part(&["a"], at), part(&["b"], SimTime::from_ms(2))],
            &order,
        )
        .unwrap_err();
        assert!(matches!(e, SnapError::Corrupt(_)));
        // Missing component.
        let e = CheckpointFile::merge(&[part(&["a", "b"], at)], &order).unwrap_err();
        assert!(matches!(e, SnapError::Corrupt(_)));
        // Duplicate component.
        let e = CheckpointFile::merge(&[part(&["a"], at), part(&["a", "b", "c"], at)], &order)
            .unwrap_err();
        assert!(matches!(e, SnapError::Corrupt(_)));
        // Component not in the build order.
        let e = CheckpointFile::merge(&[part(&["a", "b", "c", "d"], at)], &order).unwrap_err();
        assert!(matches!(e, SnapError::Corrupt(_)));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use simbricks_base::impair::check_cases;

    /// Ring pruning keeps exactly the newest `keep` checkpoint times for
    /// any schedule (arbitrary order, duplicates collapsed), and keeps
    /// everything when `keep == 0`.
    #[test]
    fn prune_plan_keeps_newest() {
        check_cases("prune_plan_keeps_newest", 0xc4c, 256, |rng| {
            // Up to 63 distinct times below 1 ms, in ascending order.
            let times_ps: std::collections::BTreeSet<u64> =
                (0..rng.below(64)).map(|_| rng.below(1_000_000)).collect();
            let keep = rng.below(16) as usize;
            let times: Vec<SimTime> = times_ps.iter().map(|&t| SimTime::from_ps(t)).collect();
            let doomed = ring_prune_plan(&times, keep);
            let mut survivors: Vec<SimTime> = times
                .iter()
                .copied()
                .filter(|t| !doomed.contains(t))
                .collect();
            survivors.sort();
            if keep == 0 {
                assert!(doomed.is_empty());
            } else {
                assert_eq!(survivors.len(), times.len().min(keep));
                // Survivors are exactly the newest `keep` times.
                let mut sorted = times.clone();
                sorted.sort();
                let newest: Vec<SimTime> = sorted[sorted.len().saturating_sub(keep)..].to_vec();
                assert_eq!(survivors, newest);
            }
        });
    }
}
