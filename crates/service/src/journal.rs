//! The write-ahead job journal: the record of every accepted job and
//! its terminal outcome, durable across `kill -9`.
//!
//! ## Protocol
//!
//! Admission appends [`JournalRecord::Accepted`] *before* the job enters
//! its queue; completion appends [`JournalRecord::Done`] (or `Failed`). A
//! restarting daemon replays the file ([`Journal::replay`]): any
//! accepted record without a matching terminal marker is an *unfinished*
//! job the crash orphaned — the server re-enqueues it (it re-executes
//! exactly once) and rebuilds the tenant's quota accounting from the
//! same records.
//!
//! Job ids restart from 1 on every boot, so replay renumbers: recovery
//! compacts the journal ([`Journal::compact`]) down to fresh `Accepted`
//! records for just the unfinished jobs under their new ids, via the
//! atomic tmp-file+rename rotation in [`crate::persist::FrameLog`].
//!
//! Records ride the CRC framing of [`crate::persist`]; a torn tail
//! (crash mid-append) is skipped cleanly — the torn record's job never
//! got its `accepted` reply flushed to the client either, so the client
//! resubmits and nothing is lost.

use std::path::{Path, PathBuf};

use tmi_bench::JobSpec;
use tmi_faultpoint::FaultInjector;
use tmi_telemetry::json::{self, Json};

use crate::persist::{AppendOutcome, FrameLog};

/// One journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    /// A job passed admission and is owed a result.
    Accepted {
        /// Server-assigned job id (unique within one daemon lifetime).
        id: u64,
        /// Tenant the job counts against.
        tenant: String,
        /// Priority class it was queued on.
        priority: usize,
        /// The full job identity.
        spec: JobSpec,
    },
    /// The job completed with a payload (which the cache spill holds).
    Done {
        /// Id of the completed job.
        id: u64,
    },
    /// The job reached a terminal failure (no retry owed).
    Failed {
        /// Id of the failed job.
        id: u64,
    },
}

impl JournalRecord {
    /// Renders the canonical JSON payload for one record.
    pub fn encode(&self) -> String {
        match self {
            JournalRecord::Accepted {
                id,
                tenant,
                priority,
                spec,
            } => format!(
                "{{\"rec\": \"accepted\", \"id\": {id}, \"tenant\": {}, \
                 \"priority\": {priority}, \"job\": {}}}",
                json::string(tenant),
                spec.to_json(),
            ),
            JournalRecord::Done { id } => format!("{{\"rec\": \"done\", \"id\": {id}}}"),
            JournalRecord::Failed { id } => format!("{{\"rec\": \"failed\", \"id\": {id}}}"),
        }
    }

    /// Parses one record payload.
    pub fn decode(payload: &str) -> Result<JournalRecord, String> {
        let v = json::parse(payload).map_err(|e| format!("bad journal JSON: {e}"))?;
        let id = v
            .get("id")
            .and_then(Json::as_f64)
            .ok_or("journal record needs a numeric \"id\"")? as u64;
        match v.get("rec").and_then(Json::as_str) {
            Some("accepted") => {
                let tenant = v
                    .get("tenant")
                    .and_then(Json::as_str)
                    .ok_or("accepted record needs a string \"tenant\"")?
                    .to_string();
                let priority = v
                    .get("priority")
                    .and_then(Json::as_f64)
                    .ok_or("accepted record needs a numeric \"priority\"")?
                    as usize;
                let spec =
                    JobSpec::from_json(v.get("job").ok_or("accepted record needs a \"job\"")?)?;
                Ok(JournalRecord::Accepted {
                    id,
                    tenant,
                    priority,
                    spec,
                })
            }
            Some("done") => Ok(JournalRecord::Done { id }),
            Some("failed") => Ok(JournalRecord::Failed { id }),
            other => Err(format!("unknown journal record kind {other:?}")),
        }
    }
}

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accepted-but-unfinished jobs, in original admission order.
    pub unfinished: Vec<JournalRecord>,
    /// Per-tenant `(submitted, completed)` counts across the whole
    /// journal — the quota bookkeeping a restart resumes from.
    pub tenants: Vec<(String, u64, u64)>,
    /// Intact records seen (any kind).
    pub records: u64,
    /// Records dropped: torn-tail bytes skipped plus undecodable frames.
    pub skipped: u64,
}

/// The append handle for a live daemon's journal.
#[derive(Debug)]
pub struct Journal {
    log: FrameLog,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        Ok(Journal {
            log: FrameLog::open(path)?,
        })
    }

    /// Forces a durability flush of the journal file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }

    /// Appends one record (write-ahead: call before acting on it).
    pub fn append(
        &mut self,
        record: &JournalRecord,
        faults: Option<&FaultInjector>,
    ) -> AppendOutcome {
        self.log.append(record.encode().as_bytes(), faults, false)
    }

    /// Replays the journal at `path`, tolerating a torn/corrupt tail.
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        let scan = FrameLog::scan_file(path)?;
        let mut out = Replay {
            skipped: u64::from(scan.torn),
            ..Replay::default()
        };
        let mut open: Vec<JournalRecord> = Vec::new();
        let mut tenants: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
        for frame in &scan.payloads {
            let rec = std::str::from_utf8(frame)
                .map_err(|e| e.to_string())
                .and_then(JournalRecord::decode);
            let rec = match rec {
                Ok(rec) => rec,
                Err(_) => {
                    out.skipped += 1;
                    continue;
                }
            };
            out.records += 1;
            match rec {
                JournalRecord::Accepted { ref tenant, .. } => {
                    tenants.entry(tenant.clone()).or_default().0 += 1;
                    open.push(rec);
                }
                JournalRecord::Done { id } => {
                    if let Some(at) = open.iter().position(
                        |r| matches!(r, JournalRecord::Accepted { id: a, .. } if *a == id),
                    ) {
                        if let JournalRecord::Accepted { tenant, .. } = &open[at] {
                            tenants.entry(tenant.clone()).or_default().1 += 1;
                        }
                        open.remove(at);
                    }
                }
                JournalRecord::Failed { id } => {
                    open.retain(
                        |r| !matches!(r, JournalRecord::Accepted { id: a, .. } if *a == id),
                    );
                }
            }
        }
        out.unfinished = open;
        out.tenants = tenants.into_iter().map(|(t, (s, c))| (t, s, c)).collect();
        Ok(out)
    }

    /// Atomically rewrites the journal at `path` to exactly `records`
    /// (recovery compaction: finished jobs drop out, unfinished jobs are
    /// renumbered under the fresh boot's ids).
    pub fn compact(path: &Path, records: &[JournalRecord]) -> std::io::Result<()> {
        let payloads: Vec<Vec<u8>> = records.iter().map(|r| r.encode().into_bytes()).collect();
        FrameLog::rewrite(path, &payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmi-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn accepted(id: u64, tenant: &str) -> JournalRecord {
        let mut spec = JobSpec::new("histogramfs");
        spec.scale = 0.02;
        spec.seed = id;
        JournalRecord::Accepted {
            id,
            tenant: tenant.to_string(),
            priority: 1,
            spec,
        }
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        for rec in [
            accepted(3, "ci"),
            JournalRecord::Done { id: 3 },
            JournalRecord::Failed { id: 9 },
        ] {
            assert_eq!(JournalRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn replay_separates_finished_from_unfinished() {
        let path = tmp("replay");
        let mut j = Journal::open(&path).unwrap();
        j.append(&accepted(1, "ci"), None);
        j.append(&accepted(2, "ci"), None);
        j.append(&accepted(3, "other"), None);
        j.append(&JournalRecord::Done { id: 1 }, None);
        j.append(&JournalRecord::Failed { id: 3 }, None);
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.unfinished, vec![accepted(2, "ci")]);
        assert_eq!(
            replay.tenants,
            vec![("ci".to_string(), 2, 1), ("other".to_string(), 1, 0)]
        );
    }

    #[test]
    fn torn_tail_is_skipped_cleanly_at_every_truncation_point() {
        let path = tmp("torn");
        let mut j = Journal::open(&path).unwrap();
        j.append(&accepted(1, "ci"), None);
        j.append(&JournalRecord::Done { id: 1 }, None);
        let intact = std::fs::read(&path).unwrap();
        j.append(&accepted(2, "ci"), None);
        let full = std::fs::read(&path).unwrap();
        for cut in intact.len()..full.len() {
            std::fs::File::create(&path)
                .unwrap()
                .write_all(&full[..cut])
                .unwrap();
            let replay = Journal::replay(&path).unwrap();
            assert_eq!(replay.records, 2, "cut at {cut}");
            assert!(replay.unfinished.is_empty(), "cut at {cut}");
            assert_eq!(
                replay.skipped,
                u64::from(cut > intact.len()),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn compact_renumbers_down_to_the_survivors() {
        let path = tmp("compact");
        let mut j = Journal::open(&path).unwrap();
        j.append(&accepted(1, "ci"), None);
        j.append(&accepted(2, "ci"), None);
        j.append(&JournalRecord::Done { id: 1 }, None);
        drop(j);
        let replay = Journal::replay(&path).unwrap();
        let renumbered: Vec<JournalRecord> = replay
            .unfinished
            .iter()
            .enumerate()
            .map(|(i, r)| match r {
                JournalRecord::Accepted {
                    tenant,
                    priority,
                    spec,
                    ..
                } => JournalRecord::Accepted {
                    id: i as u64 + 1,
                    tenant: tenant.clone(),
                    priority: *priority,
                    spec: spec.clone(),
                },
                other => other.clone(),
            })
            .collect();
        Journal::compact(&path, &renumbered).unwrap();
        let after = Journal::replay(&path).unwrap();
        assert_eq!(after.records, 1);
        assert_eq!(
            after.unfinished,
            vec![accepted(2, "ci")]
                .into_iter()
                .map(|r| match r {
                    JournalRecord::Accepted {
                        tenant,
                        priority,
                        spec,
                        ..
                    } => JournalRecord::Accepted {
                        id: 1,
                        tenant,
                        priority,
                        spec
                    },
                    other => other,
                })
                .collect::<Vec<_>>()
        );
    }
}
