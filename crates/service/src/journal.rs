//! The write-ahead job journal: the record of every accepted job and
//! its terminal outcome, durable across `kill -9`.
//!
//! ## Protocol
//!
//! Admission appends [`JournalRecord::Accepted`] *before* the job enters
//! the queue; completion appends [`JournalRecord::Done`] (or `Failed`). A
//! restarting daemon recovers the file ([`Journal::recover`]): any
//! accepted record without a matching terminal marker is an *unfinished*
//! job the crash orphaned, and the server re-enqueues it (it re-executes
//! exactly once).
//!
//! Job ids restart from 1 on every boot, so recovery renumbers: it
//! compacts the journal down to `Accepted` records for just the
//! unfinished jobs under ids `1..=k` (atomic tmp-file+rename, see
//! [`crate::persist::FrameLog`]), and the server re-creates them first.
//!
//! Records ride the CRC framing of [`crate::persist`]; a torn tail
//! (crash mid-append) is skipped cleanly — the torn record's job never
//! got its `accepted` reply flushed to the client either, so the client
//! resubmits and nothing is lost.

use std::path::Path;

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
            JournalRecord::Accepted { id, spec } => format!(
                "{{\"rec\": \"accepted\", \"id\": {id}, \"job\": {}}}",
                spec.to_json(),
            ),
            JournalRecord::Done { id } => format!("{{\"rec\": \"done\", \"id\": {id}}}"),
            JournalRecord::Failed { id } => format!("{{\"rec\": \"failed\", \"id\": {id}}}"),
        }
    }

    /// Parses one record payload. Members older daemons wrote (an
    /// `accepted` record's `tenant` and `priority`) are ignored, so
    /// their journals still replay.
    pub fn decode(payload: &str) -> Result<JournalRecord, String> {
        let v = json::parse(payload).map_err(|e| format!("bad journal JSON: {e}"))?;
        let id = v
            .get("id")
            .and_then(Json::as_f64)
            .ok_or("journal record needs a numeric \"id\"")? as u64;
        match v.get("rec").and_then(Json::as_str) {
            Some("accepted") => {
                let spec =
                    JobSpec::from_json(v.get("job").ok_or("accepted record needs a \"job\"")?)?;
                Ok(JournalRecord::Accepted { id, spec })
            }
            Some("done") => Ok(JournalRecord::Done { id }),
            Some("failed") => Ok(JournalRecord::Failed { id }),
            other => Err(format!("unknown journal record kind {other:?}")),
        }
    }
}

/// What a journal recovery found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Accepted-but-unfinished jobs, in original admission order; the
    /// recovered journal holds them under ids `1..=unfinished.len()`.
    pub unfinished: Vec<JobSpec>,
    /// Intact records seen (any kind).
    pub records: u64,
    /// Records dropped: a torn or corrupt tail plus undecodable frames.
    pub skipped: u64,
}

/// The append handle for a live daemon's journal.
#[derive(Debug)]
pub struct Journal {
    log: FrameLog,
}

impl Journal {
    /// Recovers the journal at `path` (absent = empty): replays it,
    /// tolerating a torn or corrupt tail, atomically rewrites it to
    /// `Accepted { id: 1..=k, spec }` for the `k` unfinished jobs, and
    /// opens it for appending.
    pub fn recover(path: &Path) -> std::io::Result<(Journal, Replay)> {
        let scan = FrameLog::scan_file(path)?;
        let mut replay = Replay {
            skipped: u64::from(scan.torn),
            ..Replay::default()
        };
        let mut open: Vec<(u64, JobSpec)> = Vec::new();
        for frame in &scan.payloads {
            let rec = std::str::from_utf8(frame)
                .map_err(|e| e.to_string())
                .and_then(JournalRecord::decode);
            let Ok(rec) = rec else {
                replay.skipped += 1;
                continue;
            };
            replay.records += 1;
            match rec {
                JournalRecord::Accepted { id, spec } => open.push((id, spec)),
                JournalRecord::Done { id } | JournalRecord::Failed { id } => {
                    open.retain(|(a, _)| *a != id)
                }
            }
        }
        replay.unfinished = open.into_iter().map(|(_, spec)| spec).collect();
        let compacted: Vec<Vec<u8>> = (1u64..)
            .zip(&replay.unfinished)
            .map(|(id, spec)| {
                let spec = spec.clone();
                JournalRecord::Accepted { id, spec }.encode().into_bytes()
            })
            .collect();
        FrameLog::rewrite(path, &compacted)?;
        let journal = Journal {
            log: FrameLog::open(path)?,
        };
        Ok((journal, replay))
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmi-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn spec(seed: u64) -> JobSpec {
        let mut spec = JobSpec::new("histogramfs");
        spec.scale = 0.02;
        spec.seed = seed;
        spec
    }

    fn accepted(id: u64) -> JournalRecord {
        JournalRecord::Accepted { id, spec: spec(id) }
    }

    /// The records the file at `path` holds, decoded.
    fn records(path: &Path) -> Vec<JournalRecord> {
        let scan = FrameLog::scan_file(path).unwrap();
        scan.payloads
            .iter()
            .map(|f| JournalRecord::decode(std::str::from_utf8(f).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn records_round_trip_through_the_codec() {
        for rec in [
            accepted(3),
            JournalRecord::Done { id: 3 },
            JournalRecord::Failed { id: 9 },
        ] {
            assert_eq!(JournalRecord::decode(&rec.encode()).unwrap(), rec);
        }
    }

    #[test]
    fn accepted_records_from_older_daemons_still_decode() {
        let old = format!(
            "{{\"rec\": \"accepted\", \"id\": 4, \"tenant\": \"ci\", \"priority\": 1, \
             \"job\": {}}}",
            spec(4).to_json()
        );
        assert_eq!(JournalRecord::decode(&old).unwrap(), accepted(4));
    }

    #[test]
    fn recover_keeps_unfinished_jobs_and_renumbers_them() {
        let path = tmp("replay");
        let (mut j, _) = Journal::recover(&path).unwrap();
        for rec in [
            accepted(1),
            accepted(2),
            accepted(3),
            JournalRecord::Done { id: 1 },
            JournalRecord::Failed { id: 3 },
        ] {
            j.append(&rec, None);
        }
        drop(j);
        let (_, replay) = Journal::recover(&path).unwrap();
        assert_eq!(replay.records, 5);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.unfinished, vec![spec(2)]);
        // Compacted to the one survivor, renumbered as this boot's job 1.
        assert_eq!(
            records(&path),
            vec![JournalRecord::Accepted {
                id: 1,
                spec: spec(2)
            }]
        );
    }

    #[test]
    fn torn_tail_is_skipped_cleanly_at_every_truncation_point() {
        let path = tmp("torn");
        let (mut j, _) = Journal::recover(&path).unwrap();
        j.append(&accepted(1), None);
        j.append(&JournalRecord::Done { id: 1 }, None);
        let intact = std::fs::read(&path).unwrap();
        j.append(&accepted(2), None);
        drop(j);
        let full = std::fs::read(&path).unwrap();
        for cut in intact.len()..full.len() {
            std::fs::File::create(&path)
                .unwrap()
                .write_all(&full[..cut])
                .unwrap();
            let (_, replay) = Journal::recover(&path).unwrap();
            assert_eq!(replay.records, 2, "cut at {cut}");
            assert!(replay.unfinished.is_empty(), "cut at {cut}");
            assert_eq!(
                replay.skipped,
                u64::from(cut > intact.len()),
                "cut at {cut}"
            );
            assert!(records(&path).is_empty(), "cut at {cut}");
        }
    }
}
