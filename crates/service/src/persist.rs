//! Durable storage primitives for the job server: CRC-framed record
//! logs and the persistent result cache built on them.
//!
//! ## Frame format
//!
//! Both the job journal ([`crate::journal`]) and the cache spill file
//! use the same append-only framing:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload bytes. A reader walks frames
//! from the start of the file and stops at the first frame that cannot
//! be trusted — header short of 8 bytes, an implausible length, a
//! truncated payload, or a CRC mismatch. Everything before that point is
//! intact (a CRC match on a length-delimited frame vouches for it);
//! everything from it on is the *torn tail* a `kill -9` or power cut can
//! leave behind, and is skipped without failing the boot. The writer
//! appends whole frames and never seeks, so the only damage a crash can
//! cause is a torn tail — exactly what the reader tolerates.
//!
//! Rewrites (journal compaction, cache scrub) never edit in place: they
//! write a fresh file beside the original, `sync_data`, then `rename`
//! over it — atomic on POSIX, so a crash during rotation leaves either
//! the old file or the new one, both valid.
//!
//! ## Fault points
//!
//! Three [`tmi_faultpoint`] points model the IO failure modes:
//! [`FaultPoint::JournalTear`] truncates a frame mid-write,
//! [`FaultPoint::CacheCorrupt`] flips a payload byte after the CRC was
//! computed (so the reader must reject the frame), and
//! [`FaultPoint::FlushFail`] skips the durability flush. All three are
//! *silent* at write time — the reply path never blocks on them — and
//! surface only as recompute work after a restart.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

use tmi_faultpoint::{FaultInjector, FaultPoint};
use tmi_telemetry::json::{self, Json};

/// Frames larger than this are treated as corruption, not data: the
/// biggest legitimate payload (a rendered result with a full metrics
/// snapshot) is a few hundred KiB.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the frame checksum.
/// Bitwise implementation: the log write path is not hot enough to
/// justify a table, and table-free keeps the codec obviously portable.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encodes one payload as a frame (header + payload, ready to append).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a frame scan found.
#[derive(Debug, Default)]
pub struct FrameScan {
    /// Intact payloads, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Whether the scan stopped early on a bad frame.
    pub torn: bool,
}

/// Walks `bytes` frame by frame; stops cleanly at the first torn or
/// corrupt frame (see the module docs for why the tail is skippable).
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut scan = FrameScan::default();
    let mut at = 0usize;
    while at < bytes.len() {
        let rest = &bytes[at..];
        if rest.len() < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_FRAME_LEN || rest.len() < 8 + len as usize {
            break; // implausible length or truncated payload
        }
        let payload = &rest[8..8 + len as usize];
        if crc32(payload) != crc {
            break; // corrupt frame: nothing after it can be trusted
        }
        scan.payloads.push(payload.to_vec());
        at += 8 + len as usize;
    }
    scan.torn = at < bytes.len();
    scan
}

/// What one append actually did, for the caller's metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AppendOutcome {
    /// A fault point tore or corrupted the frame on the way down.
    pub damaged: bool,
    /// The durability flush was skipped ([`FaultPoint::FlushFail`]) or
    /// failed.
    pub flush_skipped: bool,
}

/// An append-only CRC-framed log file.
#[derive(Debug)]
pub struct FrameLog {
    file: File,
}

impl FrameLog {
    /// Opens `path` for appending, creating it if absent.
    pub fn open(path: &Path) -> std::io::Result<FrameLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FrameLog { file })
    }

    /// Appends one frame, rolling the IO fault points: `JournalTear`
    /// writes only a prefix of the frame, `CacheCorrupt` flips a payload
    /// byte (`corruptible` lets the journal opt out — tear is its
    /// failure mode), `FlushFail` skips the flush. IO errors are
    /// reported through the outcome, never panicked — durability is
    /// best-effort, correctness comes from replay + recompute.
    pub fn append(
        &mut self,
        payload: &[u8],
        faults: Option<&FaultInjector>,
        corruptible: bool,
    ) -> AppendOutcome {
        let mut frame = encode_frame(payload);
        let mut out = AppendOutcome::default();
        let roll = |p: FaultPoint| faults.map(|f| f.should_fail(p)).unwrap_or(false);
        if roll(FaultPoint::JournalTear) {
            // A torn write: only a prefix (cutting into the payload, past
            // the header) reaches the file.
            frame.truncate(8 + payload.len() / 2);
            out.damaged = true;
        } else if corruptible && roll(FaultPoint::CacheCorrupt) {
            // Bit rot after the CRC was computed: the frame lands whole
            // but the reader's CRC check must throw it away.
            let at = (8 + payload.len() / 2).min(frame.len() - 1);
            frame[at] ^= 0x40;
            out.damaged = true;
        }
        if self.file.write_all(&frame).is_err() {
            out.damaged = true;
            return out;
        }
        if roll(FaultPoint::FlushFail) || self.file.sync_data().is_err() {
            out.flush_skipped = true;
        }
        out
    }

    /// Forces a durability flush (drain path: everything appended so
    /// far must be on disk before exit 0).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Reads and scans the whole file at `path` (absent file = empty
    /// scan, not an error: first boot has no log yet).
    pub fn scan_file(path: &Path) -> std::io::Result<FrameScan> {
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(scan_frames(&bytes))
    }

    /// Atomically replaces the file at `path` with one holding exactly
    /// `payloads`: write a sibling tmp file, flush it, rename over. A
    /// crash at any point leaves a valid file (old or new).
    pub fn rewrite(path: &Path, payloads: &[Vec<u8>]) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            for p in payloads {
                f.write_all(&encode_frame(p))?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// What loading a cache spill file recovered.
#[derive(Debug, Default)]
pub struct CacheLoad {
    /// Recovered entries: canonical spec JSON → payload bytes.
    pub entries: Vec<(String, Arc<String>)>,
    /// Frames dropped: those whose JSON shape was wrong, plus one for a
    /// torn or corrupt tail.
    pub dropped: u64,
}

/// The result-cache spill: one frame per store, payload
/// `{"key": <spec JSON as a string>, "payload": <payload string>}`.
/// Later frames for the same key win (identical bytes anyway — results
/// are deterministic — but re-stores after a `cache_drop` are normal).
#[derive(Debug)]
pub struct CacheSpill {
    log: FrameLog,
}

impl CacheSpill {
    /// Opens the spill file for appending.
    pub fn open(path: &Path) -> std::io::Result<CacheSpill> {
        Ok(CacheSpill {
            log: FrameLog::open(path)?,
        })
    }

    /// Renders one store as a frame payload.
    fn encode(key: &str, payload: &str) -> String {
        format!(
            "{{\"key\": {}, \"payload\": {}}}",
            json::string(key),
            json::string(payload)
        )
    }

    /// Forces a durability flush of the spill file.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.log.sync()
    }

    /// Appends one store (see [`FrameLog::append`] for fault semantics).
    pub fn store(
        &mut self,
        key: &str,
        payload: &str,
        faults: Option<&FaultInjector>,
    ) -> AppendOutcome {
        self.log
            .append(Self::encode(key, payload).as_bytes(), faults, true)
    }

    /// Loads every recoverable entry from `path`, then scrubs the file:
    /// if anything was dropped (torn tail, corrupt frame), the surviving
    /// entries are atomically rewritten so damage never accumulates.
    pub fn load(path: &Path) -> std::io::Result<CacheLoad> {
        let scan = FrameLog::scan_file(path)?;
        let mut out = CacheLoad {
            dropped: u64::from(scan.torn),
            ..CacheLoad::default()
        };
        let mut good: Vec<Vec<u8>> = Vec::new();
        for frame in &scan.payloads {
            let parsed = std::str::from_utf8(frame).ok().and_then(|s| {
                let v = json::parse(s).ok()?;
                let key = v.get("key").and_then(Json::as_str)?.to_string();
                let payload = v.get("payload").and_then(Json::as_str)?.to_string();
                Some((key, payload))
            });
            match parsed {
                Some((key, payload)) => {
                    out.entries.push((key, Arc::new(payload)));
                    good.push(frame.clone());
                }
                None => out.dropped += 1,
            }
        }
        if out.dropped > 0 {
            FrameLog::rewrite(path, &good)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tmi_faultpoint::{FaultPlan, PointPlan};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tmi-persist-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("log")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 reference values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip() {
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"{\"x\": 1}"];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_frame(p));
        }
        let scan = scan_frames(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.payloads, payloads);
    }

    #[test]
    fn truncation_at_every_offset_keeps_the_intact_prefix() {
        let mut bytes = Vec::new();
        for p in [b"first".as_slice(), b"second", b"third-record"] {
            bytes.extend_from_slice(&encode_frame(p));
        }
        let last_start = bytes.len() - (8 + "third-record".len());
        for cut in last_start..bytes.len() {
            let scan = scan_frames(&bytes[..cut]);
            assert_eq!(scan.payloads.len(), 2, "cut at {cut}");
            assert_eq!(scan.torn, cut > last_start, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_frame_stops_the_scan() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_frame(b"good"));
        let at = bytes.len() + 10; // inside the second payload
        bytes.extend_from_slice(&encode_frame(b"about-to-be-corrupted"));
        bytes[at] ^= 0xFF;
        let scan = scan_frames(&bytes);
        assert_eq!(scan.payloads, vec![b"good".to_vec()]);
        assert!(scan.torn);
    }

    #[test]
    fn cache_spill_stores_and_loads() {
        let path = tmp("spill");
        let mut spill = CacheSpill::open(&path).unwrap();
        spill.store("{\"workload\": \"a\"}", "{\"cycles\": 1}", None);
        spill.store("{\"workload\": \"b\"}", "{\"cycles\": 2}", None);
        let load = CacheSpill::load(&path).unwrap();
        assert_eq!(load.dropped, 0);
        assert_eq!(load.entries.len(), 2);
        assert_eq!(load.entries[0].0, "{\"workload\": \"a\"}");
        assert_eq!(*load.entries[1].1, "{\"cycles\": 2}");
    }

    #[test]
    fn cache_corrupt_fault_drops_only_the_damaged_entry() {
        let path = tmp("corrupt");
        let faults = FaultInjector::new(
            FaultPlan::quiet().with(FaultPoint::CacheCorrupt, PointPlan::transient(2, 1)),
        );
        let mut spill = CacheSpill::open(&path).unwrap();
        let a = spill.store("k1", "v1", Some(&faults));
        let b = spill.store("k2", "v2", Some(&faults)); // roll 2 fires
        assert!(!a.damaged);
        assert!(b.damaged);
        let load = CacheSpill::load(&path).unwrap();
        // The corrupted frame fails its CRC, which tears the scan there;
        // the intact first entry survives.
        assert_eq!(load.entries.len(), 1);
        assert_eq!(load.entries[0].0, "k1");
        assert_eq!(load.dropped, 1);
        // The load scrubbed the file: a second load is clean.
        let again = CacheSpill::load(&path).unwrap();
        assert_eq!(again.dropped, 0);
        assert_eq!(again.entries.len(), 1);
    }

    #[test]
    fn journal_tear_fault_tears_the_tail() {
        let path = tmp("tear");
        let faults = FaultInjector::new(
            FaultPlan::quiet().with(FaultPoint::JournalTear, PointPlan::transient(3, 1)),
        );
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"one", Some(&faults), false);
        log.append(b"two", Some(&faults), false);
        let torn = log.append(b"three-gets-torn", Some(&faults), false);
        assert!(torn.damaged);
        let scan = FrameLog::scan_file(&path).unwrap();
        assert_eq!(scan.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(scan.torn);
    }

    #[test]
    fn rewrite_is_atomic_and_replaces_content() {
        let path = tmp("rewrite");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"stale", None, false);
        FrameLog::rewrite(&path, &[b"fresh".to_vec(), b"pair".to_vec()]).unwrap();
        let scan = FrameLog::scan_file(&path).unwrap();
        assert_eq!(scan.payloads, vec![b"fresh".to_vec(), b"pair".to_vec()]);
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn missing_file_scans_empty() {
        let path = tmp("absent").join("never-created");
        let scan = FrameLog::scan_file(&path).unwrap();
        assert!(scan.payloads.is_empty());
        assert!(!scan.torn);
    }
}
