//! A blocking NDJSON client for the job server — the library behind
//! `tmi_client` and the integration suite.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use tmi_bench::JobSpec;
use tmi_telemetry::json::{self, Json};

use crate::proto;

/// Deadlines and retry policy for a hardened client.
///
/// Every field has a bounded default so a vanished daemon turns into an
/// error the caller can act on instead of a read that blocks forever.
/// Retried submissions are safe because replies are deterministic
/// functions of the [`JobSpec`]: a resubmission either hits the result
/// cache or recomputes the identical payload.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Deadline for each blocking read (accepted and result lines).
    pub read_timeout: Duration,
    /// Additional attempts after the first (0 = single shot).
    pub retries: u32,
    /// Base backoff between attempts; doubles per attempt plus jitter.
    pub backoff_base_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(30),
            retries: 3,
            backoff_base_ms: 50,
            retry_seed: 1,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether a `run` error is transient — worth a fresh connection —
/// rather than a server verdict on the job itself.
fn is_transient(err: &str) -> bool {
    err.starts_with("connect failed")
        || err.starts_with("send failed")
        || err.starts_with("receive failed")
        || err.starts_with("server closed")
        || err.starts_with("rejected (draining)")
}

/// Submits `spec` with bounded retries: each attempt opens a fresh
/// connection under `cfg`'s deadlines, and transient failures (refused
/// or dropped connections, read timeouts, `draining` rejections) back
/// off with seeded jitter before resubmitting. Non-transient verdicts
/// (bad request, full queue, job failure) surface immediately. The
/// terminal error is a single actionable line carrying the address,
/// elapsed time, and attempt count.
pub fn run_with_retry(
    addr: &str,
    cfg: &ClientConfig,
    spec: &JobSpec,
    fresh: bool,
) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let attempts = cfg.retries + 1;
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            let base = cfg.backoff_base_ms << (attempt - 1).min(6);
            let jitter = splitmix64(cfg.retry_seed.wrapping_add(u64::from(attempt)))
                % cfg.backoff_base_ms.max(1);
            std::thread::sleep(Duration::from_millis(base + jitter));
        }
        let result = Client::connect(addr, cfg)
            .map_err(|e| format!("connect failed: {e}"))
            .and_then(|mut c| c.run(spec, fresh));
        match result {
            Ok(out) => return Ok(out),
            Err(e) if is_transient(&e) => last = e,
            Err(e) => return Err(e),
        }
    }
    Err(format!(
        "run failed after {attempts} attempts over {:.1}s against {addr}: {last}",
        started.elapsed().as_secs_f64(),
    ))
}

/// The terminal outcome of one submitted job.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Server-assigned job id.
    pub job_id: u64,
    /// Whether the reply was served from the result cache.
    pub cached: bool,
    /// Attempts the job took (> 1 means a `worker_kill` firing
    /// abandoned an attempt and the job was retried).
    pub attempts: u32,
    /// The deterministic result payload, byte-exact as sent on the wire
    /// (extracted with [`proto::extract_member`]).
    pub payload: String,
}

/// A connected client. One request/reply conversation at a time.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects under `cfg`'s connect deadline and arms its read
    /// deadline on the stream, so a daemon that vanishes mid-reply
    /// yields a timeout error instead of blocking forever.
    pub fn connect(addr: impl ToSocketAddrs, cfg: &ClientConfig) -> std::io::Result<Client> {
        let mut last = std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address");
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, cfg.connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(cfg.read_timeout))?;
                    stream.set_nodelay(true)?;
                    let writer = stream.try_clone()?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Submits a job and blocks to its terminal reply. `fresh` bypasses
    /// the cache read.
    pub fn run(&mut self, spec: &JobSpec, fresh: bool) -> Result<RunOutcome, String> {
        self.send(&proto::render_submit(spec, fresh))?;
        loop {
            let line = self.recv()?;
            let v = json::parse(&line).map_err(|e| format!("bad reply {line:?}: {e}"))?;
            let num = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            match v.get("type").and_then(Json::as_str).unwrap_or("") {
                "accepted" => {}
                "result" => {
                    let payload = proto::extract_member(&line, "payload")
                        .ok_or_else(|| format!("result line without payload: {line:?}"))?
                        .to_string();
                    return Ok(RunOutcome {
                        job_id: num("job_id"),
                        cached: matches!(v.get("cached"), Some(Json::Bool(true))),
                        attempts: num("attempts") as u32,
                        payload,
                    });
                }
                "rejected" => {
                    return Err(format!(
                        "rejected ({}): {}",
                        v.get("reason").and_then(Json::as_str).unwrap_or("?"),
                        v.get("detail").and_then(Json::as_str).unwrap_or(""),
                    ))
                }
                "job_error" => {
                    return Err(format!(
                        "job failed: {}",
                        v.get("message").and_then(Json::as_str).unwrap_or("?"),
                    ))
                }
                "error" => {
                    return Err(format!(
                        "protocol error: {}",
                        v.get("message").and_then(Json::as_str).unwrap_or("?"),
                    ))
                }
                other => return Err(format!("unexpected reply type {other:?}")),
            }
        }
    }

    /// Fetches the server's metrics document (rendered JSON object).
    pub fn stats(&mut self) -> Result<String, String> {
        self.send("{\"type\": \"stats\"}")?;
        let line = self.recv()?;
        let v = json::parse(&line).map_err(|e| format!("bad reply {line:?}: {e}"))?;
        match v.get("type").and_then(Json::as_str) {
            Some("stats") => proto::extract_member(&line, "metrics")
                .map(str::to_string)
                .ok_or_else(|| format!("stats reply without metrics: {line:?}")),
            _ => Err(format!("unexpected reply {line:?}")),
        }
    }

    /// Asks the server to drain gracefully (finish in-flight jobs,
    /// flush durable state, exit); returns once acknowledged.
    pub fn drain(&mut self) -> Result<(), String> {
        self.control("drain")
    }

    /// Asks the server to shut down; returns once acknowledged.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.control("shutdown")
    }

    /// Sends a request of type `kind` and expects a plain `ok` reply.
    fn control(&mut self, kind: &str) -> Result<(), String> {
        self.send(&format!("{{\"type\": \"{kind}\"}}"))?;
        let line = self.recv()?;
        match json::parse(&line)
            .ok()
            .as_ref()
            .and_then(|v| v.get("type"))
            .and_then(Json::as_str)
        {
            Some("ok") => Ok(()),
            _ => Err(format!("unexpected reply {line:?}")),
        }
    }
}
