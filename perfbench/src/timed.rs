//! The timed run: closed-loop clients drive an embedded `lego-served`
//! daemon over TCP, one fresh daemon per pass, with no tracing.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use lego_served::{Client, Server, ServerConfig};
use lego_tune::Json;

use crate::pools::{Expect, Item, Workload};
use crate::stats::Histogram;

/// The `metrics` request line.
pub const METRICS_LINE: &str = "{\"verb\":\"metrics\"}";

/// The persistent files a workload's daemon starts from, prepared before
/// any timing.
#[derive(Clone, Debug, Default)]
pub struct Fixtures {
    /// The tuning-cache file (`None` = no cache).
    pub cache: Option<PathBuf>,
    /// The memo-sidecar file (`None` = no sidecar).
    pub sidecar: Option<PathBuf>,
}

/// Everything one timed run observed.
#[derive(Default)]
pub struct TimedRun {
    /// Set-up time of every pass's daemon, in seconds.
    pub setup_s: Vec<f64>,
    /// Summed wall time of the passes' request streams, in seconds.
    pub wall_s: f64,
    /// Each pass's completed `tune`s over its stream's wall time.
    pub pass_rps: Vec<f64>,
    /// Client-observed round trip of every `tune`.
    pub latency: Histogram,
    /// The same, for the requests the stream sent to keys the daemon
    /// held in memory.
    pub hit_latency: Histogram,
    /// `tune` requests sent, per pool key.
    pub tunes: Vec<usize>,
    /// Answers that differed from the same client's first answer for
    /// the key in the pass, per pool key.
    pub mismatched: Vec<usize>,
    /// `metrics` scrapes sent.
    pub scrapes: usize,
    /// Daemon tier counters summed over passes: memory, cache,
    /// coalesced, searched.
    pub tiers: [i64; 4],
    /// First answer line per pool key.
    pub answers: HashMap<usize, String>,
    /// Run-level check failures (tier counts, non-identical answers
    /// across passes, failed scrapes).
    pub problems: Vec<String>,
}

impl TimedRun {
    /// Passes run.
    pub fn passes(&self) -> usize {
        self.setup_s.len()
    }

    /// `tune` requests sent.
    pub fn attempted(&self) -> usize {
        self.latency.len()
    }
}

/// Fewest passes per run, so `setup_s` is a median of several starts.
const MIN_PASSES: usize = 5;

/// Runs passes until `seconds` have elapsed, the workload's minimum
/// request count is reached and at least [`MIN_PASSES`] daemons have
/// started. Only whole passes are counted, so every run does whole
/// multiples of the same work.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    fixtures: &Fixtures,
    work: &Path,
) -> io::Result<TimedRun> {
    let lines: Vec<String> = w.pool().iter().map(|s| s.to_json().render()).collect();
    let mut out = TimedRun {
        tunes: vec![0; lines.len()],
        mismatched: vec![0; lines.len()],
        ..TimedRun::default()
    };
    let t0 = Instant::now();
    let mut pass = 0u64;
    while out.passes() < MIN_PASSES
        || out.attempted() < w.min_requests()
        || t0.elapsed().as_secs_f64() < seconds
    {
        run_pass(w, &lines, &w.stream(seed, pass), fixtures, work, &mut out)?;
        pass += 1;
    }
    Ok(out)
}

/// Copies a fixture file to a per-pass path, so no daemon sees another
/// daemon's writes.
pub fn fresh_copy(src: &Option<PathBuf>, dst: PathBuf) -> io::Result<Option<PathBuf>> {
    match src {
        None => Ok(None),
        Some(src) => std::fs::copy(src, &dst).map(|_| Some(dst)),
    }
}

fn tier_counts(metrics: &str) -> Option<[i64; 4]> {
    let doc = Json::parse(metrics).ok()?;
    let tiers = doc.get("tiers")?;
    let mut out = [0i64; 4];
    for (slot, name) in out
        .iter_mut()
        .zip(["memory", "cache", "coalesced", "searched"])
    {
        *slot = tiers.get(name)?.as_i64()?;
    }
    Some(out)
}

/// What one client thread brings back from a pass.
#[derive(Default)]
struct ClientLog {
    latency: Histogram,
    hit_latency: Histogram,
    tunes: Vec<usize>,
    mismatched: Vec<usize>,
    firsts: HashMap<usize, String>,
    scrapes: Vec<String>,
}

/// One client's closed loop: send, wait for the answer, send the next.
fn drive(
    client: &mut Client,
    items: &[Item],
    lines: &[String],
    start: &Barrier,
    pairs: &Barrier,
) -> io::Result<ClientLog> {
    let mut log = ClientLog {
        tunes: vec![0; lines.len()],
        mismatched: vec![0; lines.len()],
        ..ClientLog::default()
    };
    start.wait();
    for &item in items {
        let (key, hit) = match item {
            Item::Scrape => {
                log.scrapes.push(client.roundtrip_line(METRICS_LINE)?);
                continue;
            }
            Item::Tune { key, expect } => (key, expect == Expect::Hit),
            Item::Pair { key, .. } => {
                pairs.wait();
                (key, false)
            }
        };
        let t = Instant::now();
        let answer = client.roundtrip_line(&lines[key])?;
        let ns = t.elapsed().as_nanos() as u64;
        log.latency.add(ns);
        if hit {
            log.hit_latency.add(ns);
        }
        log.tunes[key] += 1;
        match log.firsts.get(&key) {
            Some(first) if *first != answer => log.mismatched[key] += 1,
            Some(_) => {}
            None => {
                log.firsts.insert(key, answer);
            }
        }
    }
    Ok(log)
}

fn run_pass(
    w: Workload,
    lines: &[String],
    stream: &[Vec<Item>],
    fixtures: &Fixtures,
    work: &Path,
    out: &mut TimedRun,
) -> io::Result<()> {
    let n = out.passes();
    let dir = work.join(format!("pass-{n}"));
    std::fs::create_dir_all(&dir)?;
    let cache = fresh_copy(&fixtures.cache, dir.join("cache.json"))?;
    let sidecar = fresh_copy(&fixtures.sidecar, dir.join("sidecar.txt"))?;

    // Set-up: from `Server::start` until every worker has answered
    // its connection's first request.
    let t0 = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: w.clients(),
        cache,
        sidecar,
        device_default: gpu_sim::a100(),
    })?;
    let addr = server.local_addr();
    let mut clients = Vec::new();
    for _ in 0..w.clients() {
        let mut c = Client::connect(addr)?;
        c.roundtrip_line(METRICS_LINE)?;
        clients.push(c);
    }
    out.setup_s.push(t0.elapsed().as_secs_f64());

    let start = Barrier::new(clients.len() + 1);
    let pairs = Barrier::new(clients.len());
    let (logs, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(stream)
            .map(|(client, items)| {
                let (start, pairs) = (&start, &pairs);
                s.spawn(move || drive(client, items, lines, start, pairs))
            })
            .collect();
        start.wait();
        let t = Instant::now();
        let logs: Vec<io::Result<ClientLog>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (logs, t.elapsed().as_secs_f64())
    });
    out.wall_s += wall_s;

    let metrics = clients[0].roundtrip_line(METRICS_LINE)?;
    clients[0].roundtrip_line("{\"verb\":\"shutdown\"}")?;
    drop(clients);
    server.join()?;

    let logs = logs.into_iter().collect::<io::Result<Vec<_>>>()?;
    let tunes: usize = logs.iter().map(|l| l.latency.len()).sum();
    out.pass_rps.push(tunes as f64 / wall_s);
    for log in logs {
        out.latency.merge(&log.latency);
        out.hit_latency.merge(&log.hit_latency);
        for (sum, v) in out.tunes.iter_mut().zip(&log.tunes) {
            *sum += v;
        }
        for (sum, v) in out.mismatched.iter_mut().zip(&log.mismatched) {
            *sum += v;
        }
        out.scrapes += log.scrapes.len();
        for s in log.scrapes {
            if !s.starts_with("{\"ok\":true") {
                out.problems
                    .push(format!("pass {n}: metrics scrape failed: {s}"));
            }
        }
        for (key, answer) in log.firsts {
            match out.answers.get(&key) {
                None => {
                    out.answers.insert(key, answer);
                }
                Some(first) if *first != answer => out.problems.push(format!(
                    "pass {n}: key {key} answered differently from an earlier answer"
                )),
                Some(_) => {}
            }
        }
    }

    match tier_counts(&metrics) {
        None => out
            .problems
            .push(format!("pass {n}: unreadable metrics report")),
        Some(t) => {
            for (sum, v) in out.tiers.iter_mut().zip(t) {
                *sum += v;
            }
            let want_searched = (0..lines.len()).filter(|&k| !w.cached(k)).count() as i64;
            if t[3] != want_searched || t.iter().sum::<i64>() != tunes as i64 {
                out.problems.push(format!(
                    "pass {n}: tiers memory={} cache={} coalesced={} searched={} \
                     for {tunes} tunes (want {want_searched} searched)",
                    t[0], t[1], t[2], t[3]
                ));
            }
        }
    }
    std::fs::remove_dir_all(&dir)
}
