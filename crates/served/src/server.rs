//! The daemon shell: a `TcpListener`, a fixed worker-thread pool, and
//! the request dispatch loop.
//!
//! The container has no crate registry, so there is no tokio/hyper
//! here — plain `std::net` blocking I/O. One acceptor thread pushes
//! connections into an `mpsc` channel; each worker owns one connection
//! at a time and serves its line-delimited requests until the client
//! hangs up. Sizing note: a client holds its worker for the lifetime of
//! the *connection*, so `--workers` bounds concurrent clients — a herd
//! of N simultaneous connections needs N workers to all coalesce in
//! flight at once (with fewer they serialize, which is still correct,
//! just less concurrent).
//!
//! Shutdown: the `shutdown` verb flags the service, answers, and pokes
//! the acceptor awake with a throwaway connection. The acceptor stops
//! and drops the channel sender; workers drain whatever connections
//! were already queued, finish their in-flight searches (reads poll on
//! a short timeout so idle connections notice the flag), and exit. The
//! daemon then flushes the cache and exits 0.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpu_sim::GpuConfig;
use lego_tune::fleet::FleetReport;
use lego_tune::Json;

use crate::protocol::{self, Request};
use crate::service::TuneService;

/// How often a blocked read re-checks the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Longest request line served, newline excluded. A longer line is
/// answered with one error and skipped up to its newline; the
/// connection stays open.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Daemon configuration (the `lego-served` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7711` (`:0` for ephemeral).
    pub addr: String,
    /// Worker-thread count = max concurrently-served connections.
    pub workers: usize,
    /// Persistent tuning-cache path (`None` = memory only).
    pub cache: Option<PathBuf>,
    /// Persistent memo-sidecar path (`None` = cold workers). Loaded
    /// once at startup to re-warm every worker's annotation cache and
    /// traffic memo; the merged per-worker derived results are flushed
    /// back on graceful shutdown.
    pub sidecar: Option<PathBuf>,
    /// Device used when a request names none.
    pub device_default: GpuConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7711".to_string(),
            workers: 8,
            cache: Some(PathBuf::from("TUNE_CACHE.json")),
            sidecar: None,
            device_default: gpu_sim::a100(),
        }
    }
}

/// A running daemon: join it to block until shutdown completes.
pub struct Server {
    local: SocketAddr,
    service: Arc<TuneService>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        let service = Arc::new(TuneService::new(cfg.device_default, cfg.cache, cfg.sidecar));
        service.set_addr(local);

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|idx| {
                let rx = Arc::clone(&rx);
                let service = Arc::clone(&service);
                std::thread::Builder::new()
                    .name(format!("served-worker-{idx}"))
                    .spawn(move || worker_loop(idx, &rx, &service))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("served-acceptor".to_string())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if service.is_shutdown() {
                            break;
                        }
                        match conn {
                            Ok(stream) => {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            Err(_) => {
                                if service.is_shutdown() {
                                    break;
                                }
                            }
                        }
                    }
                    // Dropping `tx` closes the channel: workers drain
                    // queued connections, then exit.
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            local,
            service,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The shared service state (tests and the load generator read
    /// counters and trigger shutdown through it).
    pub fn service(&self) -> Arc<TuneService> {
        Arc::clone(&self.service)
    }

    /// Blocks until the daemon has shut down and every worker drained,
    /// then flushes the cache.
    ///
    /// # Errors
    ///
    /// Propagates cache-flush I/O errors.
    pub fn join(self) -> std::io::Result<()> {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        self.service.flush()
    }
}

/// One worker: re-warm the thread-local memo tables from the startup
/// sidecar, pull connections until the channel closes, then contribute
/// this thread's derived results to the merged shutdown sidecar.
fn worker_loop(idx: usize, rx: &Mutex<mpsc::Receiver<TcpStream>>, service: &TuneService) {
    service.warm_worker(idx);
    loop {
        let conn = {
            let guard = rx.lock().expect("connection channel poisoned");
            guard.recv()
        };
        match conn {
            Ok(stream) => serve_connection(idx, stream, service),
            Err(_) => break, // acceptor gone and queue drained
        }
    }
    service.harvest_worker();
}

/// Serves one connection's line-delimited requests until EOF, error, or
/// shutdown. A malformed or over-long line costs an error response,
/// never the connection; a client that disconnects mid-search only
/// loses its response — the search result is still promoted and
/// persisted.
fn serve_connection(idx: usize, stream: TcpStream, service: &TuneService) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut respond = |response: &Json| {
        writer
            .write_all(protocol::render_line(response).as_bytes())
            .and_then(|()| writer.flush())
            .is_ok()
    };
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // Inside an over-long line: discard input up to its newline.
    let mut skipping = false;
    loop {
        // A read may deliver a partial line before the poll timeout
        // fires; keep accumulating into the same buffer until the
        // newline arrives, but never past one byte beyond the cap.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF
            Ok(_) if line.ends_with(b"\n") => {
                if std::mem::take(&mut skipping) {
                    line.clear();
                    continue;
                }
                let text = String::from_utf8_lossy(&line);
                let (response, shutdown) = dispatch(idx, text.trim(), service);
                line.clear();
                if !respond(&response) {
                    break; // client went away; nothing to report to
                }
                if shutdown {
                    service.begin_shutdown();
                    break;
                }
            }
            Ok(_) if line.len() > MAX_LINE_BYTES => {
                line.clear();
                if !std::mem::replace(&mut skipping, true) {
                    service.metrics().record_oversized();
                    let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                    if !respond(&protocol::error_response(&msg)) {
                        break;
                    }
                }
            }
            Ok(_) => break, // EOF mid-line
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if service.is_shutdown() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// The `fleet` verb's response: the run summary, per-class counters,
/// and every key's outcome.
fn fleet_response(report: &FleetReport) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    if let Json::Obj(summary) = report.summary_json() {
        // The summary's "keys" count is renamed so the per-key outcome
        // array below can use the name.
        pairs.extend(summary.into_iter().map(|(k, v)| {
            if k == "keys" {
                ("keys_tuned".to_string(), v)
            } else {
                (k, v)
            }
        }));
    }
    pairs.push((
        "classes".to_string(),
        Json::Obj(
            report
                .class_counters()
                .iter()
                .map(|(name, c)| (name.clone(), c.to_json()))
                .collect(),
        ),
    ));
    pairs.push((
        "keys".to_string(),
        Json::Arr(report.keys.iter().map(|k| k.to_json()).collect()),
    ));
    Json::Obj(pairs)
}

/// Parses and executes one request line; returns the response and
/// whether a shutdown was requested.
fn dispatch(idx: usize, line: &str, service: &TuneService) -> (Json, bool) {
    if line.is_empty() {
        service.metrics().record_rejected();
        return (protocol::error_response("empty request line"), false);
    }
    match protocol::parse_request(line) {
        Err(e) => {
            service.metrics().record_rejected();
            (protocol::error_response(&e), false)
        }
        Ok(Request::Metrics) => (service.metrics().to_json(), false),
        Ok(Request::Shutdown) => (
            Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
            true,
        ),
        Ok(Request::Fleet(wire)) => {
            match protocol::resolve_fleet(&wire, service.default_device()) {
                Err(e) => {
                    service.metrics().record_rejected();
                    (protocol::error_response(&e), false)
                }
                Ok(r) => {
                    let report = service.fleet(&r.grid, r.threads, r.transfer);
                    (fleet_response(&report), false)
                }
            }
        }
        Ok(Request::Tune(spec)) => match protocol::resolve(&spec, service.default_device()) {
            Err(e) => {
                service.metrics().record_rejected();
                (protocol::error_response(&e), false)
            }
            Ok(req) => {
                let t0 = Instant::now();
                let (result, tier) = service.resolve(&req);
                let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
                service
                    .metrics()
                    .record_tune(&req.class(), tier, result.is_ok(), elapsed_ms);
                // The arena and annotation caches are per worker
                // thread; publish this worker's counters so the metrics
                // report can aggregate them.
                service
                    .metrics()
                    .record_arena(idx, lego_expr::intern::stats());
                service
                    .metrics()
                    .record_sidecar(idx, lego_tune::annotate_sidecar_stats());
                service
                    .metrics()
                    .record_traffic(idx, gpu_sim::traffic_memo_stats());
                match result {
                    Ok(served) => (served.to_json(), false),
                    Err(e) => (protocol::error_response(&e), false),
                }
            }
        },
    }
}
