//! The tuning-service daemon.
//!
//! ```text
//! lego-served [--addr HOST:PORT] [--workers N] [--cache PATH]
//!             [--sidecar PATH] [--device-default a100|h100|mi300]
//! ```
//!
//! Listens for line-JSON requests (`tune`, `fleet`, `metrics`,
//! `shutdown`) and serves best-config answers through the three-tier
//! path described in `lego_served::service`. The `fleet` verb tunes a
//! whole grid at once by resolving every key through that same path
//! (`lego_served::TuneService::fleet`) on the worker that read the
//! line, at most 1,024 keys per request
//! (`lego_served::protocol::MAX_FLEET_KEYS`). Runs until a client
//! sends the `shutdown` verb, then drains in-flight work, flushes the
//! tuning cache and the sidecar, and exits 0.

use std::path::PathBuf;

use lego_served::{Server, ServerConfig};
use lego_tune::{KnobText, Knobs};

const USAGE: &str = "lego-served: serve tuning requests over line-delimited JSON on TCP

usage: lego-served [options]

options:
  --addr HOST:PORT     listen address (default 127.0.0.1:7711; port 0 = ephemeral)
  --workers N          worker threads = max concurrent connections (default 8)
  --cache PATH         persistent tuning-cache file (default TUNE_CACHE.json;
                       \"none\" disables persistence)
  --sidecar PATH       persistent memo sidecar: re-warms every worker's
                       candidate-annotation cache and traffic memo at
                       startup and flushes the merged results on shutdown
                       (default none; \"none\" disables)
  --device-default D   device when a request names none: a100|h100|mi300
                       (default a100)
  --help               print this help

protocol (one JSON object per line, response mirrors with \"ok\"):
  {\"verb\":\"tune\",\"workload\":\"matmul(n=2048)\",\"device\":\"h100\",
   \"strategy\":\"anneal\",\"budget\":256,\"space\":\"enlarged\"}
  {\"verb\":\"fleet\",\"grid\":\"matmul:512..4096x2@a100,h100\",
   \"strategy\":\"anneal\",\"budget\":160}
   (a fleet grid may expand to at most 1024 keys)
  {\"verb\":\"metrics\"}
  {\"verb\":\"shutdown\"}";

fn flag_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return match args.next() {
                Some(v) if !v.starts_with("--") => Some(v),
                _ => {
                    eprintln!("{flag} requires a value");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    const VALUE_FLAGS: [&str; 5] = [
        "--addr",
        "--workers",
        "--cache",
        "--sidecar",
        "--device-default",
    ];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            let _ = it.next();
        } else {
            eprintln!("unknown argument {a:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    }

    let mut cfg = ServerConfig::default();
    if let Some(addr) = flag_value("--addr") {
        cfg.addr = addr;
    }
    if let Some(w) = flag_value("--workers") {
        match w.parse::<usize>() {
            Ok(n) if n > 0 => cfg.workers = n,
            _ => {
                eprintln!("--workers requires a positive integer, got {w:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = flag_value("--cache") {
        cfg.cache = if path == "none" {
            None
        } else {
            Some(PathBuf::from(path))
        };
    }
    if let Some(path) = flag_value("--sidecar") {
        cfg.sidecar = if path == "none" {
            None
        } else {
            Some(PathBuf::from(path))
        };
    }
    if let Some(dev) = flag_value("--device-default") {
        let text = KnobText {
            device: Some(&dev),
            ..KnobText::default()
        };
        cfg.device_default = match Knobs::new(cfg.device_default).resolve(text) {
            Ok(knobs) => knobs.device,
            Err(e) => {
                eprintln!("--device-default: {e}");
                std::process::exit(2);
            }
        };
    }

    let workers = cfg.workers;
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lego-served: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "lego-served: listening on {} ({} workers); send {{\"verb\":\"shutdown\"}} to stop",
        server.local_addr(),
        workers
    );
    if let Err(e) = server.join() {
        eprintln!("lego-served: cache flush failed: {e}");
        std::process::exit(1);
    }
    println!("lego-served: drained and flushed, bye");
}
