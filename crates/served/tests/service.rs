//! End-to-end tests against a real daemon on an ephemeral port.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

use lego_served::client::{is_ok, Client};
use lego_served::{FleetWire, Server, ServerConfig, TuneSpec};
use lego_tune::{Domain, Json, SpaceScale, Tuner, WorkloadKind};

/// A unique temp cache path per test (tests run in one process, so the
/// pid alone is not enough).
fn temp_cache(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "lego_served_test_{}_{}.json",
        tag,
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn start(tag: &str, workers: usize) -> (Server, PathBuf) {
    let cache = temp_cache(tag);
    (start_with(Some(cache.clone()), workers), cache)
}

/// A daemon persisting to `cache` (`None` = in-memory only).
fn start_with(cache: Option<PathBuf>, workers: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache,
        sidecar: None,
        device_default: gpu_sim::a100(),
    })
    .expect("bind ephemeral daemon")
}

fn shutdown_and_join(server: Server) {
    let mut ctl = Client::connect(server.local_addr()).expect("connect for shutdown");
    let bye = ctl.shutdown().expect("shutdown roundtrip");
    assert!(is_ok(&bye), "shutdown must be acknowledged");
    server.join().expect("drain and flush");
}

/// Tunes each `(workload, device)` key once over `clients` concurrent
/// connections (key `i` on connection `i % clients`, all released by
/// one barrier) and returns the response lines in key order.
fn tune_concurrently(addr: SocketAddr, keys: &[(&str, &str)], clients: usize) -> Vec<String> {
    let barrier = Arc::new(Barrier::new(clients));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            let lines: Vec<(usize, String)> = keys
                .iter()
                .enumerate()
                .skip(c)
                .step_by(clients)
                .map(|(i, (workload, device))| {
                    let line = format!(
                        "{{\"verb\":\"tune\",\"workload\":\"{workload}\",\"device\":\"{device}\"}}"
                    );
                    (i, line)
                })
                .collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                lines
                    .into_iter()
                    .map(|(i, line)| (i, client.roundtrip_line(&line).expect("tune roundtrip")))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut responses = vec![String::new(); keys.len()];
    for handle in handles {
        for (i, line) in handle.join().expect("client") {
            responses[i] = line;
        }
    }
    responses
}

#[test]
fn herd_of_sixteen_coalesces_onto_one_search() {
    const HERD: usize = 16;
    let (server, cache) = start("herd", HERD);
    let service = server.service();

    let lines = tune_concurrently(
        server.local_addr(),
        &[("nw(n=448,b=16)", "h100"); HERD],
        HERD,
    );

    assert_eq!(
        service.metrics().searches_run(),
        1,
        "a herd of {HERD} identical requests must run exactly one search"
    );
    let first = &lines[0];
    assert!(is_ok(&Json::parse(first).expect("parse response")));
    for line in &lines {
        assert_eq!(line, first, "herd responses must be byte-identical");
    }

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn malformed_lines_error_without_dropping_the_connection() {
    let (server, cache) = start("malformed", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for bad in [
        "this is not json",
        "{\"verb\": \"frobnicate\"}",
        "{\"verb\": \"tune\"}",
        "{\"verb\": \"tune\", \"workload\": \"matmul(n=nope)\"}",
        "{\"verb\": \"tune\", \"workload\": \"matmul(n=64)\", \"device\": \"v100\"}",
        "{\"verb\": \"tune\", \"workload\": \"matmul(n=64)\", \"strategy\": \"brute\"}",
        "{\"verb\": \"tune\", \"workload\": \"matmul(n=99999999999)\"}",
    ] {
        let line = client.roundtrip_line(bad).expect("connection must survive");
        let response = Json::parse(&line).expect("error responses are JSON");
        assert!(!is_ok(&response), "{bad:?} must be rejected");
        assert!(
            response.get("error").and_then(Json::as_str).is_some(),
            "rejections carry an error message"
        );
    }

    // The same connection still serves a good request afterwards.
    let good = client
        .tune(&TuneSpec::workload("transpose(n=256)"))
        .expect("tune after malformed lines");
    assert!(
        is_ok(&good),
        "connection must still serve: {}",
        good.render()
    );
    assert_eq!(service_errors(&server), 7);

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn oversized_line_errors_once_and_keeps_the_connection() {
    let (server, cache) = start("oversized", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Several times the daemon's line cap, so the skip spans many reads.
    let huge = format!(
        "{{\"verb\":\"tune\",\"workload\":\"{}\"}}",
        "x".repeat(200 * 1024)
    );
    let line = client
        .roundtrip_line(&huge)
        .expect("connection must survive");
    let response = Json::parse(&line).expect("error responses are JSON");
    assert!(!is_ok(&response), "an over-long line must be rejected");
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("exceeds")),
        "{line}"
    );

    // Exactly one response for the whole line: the next roundtrip on the
    // same connection reads the tune answer, not a second error.
    let good = client
        .tune(&TuneSpec::workload("transpose(n=256)"))
        .expect("tune after an oversized line");
    assert!(
        is_ok(&good),
        "connection must still serve: {}",
        good.render()
    );
    assert_eq!(service_errors(&server), 1);
    let oversized = server
        .service()
        .metrics()
        .to_json()
        .get("oversized_lines")
        .and_then(Json::as_i64);
    assert_eq!(
        oversized,
        Some(1),
        "the line-cap gauge counts the rejection"
    );

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

/// The wire takes any positive budget. One far beyond the domain used
/// to overflow the walks' proposal caps (anneal answered the naive
/// default, genetic never returned and pinned the worker); now the
/// search sweeps the domain and answers its exhaustive winner.
#[test]
fn a_budget_beyond_the_domain_gets_the_exhaustive_winner() {
    let server = start_with(None, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let kind = WorkloadKind::Transpose { n: 256 };
    let truth = Tuner::new(gpu_sim::a100())
        .with_space(SpaceScale::Enlarged)
        .tune(&kind)
        .expect("exhaustive search");
    let len = Domain::new(kind, SpaceScale::Enlarged).len() as i64;
    for strategy in ["anneal", "genetic"] {
        for budget in [1i64 << 58, 1 << 62, i64::MAX] {
            let line = format!(
                "{{\"verb\":\"tune\",\"workload\":\"transpose(n=256)\",\
                 \"strategy\":\"{strategy}\",\"budget\":{budget}}}"
            );
            let response =
                Json::parse(&client.roundtrip_line(&line).expect("tune roundtrip")).expect("JSON");
            assert!(
                is_ok(&response),
                "{strategy} {budget}: {}",
                response.render()
            );
            assert_eq!(
                response.get("winner").and_then(Json::as_str),
                Some(truth.config.to_string().as_str()),
                "{strategy} {budget}"
            );
            assert_eq!(
                response.get("evaluated").and_then(Json::as_i64),
                Some(len),
                "{strategy} {budget}"
            );
        }
    }
    drop(client);
    shutdown_and_join(server);
}

/// A budget-64 anneal that swept `nw(n=64,b=16)`'s 30-point domain
/// answers a later budget-128 request from the memory tier, with the
/// bytes a fresh budget-128 search answers.
#[test]
fn a_swept_domain_serves_a_larger_budget_from_memory() {
    let tune = |budget: usize| {
        format!(
            "{{\"verb\":\"tune\",\"workload\":\"nw(n=64,b=16)\",\
             \"strategy\":\"anneal\",\"budget\":{budget}}}"
        )
    };
    let fresh = start_with(None, 1);
    let expected = Client::connect(fresh.local_addr())
        .expect("connect")
        .roundtrip_line(&tune(128))
        .expect("fresh budget-128 tune");
    shutdown_and_join(fresh);

    let server = start_with(None, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.roundtrip_line(&tune(64)).expect("budget-64 tune");
    assert!(is_ok(&Json::parse(&first).expect("JSON")), "{first}");
    let served = client.roundtrip_line(&tune(128)).expect("budget-128 tune");
    assert_eq!(server.service().metrics().searches_run(), 1);
    let tiers = server.service().metrics().to_json();
    let memory = tiers.get("tiers").and_then(|t| t.get("memory"));
    assert_eq!(memory.and_then(Json::as_i64), Some(1));
    assert_eq!(served, expected);
    drop(client);
    shutdown_and_join(server);
}

/// `server`'s count of requests answered by `tier`.
fn tier_count(server: &Server, tier: &str) -> Option<i64> {
    server
        .service()
        .metrics()
        .to_json()
        .get("tiers")
        .and_then(|t| t.get(tier))
        .and_then(Json::as_i64)
}

fn service_errors(server: &Server) -> i64 {
    server
        .service()
        .metrics()
        .to_json()
        .get("malformed")
        .and_then(Json::as_i64)
        .expect("metrics carry malformed count")
}

#[test]
fn memory_tier_serves_repeats_and_metrics_see_every_tier() {
    let (server, cache) = start("tiers", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let spec = TuneSpec::workload("softmax(m=64,n=256)");

    let first = client.tune(&spec).expect("first tune");
    assert!(is_ok(&first));
    let second = client.tune(&spec).expect("second tune");
    assert_eq!(
        first.render(),
        second.render(),
        "repeat must serve the same result"
    );

    let metrics = client.metrics().expect("metrics");
    let tiers = metrics.get("tiers").expect("tiers object");
    assert_eq!(tiers.get("searched").and_then(Json::as_i64), Some(1));
    assert_eq!(tiers.get("memory").and_then(Json::as_i64), Some(1));
    let class = metrics
        .get("classes")
        .and_then(|c| c.get("softmax@a100"))
        .expect("per-class stats under family@tag");
    assert_eq!(class.get("requests").and_then(Json::as_i64), Some(2));
    assert!(class.get("p99_ms").and_then(Json::as_f64).unwrap() > 0.0);
    let arena = metrics.get("arena").expect("arena aggregate");
    assert!(arena.get("nodes").and_then(Json::as_i64).unwrap() > 0);

    // Memory hits run no tuner, so the per-worker cache counters they
    // would publish cannot have moved: a burst of them leaves every
    // published field as it was.
    let published = |m: &Json| {
        ["arena", "traffic", "sidecar_warm_hits", "sidecar_installed"]
            .map(|field| m.get(field).expect("published field").render())
    };
    for _ in 0..16 {
        assert!(is_ok(&client.tune(&spec).expect("memory hit")));
    }
    let after = client.metrics().expect("metrics after the burst");
    assert_eq!(
        after
            .get("tiers")
            .and_then(|t| t.get("memory"))
            .and_then(Json::as_i64),
        Some(17)
    );
    assert_eq!(published(&after), published(&metrics));

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn shutdown_flushes_the_cache_and_a_restart_preloads_it() {
    let (server, cache) = start("restart", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let spec = TuneSpec::workload("nw(n=192,b=8)");
    let first = client.tune(&spec).expect("tune before restart");
    assert!(is_ok(&first));
    shutdown_and_join(server);
    assert!(cache.exists(), "shutdown must leave a flushed cache behind");

    // A fresh daemon on the same cache serves the key from memory.
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache: Some(cache.clone()),
        sidecar: None,
        device_default: gpu_sim::a100(),
    })
    .expect("restart daemon");
    assert_eq!(
        server.service().memory_len(),
        1,
        "restart must preload the cache"
    );
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let again = client.tune(&spec).expect("tune after restart");
    assert_eq!(
        first.render(),
        again.render(),
        "restart must serve the same result"
    );
    assert_eq!(
        server.service().metrics().searches_run(),
        0,
        "the preloaded key must not trigger a search"
    );

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn fleet_verb_tunes_a_grid_and_feeds_the_tune_path() {
    let (server, cache) = start("fleet", 2);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut wire = FleetWire::grid("matmul:256..1024x2");
    wire.budget = Some(48);
    let report = client.fleet(&wire).expect("fleet roundtrip");
    assert!(is_ok(&report), "fleet must succeed: {}", report.render());
    assert_eq!(report.get("keys_tuned").and_then(Json::as_i64), Some(3));
    assert_eq!(report.get("errors").and_then(Json::as_i64), Some(0));
    assert_eq!(report.get("searched").and_then(Json::as_i64), Some(3));
    let keys = report
        .get("keys")
        .and_then(Json::as_arr)
        .expect("per-key outcomes");
    assert_eq!(keys.len(), 3);
    assert!(keys.iter().all(|k| k.get("ok") == Some(&Json::Bool(true))));

    // The fleet's searches are the daemon's own: each counts once.
    assert_eq!(server.service().metrics().searches_run(), 3);

    // The fleet's results serve subsequent tune requests from memory.
    let mut spec = TuneSpec::workload("matmul(n=512)");
    spec.strategy = Some("anneal".into());
    spec.budget = Some(48);
    let served = client.tune(&spec).expect("tune after fleet");
    assert!(is_ok(&served));
    assert_eq!(
        server.service().metrics().searches_run(),
        3,
        "a fleet-tuned key must not trigger a fresh search"
    );

    // Metrics count the fleet run, and its keys as tunes of their class.
    let metrics = client.metrics().expect("metrics");
    let fleet = metrics.get("fleet").expect("fleet counters");
    assert_eq!(fleet.get("runs").and_then(Json::as_i64), Some(1));
    let class = metrics
        .get("classes")
        .and_then(|c| c.get("matmul@a100"))
        .expect("fleet classes appear in metrics");
    assert_eq!(
        class
            .get("tiers")
            .and_then(|t| t.get("searched"))
            .and_then(Json::as_i64),
        Some(3)
    );

    // A second identical fleet run is all cache hits.
    let again = client.fleet(&wire).expect("second fleet");
    assert!(is_ok(&again));
    assert_eq!(again.get("cache_hits").and_then(Json::as_i64), Some(3));
    assert_eq!(again.get("searched").and_then(Json::as_i64), Some(0));

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

/// A pool of distinct cold keys over three families and two devices
/// (one workload on both), sent by concurrent clients: each key is one
/// fresh search, a replay is all memory-tier hits, and a daemon
/// restarted on a fresh cache but the first daemon's memo sidecar
/// searches every key again, answering the cold bytes from re-warmed
/// memo tables.
#[test]
fn sidecar_rewarm_reproduces_results_and_reports_warm_hits() {
    const CLIENTS: usize = 3;
    const KEYS: [(&str, &str); 8] = [
        ("transpose(n=288)", "a100"),
        ("transpose(n=288)", "h100"),
        ("transpose(n=256)", "h100"),
        ("softmax(m=8,n=256)", "a100"),
        ("softmax(m=16,n=256)", "h100"),
        ("nw(n=64,b=16)", "a100"),
        ("nw(n=80,b=16)", "h100"),
        ("transpose(n=272)", "a100"),
    ];
    let keys = KEYS.len() as i64;
    let cache1 = temp_cache("sidecar_cold");
    let sidecar = std::env::temp_dir().join(format!(
        "lego_served_test_sidecar_{}.txt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&sidecar);
    let start_on = |cache: &PathBuf| {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: CLIENTS,
            cache: Some(cache.clone()),
            sidecar: Some(sidecar.clone()),
            device_default: gpu_sim::a100(),
        })
        .expect("bind daemon")
    };

    // Every distinct cold key is a fresh search; a replay is served
    // from the memory tier with the same bytes. The shutdown flush
    // must leave a sidecar behind.
    let server = start_on(&cache1);
    let cold = tune_concurrently(server.local_addr(), &KEYS, CLIENTS);
    for (line, key) in cold.iter().zip(KEYS) {
        assert!(is_ok(&Json::parse(line).expect("JSON")), "{key:?}: {line}");
    }
    assert_eq!(tier_count(&server, "searched"), Some(keys));
    let replay = tune_concurrently(server.local_addr(), &KEYS, CLIENTS);
    assert_eq!(replay, cold, "a replay must serve the cold bytes");
    assert_eq!(tier_count(&server, "memory"), Some(keys));
    assert_eq!(tier_count(&server, "searched"), Some(keys));
    shutdown_and_join(server);
    assert!(sidecar.exists(), "shutdown must flush the memo sidecar");

    // Restart against a FRESH cache (forcing real searches) but the
    // same sidecar: the searches must reproduce the cold results
    // byte-identically and be served from re-warmed memo tables.
    let cache2 = temp_cache("sidecar_rewarm");
    let server = start_on(&cache2);
    let rewarmed = tune_concurrently(server.local_addr(), &KEYS, CLIENTS);
    for ((cold, rewarmed), key) in cold.iter().zip(&rewarmed).zip(KEYS) {
        assert_eq!(
            cold, rewarmed,
            "{key:?}: a sidecar-warmed search must reproduce the cold result byte-identically"
        );
    }
    assert_eq!(
        tier_count(&server, "searched"),
        Some(keys),
        "the fresh cache must force a real search of every key"
    );
    let metrics = server.service().metrics().to_json();
    assert!(
        metrics
            .get("sidecar_installed")
            .and_then(Json::as_i64)
            .unwrap()
            > 0,
        "restart must install sidecar entries"
    );
    assert!(
        metrics
            .get("sidecar_warm_hits")
            .and_then(Json::as_i64)
            .unwrap()
            > 0,
        "the rewarmed searches must hit installed entries"
    );

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache1);
    let _ = std::fs::remove_file(&cache2);
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn flush_creates_missing_parent_directories() {
    // Regression: pointing --cache/--sidecar into a directory that does
    // not exist yet used to fail the first flush at shutdown.
    let dir = std::env::temp_dir().join(format!("lego_served_missing_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.join("caches/tune.json");
    let sidecar = dir.join("sidecars/memo.txt");
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        cache: Some(cache.clone()),
        sidecar: Some(sidecar.clone()),
        device_default: gpu_sim::a100(),
    })
    .expect("bind daemon");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let served = client
        .tune(&TuneSpec::workload("softmax(m=16,n=256)"))
        .expect("tune");
    assert!(is_ok(&served));
    // join() flushes both stores; it must create the parents rather
    // than erroring out.
    shutdown_and_join(server);
    assert!(cache.exists(), "cache flush must create missing parents");
    assert!(
        sidecar.exists(),
        "sidecar flush must create missing parents"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_compacts_the_cache_and_rewrites_a_deleted_one_in_one_batch() {
    use lego_tune::{RowwiseOp, Tuner, TuningCache, WorkloadKind};
    let path = temp_cache("compact");
    let kind = WorkloadKind::Rowwise {
        op: RowwiseOp::Softmax,
        m: 16,
        n: 256,
    };
    Tuner::new(gpu_sim::a100())
        .with_cache(&path)
        .tune(&kind)
        .expect("tune");
    let cache = TuningCache::new(&path);
    let entries = cache.entries();
    let (key, entry) = &entries[0];
    // Two superseded records against one live one.
    cache.store(key, entry).unwrap();
    cache.store(key, entry).unwrap();
    let service = lego_served::TuneService::new(gpu_sim::a100(), Some(path.clone()), None);
    service.flush().expect("flush");
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 2, "flush left dead records: {text}");
    assert_eq!(cache.entries(), entries);
    // A cache deleted while the daemon ran comes back from the memory
    // tier.
    std::fs::remove_file(&path).unwrap();
    service.flush().expect("flush");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn client_disconnect_mid_search_still_promotes_the_result() {
    let (server, cache) = start("disconnect", 4);
    let addr = server.local_addr();
    let service = server.service();

    // Fire a tune request and hang up without reading the response.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"{\"verb\":\"tune\",\"workload\":\"transpose(n=320)\"}\n")
            .expect("send");
        // Dropping the stream closes the connection mid-search.
    }

    // The search must still complete and land in the memory tier.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while service.metrics().searches_run() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "search must survive the client disconnect"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    while service.memory_len() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "result must be promoted to the memory tier"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // A new client gets it from memory, no second search.
    let mut client = Client::connect(addr).expect("connect");
    let served = client
        .tune(&TuneSpec::workload("transpose(n=320)"))
        .expect("tune after disconnect");
    assert!(is_ok(&served));
    assert_eq!(service.metrics().searches_run(), 1);

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

/// A key a fleet tuned answers `tune` with the bytes a fresh daemon's
/// own search of that request answers, with a cache and without one.
#[test]
fn fleet_tuned_keys_answer_the_bytes_of_a_fresh_search() {
    const TUNE: &str =
        "{\"verb\":\"tune\",\"workload\":\"softmax(m=256,n=1024)\",\"strategy\":\"anneal\"}";
    for cached in [false, true] {
        let fresh_cache = cached.then(|| temp_cache("answer_fresh"));
        let fresh = start_with(fresh_cache.clone(), 1);
        let expected = Client::connect(fresh.local_addr())
            .expect("connect")
            .roundtrip_line(TUNE)
            .expect("fresh tune");
        assert_eq!(fresh.service().metrics().searches_run(), 1);
        shutdown_and_join(fresh);

        let fleet_cache = cached.then(|| temp_cache("answer_fleet"));
        let server = start_with(fleet_cache.clone(), 1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let report = client
            .fleet(&FleetWire::grid("softmax:1k"))
            .expect("fleet roundtrip");
        assert_eq!(report.get("searched").and_then(Json::as_i64), Some(1));
        let served = client.roundtrip_line(TUNE).expect("tune after fleet");
        // The fleet's one search; the tune is a memory hit.
        assert_eq!(server.service().metrics().searches_run(), 1);
        assert_eq!(served, expected, "cache attached: {cached}");
        drop(client);
        shutdown_and_join(server);

        for path in [fresh_cache, fleet_cache].into_iter().flatten() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A fleet on a memory-only daemon resolves its keys through the
/// daemon's tiers: a key an earlier `tune` searched is a memory hit, not
/// a second search, and the fleet's one search counts in `searches_run`
/// and in its class's tiers.
#[test]
fn fleet_keys_hit_the_memory_tier_and_count_as_searches() {
    let server = start_with(None, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut spec = TuneSpec::workload("softmax(m=256,n=1024)");
    spec.strategy = Some("anneal".into());
    spec.budget = Some(48);
    assert!(is_ok(&client.tune(&spec).expect("tune")));
    assert_eq!(server.service().metrics().searches_run(), 1);

    let mut wire = FleetWire::grid("softmax:1k,matmul:256");
    wire.budget = Some(48);
    let report = client.fleet(&wire).expect("fleet roundtrip");
    assert!(is_ok(&report), "{}", report.render());
    assert_eq!(report.get("searched").and_then(Json::as_i64), Some(1));
    assert_eq!(report.get("cache_hits").and_then(Json::as_i64), Some(1));
    assert_eq!(server.service().metrics().searches_run(), 2);

    let metrics = client.metrics().expect("metrics");
    let tiers = |class: &str| {
        let tiers = metrics
            .get("classes")
            .and_then(|c| c.get(class))
            .and_then(|c| c.get("tiers"))
            .unwrap_or_else(|| panic!("{class} in metrics"));
        ["memory", "searched"].map(|t| tiers.get(t).and_then(Json::as_i64))
    };
    assert_eq!(tiers("softmax@a100"), [Some(1), Some(1)]);
    assert_eq!(tiers("matmul@a100"), [Some(0), Some(1)]);

    drop(client);
    shutdown_and_join(server);
}

/// A fleet's searches reach `metrics`: the worker that ran them
/// publishes its arena and traffic-memo counters afterwards, as it does
/// after a searched `tune`.
#[test]
fn fleet_searches_publish_the_worker_caches() {
    let server = start_with(None, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut wire = FleetWire::grid("softmax:1k,matmul:256");
    wire.budget = Some(48);
    let report = client.fleet(&wire).expect("fleet roundtrip");
    assert_eq!(report.get("searched").and_then(Json::as_i64), Some(2));

    let metrics = client.metrics().expect("metrics");
    for (obj, name) in [
        ("traffic", "misses"),
        ("arena", "nodes"),
        ("arena", "memo_hit_rate"),
    ] {
        let value = metrics
            .get(obj)
            .and_then(|o| o.get(name))
            .and_then(Json::as_f64);
        assert!(value > Some(0.0), "{obj}.{name}: {}", metrics.render());
    }

    drop(client);
    shutdown_and_join(server);
}

/// Fleet requests over the key cap, or naming a size the workload
/// checks refuse, each get an error, and the daemon's only worker keeps
/// serving. A line that still asks for a thread count is answered: a
/// fleet runs on the worker that read it, so `threads` is ignored like
/// any unknown field.
#[test]
fn bad_fleet_requests_error_and_the_daemon_keeps_serving() {
    let (server, cache) = start("fleet_abuse", 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let over_keys = FleetWire::grid(vec!["softmax:1k"; 1025].join(","));
    for (wire, needle) in [
        (over_keys, "cap of 1024"),
        (FleetWire::grid("stencil:2"), "size 2"),
    ] {
        let resp = client.fleet(&wire).expect("fleet roundtrip");
        assert!(!is_ok(&resp), "{}", resp.render());
        let err = resp.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(err.contains(needle), "{err}");
    }
    let threads = client
        .roundtrip_line("{\"verb\":\"fleet\",\"grid\":\"softmax:1k\",\"threads\":65}")
        .expect("fleet roundtrip");
    let threads = Json::parse(&threads).expect("fleet response is JSON");
    assert!(is_ok(&threads), "{}", threads.render());
    assert_eq!(threads.get("errors").and_then(Json::as_i64), Some(0));
    assert!(is_ok(
        &client
            .tune(&TuneSpec::workload("softmax(m=64,n=256)"))
            .expect("tune on the same connection")
    ));
    drop(client);

    // The one worker is still alive for the next connection.
    let mut next = Client::connect(server.local_addr()).expect("connect again");
    assert!(is_ok(
        &next
            .tune(&TuneSpec::workload("softmax(m=64,n=256)"))
            .expect("tune on a new connection")
    ));
    drop(next);

    shutdown_and_join(server);
    let _ = std::fs::remove_file(&cache);
}

/// A key a batch tuner writes into the daemon's cache file after
/// preload is answered from the cache tier with the bytes a daemon
/// restarted on that file answers from memory.
#[test]
fn cache_tier_answers_the_bytes_of_a_restarted_daemon() {
    const WORKLOAD: &str = "softmax(m=64,n=256)";
    const TUNE: &str = "{\"verb\":\"tune\",\"workload\":\"softmax(m=64,n=256)\"}";
    let (server, cache) = start("cache_tier", 2);
    assert_eq!(server.service().memory_len(), 0, "nothing to preload");
    let kind = lego_tune::WorkloadKind::parse(WORKLOAD).expect("workload");
    let batch = lego_tune::Tuner::new(gpu_sim::a100())
        .with_cache(&cache)
        .tune(&kind)
        .expect("batch tune");
    assert!(!batch.from_cache && batch.evaluated > 1);

    let from_cache = Client::connect(server.local_addr())
        .expect("connect")
        .roundtrip_line(TUNE)
        .expect("tune from the cache tier");
    assert_eq!(tier_count(&server, "cache"), Some(1));
    assert_eq!(server.service().metrics().searches_run(), 0);
    shutdown_and_join(server);

    let restarted = start_with(Some(cache.clone()), 2);
    let from_memory = Client::connect(restarted.local_addr())
        .expect("reconnect")
        .roundtrip_line(TUNE)
        .expect("tune from the memory tier");
    assert_eq!(tier_count(&restarted, "memory"), Some(1));
    assert_eq!(
        from_cache, from_memory,
        "the cache tier must answer the bytes of the memory tier"
    );
    shutdown_and_join(restarted);
    let _ = std::fs::remove_file(&cache);
}

/// A workload too small to price is refused at every door with the
/// same check: the library's one search primitive
/// (`Tuner::tune_entry`) answers `TuneError::Invalid` instead of a
/// launch-overhead "winner", while the daemon's tune and fleet verbs
/// and the fleet grid parser refuse it before searching, with the
/// messages they always gave.
#[test]
fn an_undersized_workload_is_refused_at_every_door() {
    const CHECK: &str = "n=33 is smaller than the default configuration's tile or block (64)";
    let kind = WorkloadKind::Matmul { n: 33 };
    match Tuner::new(gpu_sim::a100()).tune(&kind) {
        Err(e @ lego_tune::TuneError::Invalid(_)) => assert_eq!(
            e.to_string(),
            format!("invalid workload: matmul(n=33): {CHECK}")
        ),
        other => panic!("matmul(n=33) was not refused: {other:?}"),
    }
    assert_eq!(
        lego_tune::FleetSpec::parse("matmul:33").unwrap_err(),
        format!("group \"matmul:33\": size 33: {CHECK}")
    );

    let server = start_with(None, 1);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let error = |resp: Json| {
        assert!(!is_ok(&resp), "{}", resp.render());
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let tune = client
        .tune(&TuneSpec::workload("matmul(n=33)"))
        .expect("tune roundtrip");
    assert_eq!(error(tune), format!("workload \"matmul(n=33)\": {CHECK}"));
    let fleet = client
        .fleet(&FleetWire::grid("matmul:33"))
        .expect("fleet roundtrip");
    assert_eq!(
        error(fleet),
        format!("bad grid: group \"matmul:33\": size 33: {CHECK}")
    );
    drop(client);
    shutdown_and_join(server);
}
