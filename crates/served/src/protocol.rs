//! The wire protocol: one JSON object per line, in both directions.
//!
//! Requests carry a `verb`:
//!
//! ```json
//! {"verb": "tune", "workload": "matmul(n=2048)", "device": "h100",
//!  "strategy": "anneal", "budget": 256, "space": "enlarged"}
//! {"verb": "fleet", "grid": "matmul:512..4096x2@a100,h100",
//!  "strategy": "anneal", "budget": 160, "threads": 4}
//! {"verb": "metrics"}
//! {"verb": "shutdown"}
//! ```
//!
//! Only `workload` is required for `tune`; `device` falls back to the
//! daemon's `--device-default`, and the search knobs fall back to the
//! [`lego_tune::Tuner`] defaults (exhaustive, budget 2000, unpinned
//! space). The `fleet` verb requires only `grid` (a
//! [`FleetSpec`] string); its strategy defaults to `anneal` — a fleet
//! exists to amortize budgeted searches — and `transfer` (boolean)
//! defaults to true. A fleet request may expand to at most
//! [`MAX_FLEET_KEYS`] keys and ask for at most [`MAX_FLEET_THREADS`]
//! threads; anything larger is an error. Responses always carry
//! `"ok"`; failures look like `{"ok": false, "error": "..."}` and
//! never close the connection — a malformed line costs one error
//! response, nothing more.
//!
//! Tune responses are *deterministic*: they contain only the served
//! result (winner config, estimates, evaluation count), never
//! per-request data like the serving tier or latency. A thundering herd
//! that coalesces onto one search therefore receives byte-identical
//! response lines, which the herd tests assert.

use gpu_sim::GpuConfig;
use lego_tune::domain::SpaceScale;
use lego_tune::strategy::{Budget, Strategy};
use lego_tune::{FleetSpec, Json, TuneRequest, WorkloadKind};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Resolve a best-config query.
    Tune(TuneSpec),
    /// Tune a whole grid of keys through the fleet driver.
    Fleet(FleetWire),
    /// Report the live service counters.
    Metrics,
    /// Drain in-flight work, flush the cache, exit.
    Shutdown,
}

/// The `tune` verb's parameters, still in wire form (strings).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneSpec {
    /// Workload display name, e.g. `matmul(n=2048)`.
    pub workload: String,
    /// Device tag or full name (`None` = daemon default).
    pub device: Option<String>,
    /// Search strategy name (`None` = exhaustive).
    pub strategy: Option<String>,
    /// Evaluation budget (`None` = default).
    pub budget: Option<usize>,
    /// Space-scale pin (`None` = strategy default).
    pub space: Option<String>,
}

impl TuneSpec {
    /// A spec naming only the workload (daemon-default device and
    /// search knobs).
    pub fn workload(name: impl Into<String>) -> TuneSpec {
        TuneSpec {
            workload: name.into(),
            ..TuneSpec::default()
        }
    }

    /// Renders the spec as a request line's JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("verb".to_string(), Json::Str("tune".into())),
            ("workload".to_string(), Json::Str(self.workload.clone())),
        ];
        let mut opt = |k: &str, v: &Option<String>| {
            if let Some(v) = v {
                pairs.push((k.to_string(), Json::Str(v.clone())));
            }
        };
        opt("device", &self.device);
        opt("strategy", &self.strategy);
        opt("space", &self.space);
        if let Some(b) = self.budget {
            pairs.push(("budget".to_string(), Json::Int(b as i64)));
        }
        Json::Obj(pairs)
    }
}

/// The `fleet` verb's parameters, still in wire form (strings).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetWire {
    /// The grid spec, e.g. `matmul:512..4096x2@a100,h100`
    /// ([`FleetSpec`] syntax).
    pub grid: String,
    /// Default device for specs without `@` (`None` = daemon default).
    pub device: Option<String>,
    /// Search strategy name (`None` = anneal; a fleet exists to
    /// amortize budgeted searches).
    pub strategy: Option<String>,
    /// Evaluation budget per key (`None` = default).
    pub budget: Option<usize>,
    /// Space-scale pin (`None` = strategy default).
    pub space: Option<String>,
    /// Worker threads (`None` = the driver default, 4).
    pub threads: Option<usize>,
    /// Whether to transfer frontiers between keys (`None` = true).
    pub transfer: Option<bool>,
}

impl FleetWire {
    /// A wire spec naming only the grid (daemon-default device, anneal,
    /// default budget, transfer on).
    pub fn grid(spec: impl Into<String>) -> FleetWire {
        FleetWire {
            grid: spec.into(),
            ..FleetWire::default()
        }
    }

    /// Renders the spec as a request line's JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("verb".to_string(), Json::Str("fleet".into())),
            ("grid".to_string(), Json::Str(self.grid.clone())),
        ];
        let mut opt = |k: &str, v: &Option<String>| {
            if let Some(v) = v {
                pairs.push((k.to_string(), Json::Str(v.clone())));
            }
        };
        opt("device", &self.device);
        opt("strategy", &self.strategy);
        opt("space", &self.space);
        if let Some(b) = self.budget {
            pairs.push(("budget".to_string(), Json::Int(b as i64)));
        }
        if let Some(t) = self.threads {
            pairs.push(("threads".to_string(), Json::Int(t as i64)));
        }
        if let Some(t) = self.transfer {
            pairs.push(("transfer".to_string(), Json::Bool(t)));
        }
        Json::Obj(pairs)
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Describes what was malformed — the message becomes the `error` field
/// of the response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
    if doc.get("verb").is_none() {
        return Err("missing \"verb\" (use tune|fleet|metrics|shutdown)".to_string());
    }
    let verb = doc
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| "\"verb\" must be a string".to_string())?;
    match verb {
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "tune" => {
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| "tune requires a string \"workload\"".to_string())?
                .to_string();
            let opt_str = |k: &str| -> Result<Option<String>, String> {
                match doc.get(k) {
                    None | Some(Json::Null) => Ok(None),
                    Some(Json::Str(s)) => Ok(Some(s.clone())),
                    Some(_) => Err(format!("\"{k}\" must be a string")),
                }
            };
            let budget = match doc.get("budget") {
                None | Some(Json::Null) => None,
                Some(Json::Int(v)) if *v > 0 => Some(*v as usize),
                Some(_) => {
                    return Err("\"budget\" must be a positive integer".to_string());
                }
            };
            Ok(Request::Tune(TuneSpec {
                workload,
                device: opt_str("device")?,
                strategy: opt_str("strategy")?,
                budget,
                space: opt_str("space")?,
            }))
        }
        "fleet" => {
            let grid = doc
                .get("grid")
                .and_then(Json::as_str)
                .ok_or_else(|| "fleet requires a string \"grid\"".to_string())?
                .to_string();
            let opt_str = |k: &str| -> Result<Option<String>, String> {
                match doc.get(k) {
                    None | Some(Json::Null) => Ok(None),
                    Some(Json::Str(s)) => Ok(Some(s.clone())),
                    Some(_) => Err(format!("\"{k}\" must be a string")),
                }
            };
            let opt_pos = |k: &str| -> Result<Option<usize>, String> {
                match doc.get(k) {
                    None | Some(Json::Null) => Ok(None),
                    Some(Json::Int(v)) if *v > 0 => Ok(Some(*v as usize)),
                    Some(_) => Err(format!("\"{k}\" must be a positive integer")),
                }
            };
            let transfer = match doc.get("transfer") {
                None | Some(Json::Null) => None,
                Some(Json::Bool(b)) => Some(*b),
                Some(_) => return Err("\"transfer\" must be a boolean".to_string()),
            };
            Ok(Request::Fleet(FleetWire {
                grid,
                device: opt_str("device")?,
                strategy: opt_str("strategy")?,
                budget: opt_pos("budget")?,
                space: opt_str("space")?,
                threads: opt_pos("threads")?,
                transfer,
            }))
        }
        other => Err(format!(
            "unknown verb {other:?} (use tune|fleet|metrics|shutdown)"
        )),
    }
}

/// Resolves a wire-form spec into a typed [`TuneRequest`] against the
/// daemon's default device.
///
/// # Errors
///
/// Unknown workload name, device, strategy, or space; the message names
/// the accepted values.
pub fn resolve(spec: &TuneSpec, default_device: &GpuConfig) -> Result<TuneRequest, String> {
    let kind = WorkloadKind::parse(&spec.workload)?;
    let device = match &spec.device {
        None => default_device.clone(),
        Some(name) => gpu_sim::lookup(name).ok_or_else(|| {
            format!(
                "unknown device {name:?} (use {})",
                gpu_sim::DEVICE_TAGS.join("|")
            )
        })?,
    };
    let strategy = match &spec.strategy {
        None => Strategy::default(),
        Some(name) => Strategy::parse(name)
            .ok_or_else(|| format!("unknown strategy {name:?} (use exhaustive|anneal|genetic)"))?,
    };
    let space = match &spec.space {
        None => None,
        Some(name) => Some(
            SpaceScale::parse(name)
                .ok_or_else(|| format!("unknown space {name:?} (use legacy|enlarged)"))?,
        ),
    };
    Ok(TuneRequest {
        kind,
        device,
        strategy,
        budget: spec.budget.map(Budget).unwrap_or_default(),
        space,
    })
}

/// Most keys one `fleet` request may expand to. The driver's transfer
/// topology compares every key with every earlier one before any
/// search runs, so the grid size bounds that quadratic setup too.
pub const MAX_FLEET_KEYS: usize = 1024;

/// Most worker threads one `fleet` request may ask for (the driver
/// spawns one OS thread per worker, up to the key count).
pub const MAX_FLEET_THREADS: usize = 64;

/// A resolved fleet request: the expanded grid plus driver knobs.
#[derive(Clone, Debug)]
pub struct ResolvedFleet {
    /// The concrete tuning requests, in grid order.
    pub grid: Vec<TuneRequest>,
    /// Worker threads for the fleet driver.
    pub threads: usize,
    /// Whether frontier transfer is enabled.
    pub transfer: bool,
}

/// Resolves a wire-form fleet spec against the daemon's default device.
/// The strategy defaults to `anneal` (a fleet exists to amortize
/// budgeted searches), threads to 4, transfer to on.
///
/// # Errors
///
/// Malformed grid spec, unknown device, strategy, or space, a grid of
/// more than [`MAX_FLEET_KEYS`] keys or more than [`MAX_FLEET_THREADS`]
/// threads.
pub fn resolve_fleet(
    wire: &FleetWire,
    default_device: &GpuConfig,
) -> Result<ResolvedFleet, String> {
    let spec = FleetSpec::parse(&wire.grid).map_err(|e| format!("bad grid: {e}"))?;
    if spec.len() > MAX_FLEET_KEYS {
        return Err(format!(
            "grid expands to {} keys, above the cap of {MAX_FLEET_KEYS}",
            spec.len()
        ));
    }
    let threads = wire.threads.unwrap_or(4);
    if threads > MAX_FLEET_THREADS {
        return Err(format!(
            "{threads} threads is above the cap of {MAX_FLEET_THREADS}"
        ));
    }
    let device = match &wire.device {
        None => default_device.clone(),
        Some(name) => gpu_sim::lookup(name).ok_or_else(|| {
            format!(
                "unknown device {name:?} (use {})",
                gpu_sim::DEVICE_TAGS.join("|")
            )
        })?,
    };
    let strategy = match &wire.strategy {
        None => Strategy::Anneal,
        Some(name) => Strategy::parse(name)
            .ok_or_else(|| format!("unknown strategy {name:?} (use exhaustive|anneal|genetic)"))?,
    };
    let space = match &wire.space {
        None => None,
        Some(name) => Some(
            SpaceScale::parse(name)
                .ok_or_else(|| format!("unknown space {name:?} (use legacy|enlarged)"))?,
        ),
    };
    let budget = wire.budget.map(Budget).unwrap_or_default();
    Ok(ResolvedFleet {
        grid: spec.requests(&device, strategy, budget, space),
        threads,
        transfer: wire.transfer.unwrap_or(true),
    })
}

/// The uniform failure response.
pub fn error_response(msg: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.to_string())),
    ])
}

/// Renders a response value as one wire line (newline-terminated).
pub fn render_line(j: &Json) -> String {
    let mut s = j.render();
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_verbs() {
        assert_eq!(
            parse_request("{\"verb\": \"metrics\"}"),
            Ok(Request::Metrics)
        );
        assert_eq!(
            parse_request("{\"verb\": \"shutdown\"}"),
            Ok(Request::Shutdown)
        );
        let r = parse_request(
            "{\"verb\":\"tune\",\"workload\":\"nw(n=448,b=16)\",\"device\":\"mi300\",\
             \"strategy\":\"anneal\",\"budget\":64,\"space\":\"enlarged\"}",
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Tune(TuneSpec {
                workload: "nw(n=448,b=16)".into(),
                device: Some("mi300".into()),
                strategy: Some("anneal".into()),
                budget: Some(64),
                space: Some("enlarged".into()),
            })
        );
        let f = parse_request(
            "{\"verb\":\"fleet\",\"grid\":\"matmul:512..2048x2@a100,h100\",\
             \"strategy\":\"genetic\",\"budget\":96,\"threads\":2,\"transfer\":false}",
        )
        .unwrap();
        assert_eq!(
            f,
            Request::Fleet(FleetWire {
                grid: "matmul:512..2048x2@a100,h100".into(),
                device: None,
                strategy: Some("genetic".into()),
                budget: Some(96),
                space: None,
                threads: Some(2),
                transfer: Some(false),
            })
        );
    }

    #[test]
    fn fleet_wire_round_trips_through_its_own_rendering() {
        let wire = FleetWire {
            grid: "softmax:1k..8kx2,nw:512".into(),
            device: Some("h100".into()),
            strategy: Some("anneal".into()),
            budget: Some(48),
            space: Some("enlarged".into()),
            threads: Some(3),
            transfer: Some(true),
        };
        let line = render_line(&wire.to_json());
        assert_eq!(parse_request(&line), Ok(Request::Fleet(wire)));
        let bare = FleetWire::grid("matmul:256");
        let line = render_line(&bare.to_json());
        assert_eq!(parse_request(&line), Ok(Request::Fleet(bare)));
    }

    #[test]
    fn resolve_fleet_expands_the_grid_with_defaults() {
        let wire = FleetWire::grid("matmul:256..512x2");
        let r = resolve_fleet(&wire, &gpu_sim::h100()).unwrap();
        assert_eq!(r.grid.len(), 2);
        assert!(r.grid.iter().all(|req| req.device.tag == "h100"));
        assert!(r.grid.iter().all(|req| req.strategy == Strategy::Anneal));
        assert_eq!(r.threads, 4);
        assert!(r.transfer);

        assert!(resolve_fleet(&FleetWire::grid("matmul:"), &gpu_sim::a100())
            .unwrap_err()
            .contains("bad grid"));
        let mut bad_dev = FleetWire::grid("matmul:256");
        bad_dev.device = Some("v100".into());
        assert!(resolve_fleet(&bad_dev, &gpu_sim::a100())
            .unwrap_err()
            .contains("unknown device"));
    }

    #[test]
    fn resolve_fleet_caps_the_key_count() {
        let grid = |keys: usize| FleetWire::grid(vec!["softmax:1k"; keys].join(","));
        let at_cap = resolve_fleet(&grid(MAX_FLEET_KEYS), &gpu_sim::a100()).unwrap();
        assert_eq!(at_cap.grid.len(), MAX_FLEET_KEYS);
        let err = resolve_fleet(&grid(MAX_FLEET_KEYS + 1), &gpu_sim::a100()).unwrap_err();
        assert!(err.contains("cap of 1024"), "{err}");
        // Devices multiply the count: 342 groups on 3 devices is 1026.
        let mut wide = grid(342);
        wide.grid.push_str("@a100,h100,mi300");
        let err = resolve_fleet(&wide, &gpu_sim::a100()).unwrap_err();
        assert!(err.contains("1026 keys"), "{err}");
    }

    #[test]
    fn resolve_fleet_caps_the_thread_count() {
        let mut wire = FleetWire::grid("matmul:256");
        wire.threads = Some(MAX_FLEET_THREADS);
        assert_eq!(
            resolve_fleet(&wire, &gpu_sim::a100()).unwrap().threads,
            MAX_FLEET_THREADS
        );
        wire.threads = Some(MAX_FLEET_THREADS + 1);
        let err = resolve_fleet(&wire, &gpu_sim::a100()).unwrap_err();
        assert!(err.contains("cap of 64"), "{err}");
    }

    #[test]
    fn spec_round_trips_through_its_own_rendering() {
        let spec = TuneSpec {
            workload: "matmul(n=1024)".into(),
            device: Some("h100".into()),
            strategy: Some("genetic".into()),
            budget: Some(128),
            space: None,
        };
        let line = render_line(&spec.to_json());
        assert_eq!(parse_request(&line), Ok(Request::Tune(spec)));
    }

    #[test]
    fn malformed_lines_error_without_panicking() {
        for bad in [
            "",
            "not json",
            "42",
            "{}",
            "{\"verb\": 7}",
            "{\"verb\": \"frobnicate\"}",
            "{\"verb\": \"tune\"}",
            "{\"verb\": \"tune\", \"workload\": 9}",
            "{\"verb\": \"tune\", \"workload\": \"matmul(n=64)\", \"budget\": -1}",
            "{\"verb\": \"tune\", \"workload\": \"matmul(n=64)\", \"budget\": \"big\"}",
            "{\"verb\": \"tune\", \"workload\": \"matmul(n=64)\", \"strategy\": 3}",
            "{\"verb\": \"fleet\"}",
            "{\"verb\": \"fleet\", \"grid\": 7}",
            "{\"verb\": \"fleet\", \"grid\": \"matmul:256\", \"threads\": 0}",
            "{\"verb\": \"fleet\", \"grid\": \"matmul:256\", \"transfer\": \"yes\"}",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn resolve_applies_defaults_and_rejects_unknowns() {
        let spec = TuneSpec::workload("transpose(n=512)");
        let req = resolve(&spec, &gpu_sim::h100()).unwrap();
        assert_eq!(req.device.tag, "h100");
        assert_eq!(req.strategy, Strategy::Exhaustive);

        let mut bad_dev = spec.clone();
        bad_dev.device = Some("v100".into());
        assert!(resolve(&bad_dev, &gpu_sim::a100())
            .unwrap_err()
            .contains("unknown device"));

        let mut bad_strat = spec.clone();
        bad_strat.strategy = Some("brute".into());
        assert!(resolve(&bad_strat, &gpu_sim::a100())
            .unwrap_err()
            .contains("unknown strategy"));

        let mut bad_space = spec;
        bad_space.space = Some("huge".into());
        assert!(resolve(&bad_space, &gpu_sim::a100())
            .unwrap_err()
            .contains("unknown space"));

        assert!(
            resolve(&TuneSpec::workload("frobnicate(n=2)"), &gpu_sim::a100())
                .unwrap_err()
                .contains("unknown workload family")
        );
    }
}
