//! Fleet-scale tuning: the grid grammar and the report types of a run
//! that tunes a whole grid of `(workload, size, device)` keys.
//!
//! A [`FleetSpec`] expands into one [`TuneRequest`] per key. The runner
//! is `lego_served::TuneService::fleet`: it answers every key, in grid
//! order on the calling thread, with the same `TuneService::resolve` a
//! `tune` request goes through, so a fleet key gets the daemon's memory
//! and cache tiers, coalescing, search, persistence and panic
//! containment, and a repeated key is a memory hit of its first
//! occurrence. Every answer is a pure function of `(key, knobs)`, the
//! answer [`crate::Tuner::tune_entry`] gives, whatever the cache held
//! before. A run comes back as a [`FleetReport`] of per-key
//! [`FleetKeyReport`]s.

use std::collections::BTreeMap;
use std::fmt;

use gpu_sim::GpuConfig;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::tuning::RowwiseOp;

use crate::cache::config_to_json;
use crate::json::Json;
use crate::request::{KnobText, Knobs, TuneRequest};
use crate::space::WorkloadKind;
use crate::tuner::TuneResult;

/// Row count of the rowwise workloads a [`FleetSpec`] expands to (the
/// tuned knob is the column block size; `m` only scales the trace).
pub const FLEET_ROWWISE_M: i64 = 256;

/// Baseline NW / LUD block size used by [`FleetSpec`] expansion (the
/// Rodinia default).
const FLEET_BASELINE_BLOCK: i64 = 16;

// ---------------------------------------------------------------------
// Grid specs
// ---------------------------------------------------------------------

/// A workload family a [`FleetSpec`] group can name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FleetFamily {
    /// Square FP16 GEMM.
    Matmul,
    /// Square FP32 transpose.
    Transpose,
    /// 3-D stencil of the given shape.
    Stencil(StencilShape),
    /// Needleman–Wunsch wavefront (baseline block 16).
    Nw,
    /// LU decomposition (baseline block 16).
    Lud,
    /// Row-wise streaming operator over [`FLEET_ROWWISE_M`] rows.
    Rowwise(RowwiseOp),
}

impl FleetFamily {
    fn parse(s: &str) -> Result<FleetFamily, String> {
        match s {
            "matmul" => Ok(FleetFamily::Matmul),
            "transpose" => Ok(FleetFamily::Transpose),
            "nw" => Ok(FleetFamily::Nw),
            "lud" => Ok(FleetFamily::Lud),
            "softmax" | "rowwise" => Ok(FleetFamily::Rowwise(RowwiseOp::Softmax)),
            "layernorm-fwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormFwd)),
            "layernorm-bwd" => Ok(FleetFamily::Rowwise(RowwiseOp::LayernormBwd)),
            "stencil" => Ok(FleetFamily::Stencil(StencilShape::Star(1))),
            other => match other.strip_prefix("stencil-").and_then(StencilShape::parse) {
                Some(shape) => Ok(FleetFamily::Stencil(shape)),
                None => Err(format!(
                    "unknown fleet family {other:?} (use matmul|transpose|stencil[-<shape>]|nw|lud|\
                     softmax|layernorm-fwd|layernorm-bwd|rowwise)"
                )),
            },
        }
    }

    /// The workload instance of this family at size `n`.
    pub fn kind(self, n: i64) -> WorkloadKind {
        match self {
            FleetFamily::Matmul => WorkloadKind::Matmul { n },
            FleetFamily::Transpose => WorkloadKind::Transpose { n },
            FleetFamily::Stencil(shape) => WorkloadKind::Stencil { shape, n },
            FleetFamily::Nw => WorkloadKind::Nw {
                n,
                b: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Lud => WorkloadKind::Lud {
                n,
                bs: FLEET_BASELINE_BLOCK,
            },
            FleetFamily::Rowwise(op) => WorkloadKind::Rowwise {
                op,
                m: FLEET_ROWWISE_M,
                n,
            },
        }
    }
}

impl fmt::Display for FleetFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetFamily::Matmul => f.write_str("matmul"),
            FleetFamily::Transpose => f.write_str("transpose"),
            FleetFamily::Stencil(shape) => write!(f, "stencil-{}", shape.name()),
            FleetFamily::Nw => f.write_str("nw"),
            FleetFamily::Lud => f.write_str("lud"),
            FleetFamily::Rowwise(op) => f.write_str(op.tag()),
        }
    }
}

/// One geometric size sweep of one family: `lo, lo·step, … ≤ hi`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FleetGroup {
    /// The workload family.
    pub family: FleetFamily,
    /// First size of the sweep.
    pub lo: i64,
    /// Inclusive upper bound of the sweep.
    pub hi: i64,
    /// Geometric step (≥ 2; a single-size group has `lo == hi`).
    pub step: i64,
}

impl FleetGroup {
    /// The sweep's sizes in ascending order.
    pub fn sizes(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut n = self.lo;
        while n <= self.hi {
            out.push(n);
            match n.checked_mul(self.step) {
                Some(next) => n = next,
                None => break,
            }
        }
        out
    }
}

impl fmt::Display for FleetGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}:{}", self.family, self.lo)
        } else {
            write!(f, "{}:{}..{}x{}", self.family, self.lo, self.hi, self.step)
        }
    }
}

/// A parsed fleet grid: comma-separated family sweeps, optionally
/// pinned to a device list.
///
/// ```text
/// matmul:512..4096x2,softmax:1k..64k@a100,h100
/// ```
///
/// means "matmul at 512, 1024, …, 4096 and softmax rows of 1024…65536
/// columns, each on both the A100 and the H100". Sizes take a `k`
/// suffix (×1024); the step after `x` defaults to 2; with no `@` the
/// caller's default device is used. The rendering round-trips
/// ([`fmt::Display`] prints the canonical form, which re-parses to an
/// equal spec).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FleetSpec {
    /// The family sweeps, in spec order.
    pub groups: Vec<FleetGroup>,
    /// Canonical device tags (empty = caller's default device).
    pub devices: Vec<String>,
}

fn parse_size(s: &str) -> Result<i64, String> {
    let (digits, mult) = match s.strip_suffix(['k', 'K']) {
        Some(d) => (d, 1024),
        None => (s, 1),
    };
    let v: i64 = digits
        .parse()
        .map_err(|_| format!("bad size {s:?} (use e.g. 512 or 4k)"))?;
    if v <= 0 {
        return Err(format!("size {s:?} must be positive"));
    }
    v.checked_mul(mult)
        .ok_or_else(|| format!("size {s:?} overflows"))
}

/// A device a grid spec names, resolved as every front door resolves
/// devices.
fn grid_device(tag: &str) -> Result<GpuConfig, String> {
    let text = KnobText {
        device: Some(tag),
        ..KnobText::default()
    };
    Ok(Knobs::new(gpu_sim::a100()).resolve(text)?.device)
}

impl FleetSpec {
    /// Parses a grid spec (see the type docs for the syntax).
    ///
    /// # Errors
    ///
    /// Describes the malformed fragment: unknown family or device, bad
    /// size or step, a size [`WorkloadKind::validate`] rejects, empty
    /// spec.
    pub fn parse(s: &str) -> Result<FleetSpec, String> {
        let s = s.trim();
        let (body, device_list) = match s.split_once('@') {
            Some((b, d)) => (b, Some(d)),
            None => (s, None),
        };
        let mut devices = Vec::new();
        if let Some(list) = device_list {
            for tag in list.split(',') {
                let dev = grid_device(tag.trim())?;
                if !devices.contains(&dev.tag.to_string()) {
                    devices.push(dev.tag.to_string());
                }
            }
        }
        let mut groups = Vec::new();
        for part in body.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (family, range) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed group {part:?}: expected family:sizes"))?;
            let family = FleetFamily::parse(family.trim())?;
            let (lo, hi, step) = match range.split_once("..") {
                None => {
                    let n = parse_size(range.trim())?;
                    (n, n, 2)
                }
                Some((lo, rest)) => {
                    let (hi, step) = match rest.split_once('x') {
                        None => (parse_size(rest.trim())?, 2),
                        Some((hi, step)) => {
                            let step: i64 = step
                                .trim()
                                .parse()
                                .map_err(|_| format!("bad step in {part:?}"))?;
                            (parse_size(hi.trim())?, step)
                        }
                    };
                    (parse_size(lo.trim())?, hi, step)
                }
            };
            if step < 2 {
                return Err(format!("group {part:?}: step must be ≥ 2"));
            }
            if hi < lo {
                return Err(format!("group {part:?}: upper bound below lower"));
            }
            let group = FleetGroup {
                family,
                lo,
                hi,
                step,
            };
            for n in group.sizes() {
                family
                    .kind(n)
                    .validate()
                    .map_err(|e| format!("group {part:?}: size {n}: {e}"))?;
            }
            groups.push(group);
        }
        if groups.is_empty() {
            return Err("empty fleet spec (expected family:sizes[,...][@devices])".to_string());
        }
        Ok(FleetSpec { groups, devices })
    }

    /// Number of keys the spec expands to.
    pub fn len(&self) -> usize {
        let per_device: usize = self.groups.iter().map(|g| g.sizes().len()).sum();
        per_device * self.devices.len().max(1)
    }

    /// Whether the spec expands to no keys (never true for a parsed
    /// spec; groups reject empty sweeps).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the spec into concrete requests, every key carrying the
    /// given search knobs, in a deterministic order: per group, per
    /// device, sizes ascending. `knobs.device` is the device of a spec
    /// without `@`.
    pub fn requests(&self, knobs: &Knobs) -> Vec<TuneRequest> {
        let devices: Vec<GpuConfig> = if self.devices.is_empty() {
            vec![knobs.device.clone()]
        } else {
            self.devices
                .iter()
                .map(|t| grid_device(t).expect("tags validated at parse time"))
                .collect()
        };
        let mut out = Vec::new();
        for group in &self.groups {
            for device in &devices {
                for n in group.sizes() {
                    let knobs = Knobs {
                        device: device.clone(),
                        ..knobs.clone()
                    };
                    out.push(knobs.request(group.family.kind(n)));
                }
            }
        }
        out
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.groups.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{g}")?;
        }
        if !self.devices.is_empty() {
            write!(f, "@{}", self.devices.join(","))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

/// One grid key's outcome.
#[derive(Clone, Debug)]
pub struct FleetKeyReport {
    /// The request this key ran.
    pub request: TuneRequest,
    /// Its schema-v4 cache key.
    pub cache_key: String,
    /// The outcome (an error never aborts the fleet).
    pub result: Result<TuneResult, String>,
    /// Wall-clock seconds this key took.
    pub elapsed_s: f64,
}

impl FleetKeyReport {
    /// The request class (`family@devicetag`) for metrics aggregation.
    pub fn class(&self) -> String {
        self.request.class()
    }

    /// One bench/wire row for this key.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".to_string(), Json::Str(self.request.kind.name())),
            (
                "device".to_string(),
                Json::Str(self.request.device.tag.to_string()),
            ),
            ("class".to_string(), Json::Str(self.class())),
            ("elapsed_s".to_string(), Json::num(self.elapsed_s)),
        ];
        match &self.result {
            Ok(t) => {
                pairs.push(("ok".to_string(), Json::Bool(true)));
                pairs.push(("config".to_string(), config_to_json(&t.config)));
                pairs.push(("naive_s".to_string(), Json::num(t.naive.time_s)));
                pairs.push(("tuned_s".to_string(), Json::num(t.tuned.time_s)));
                pairs.push(("speedup".to_string(), Json::num(t.speedup())));
                pairs.push(("evaluated".to_string(), Json::Int(t.evaluated as i64)));
                pairs.push(("from_cache".to_string(), Json::Bool(t.from_cache)));
            }
            Err(e) => {
                pairs.push(("ok".to_string(), Json::Bool(false)));
                pairs.push(("error".to_string(), Json::Str(e.clone())));
            }
        }
        Json::Obj(pairs)
    }
}

/// Aggregated fleet counters (whole-run or per request class).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FleetCounters {
    /// Keys tuned (completed, successfully or not).
    pub keys: u64,
    /// Keys answered without a search: from the memory tier (a repeat
    /// of an earlier grid key among them), the cache tier, or an
    /// identical in-flight search.
    pub cache_hits: u64,
    /// Fresh searches run.
    pub searched: u64,
    /// Total unique configurations scored.
    pub evals_total: u64,
    /// Keys whose search failed.
    pub errors: u64,
}

impl FleetCounters {
    fn absorb(&mut self, key: &FleetKeyReport) {
        self.keys += 1;
        match &key.result {
            Ok(t) if t.from_cache => self.cache_hits += 1,
            Ok(t) => {
                self.searched += 1;
                self.evals_total += t.evaluated as u64;
            }
            Err(_) => self.errors += 1,
        }
    }

    /// The counters as a JSON object (the shape `lego-served`'s
    /// `fleet` verb reports per class).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("keys_tuned", Json::Int(self.keys as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("searched", Json::Int(self.searched as i64)),
            ("evals_total", Json::Int(self.evals_total as i64)),
            ("errors", Json::Int(self.errors as i64)),
        ])
    }
}

/// The outcome of one fleet run.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-key outcomes, in grid order.
    pub keys: Vec<FleetKeyReport>,
    /// End-to-end wall-clock seconds.
    pub elapsed_s: f64,
}

impl FleetReport {
    /// End-to-end keys per second.
    pub fn keys_per_s(&self) -> f64 {
        self.keys.len() as f64 / self.elapsed_s.max(1e-12)
    }

    /// Whole-run counters.
    pub fn counters(&self) -> FleetCounters {
        let mut c = FleetCounters::default();
        for k in &self.keys {
            c.absorb(k);
        }
        c
    }

    /// Counters aggregated per request class (`family@devicetag`).
    pub fn class_counters(&self) -> BTreeMap<String, FleetCounters> {
        let mut out: BTreeMap<String, FleetCounters> = BTreeMap::new();
        for k in &self.keys {
            out.entry(k.class()).or_default().absorb(k);
        }
        out
    }

    /// The run summary as a JSON object (the shape `BENCH_fleet.json`
    /// and the `fleet` verb's response carry).
    pub fn summary_json(&self) -> Json {
        let c = self.counters();
        Json::obj([
            ("keys", Json::Int(self.keys.len() as i64)),
            ("elapsed_s", Json::num(self.elapsed_s)),
            ("keys_per_s", Json::num(self.keys_per_s())),
            ("cache_hits", Json::Int(c.cache_hits as i64)),
            ("searched", Json::Int(c.searched as i64)),
            ("evals_total", Json::Int(c.evals_total as i64)),
            ("errors", Json::Int(c.errors as i64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{Budget, Strategy};

    #[test]
    fn spec_parse_expands_the_readme_example() {
        let spec = FleetSpec::parse("matmul:512..4096x2,rowwise:1k..64k@a100,h100").unwrap();
        assert_eq!(spec.devices, vec!["a100", "h100"]);
        assert_eq!(spec.groups.len(), 2);
        assert_eq!(spec.groups[0].sizes(), vec![512, 1024, 2048, 4096]);
        assert_eq!(
            spec.groups[1].sizes(),
            vec![1024, 2048, 4096, 8192, 16384, 32768, 65536]
        );
        // 4 matmul sizes + 7 rowwise sizes, each on 2 devices.
        assert_eq!(spec.len(), 22);
        let knobs = Knobs {
            strategy: Strategy::Anneal,
            budget: Budget(64),
            ..Knobs::new(gpu_sim::a100())
        };
        let reqs = spec.requests(&knobs);
        assert_eq!(reqs.len(), 22);
        assert_eq!(reqs[0].kind, WorkloadKind::Matmul { n: 512 });
        assert_eq!(reqs[0].device.tag, "a100");
        assert_eq!(reqs[4].device.tag, "h100");
        assert_eq!(
            reqs[8].kind,
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: FLEET_ROWWISE_M,
                n: 1024
            }
        );
    }

    #[test]
    fn spec_display_round_trips() {
        for s in [
            "matmul:512..4096x2",
            "matmul:256",
            "transpose:1024..4096x4@mi300",
            "stencil-star-7pt:32..64x2,stencil-cube-27pt:48",
            "nw:512..2048x2,lud:512..2048x2@a100,h100",
            "softmax:1024..65536x2,layernorm-fwd:4096,layernorm-bwd:4096@h100",
        ] {
            let spec = FleetSpec::parse(s).unwrap();
            let printed = spec.to_string();
            let back = FleetSpec::parse(&printed).unwrap();
            assert_eq!(spec, back, "{s:?} -> {printed:?} must re-parse equal");
        }
        // Sugar forms normalize: k-suffix sizes, default step, aliases.
        let sugared = FleetSpec::parse("rowwise:1k..8kx2@a100").unwrap();
        assert_eq!(sugared.to_string(), "softmax:1024..8192x2@a100");
        assert_eq!(
            FleetSpec::parse("stencil:32").unwrap().to_string(),
            "stencil-star-7pt:32"
        );
        assert_eq!(
            FleetSpec::parse("matmul:512..4096").unwrap().to_string(),
            "matmul:512..4096x2"
        );
    }

    #[test]
    fn spec_rejects_malformed_grids() {
        for bad in [
            "",
            "matmul",
            "matmul:",
            "matmul:0",
            "matmul:-4",
            "matmul:4096..512x2",
            "matmul:512..4096x1",
            "matmul:512..4096xq",
            "frobnicate:512",
            "stencil-star-9pt:32",
            "matmul:512@v100",
            "matmul:9q",
        ] {
            assert!(FleetSpec::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn spec_rejects_sizes_the_workload_checks_refuse() {
        for (bad, size) in [
            ("matmul:33", "33"),
            ("transpose:16", "16"),
            ("nw:8", "8"),
            ("stencil:2", "2"),
            ("matmul:99999999999", "99999999999"),
            // A sweep is refused when any size fails, not just `lo`.
            ("matmul:4096..99999999999x1024", "4294967296"),
        ] {
            let err = FleetSpec::parse(bad).unwrap_err();
            assert!(
                err.starts_with(&format!("group {bad:?}: size {size}: ")),
                "{bad:?}: {err}"
            );
        }
    }
}
