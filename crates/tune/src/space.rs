//! Tunable workloads and their candidates: each workload's hand-picked
//! default configuration, the expression-variant annotation of a
//! candidate, and how a candidate becomes a concrete [`Layout`] plus a
//! `gpu-sim` [`Workload`] trace. Which configurations a search may
//! visit is defined once, by [`crate::domain::Domain`].
//!
//! Every domain lists the paper's hand-picked configuration first, so
//! the tuned result can never regress the shipped default — the search
//! is free to do better, never worse.
//!
//! Trace construction lives in [`gpu_sim::trace`]: this module only
//! maps a [`TunedConfig`] onto the shared builders (plus the tuner-side
//! index-expression flop term), so the estimate the tuner ranks is
//! produced by literally the same code path as the paper tables in
//! `lego-bench`.

use gpu_sim::score::Workload;
use gpu_sim::trace::{
    LaneAxis, LudPanels, MatmulWaves, NwWavefront, RowwiseSweep, StencilWalk, TraceBuilder,
    TransposeSweeps,
};
use gpu_sim::GpuConfig;
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::cuda::transpose::staging_perm;
use lego_codegen::tuning::{
    NwLayoutChoice, RowwiseOp, ScheduleChoice, StencilLayoutChoice, TunedConfig,
};
use lego_core::brick::{brick3d, row_major3d};
use lego_core::perms::{block_cyclic_rows, morton};
use lego_core::{sugar, Layout, OrderBy, Result};
use lego_expr::{Engine, Expr, RangeEnv, Variant};

/// A tunable workload instance: the problem, not the configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKind {
    /// Square FP16 GEMM `C = A·B`.
    Matmul {
        /// Problem side length.
        n: i64,
    },
    /// Square FP32 out-of-place transpose.
    Transpose {
        /// Problem side length.
        n: i64,
    },
    /// 3-D FP32 stencil sweep.
    Stencil {
        /// The stencil shape.
        shape: StencilShape,
        /// Domain side length.
        n: i64,
    },
    /// Needleman–Wunsch wavefront over an `n×n` scoring matrix.
    Nw {
        /// Scoring-matrix side length.
        n: i64,
        /// Baseline block size (the Rodinia default, 16).
        b: i64,
    },
    /// LU decomposition of an `n×n` matrix.
    Lud {
        /// Matrix side length.
        n: i64,
        /// Baseline LUD block side = CUDA block side (16 in Rodinia).
        bs: i64,
    },
    /// Row-wise streaming operator (softmax / LayerNorm) over an `m×n`
    /// fp16 matrix; the tuned knob is the column block size `BS`.
    Rowwise {
        /// Which operator.
        op: RowwiseOp,
        /// Number of rows.
        m: i64,
        /// Row length (columns).
        n: i64,
    },
}

/// Stable short tag of a rowwise operator, shared by workload names and
/// trace labels.
pub fn rowwise_tag(op: RowwiseOp) -> &'static str {
    op.tag()
}

/// The smallest power of two ≥ `n` (for positive `n`).
fn next_pow2(n: i64) -> i64 {
    (n.max(1) as u64).next_power_of_two() as i64
}

/// Legal rowwise column block sizes for row length `n`: powers of two
/// (the generated Triton kernels require it) from one warp's worth up
/// to a few× the padded row. Never empty: the floor of 32 keeps the
/// default config a member even for degenerate tiny rows.
pub fn rowwise_block_sizes(n: i64) -> Vec<i64> {
    let hi = (next_pow2(n) * 4).clamp(32, 16384);
    let mut out = Vec::new();
    let mut p = 32i64;
    while p <= hi {
        out.push(p);
        p *= 2;
    }
    out
}

impl WorkloadKind {
    /// The workload family tag (`matmul`, `transpose`, `stencil`, `nw`,
    /// `lud`, or the rowwise operator tag) — the request-class label
    /// the tuning service aggregates metrics under.
    pub fn family(&self) -> &'static str {
        match self {
            WorkloadKind::Matmul { .. } => "matmul",
            WorkloadKind::Transpose { .. } => "transpose",
            WorkloadKind::Stencil { .. } => "stencil",
            WorkloadKind::Nw { .. } => "nw",
            WorkloadKind::Lud { .. } => "lud",
            WorkloadKind::Rowwise { op, .. } => op.tag(),
        }
    }

    /// The workload's numeric size parameters in a stable order — the
    /// coordinates the fleet driver's transfer distance
    /// ([`crate::cache::key_distance`]) is computed over. Two workloads
    /// of one family always return equally-shaped lists.
    pub fn size_params(&self) -> Vec<(&'static str, i64)> {
        match *self {
            WorkloadKind::Matmul { n } => vec![("n", n)],
            WorkloadKind::Transpose { n } => vec![("n", n)],
            WorkloadKind::Stencil { n, .. } => vec![("n", n)],
            WorkloadKind::Nw { n, b } => vec![("n", n), ("b", b)],
            WorkloadKind::Lud { n, bs } => vec![("n", n), ("bs", bs)],
            WorkloadKind::Rowwise { m, n, .. } => vec![("m", m), ("n", n)],
        }
    }

    /// Parses a display/cache name (the exact strings [`Self::name`]
    /// produces, e.g. `matmul(n=2048)` or `stencil(star-13pt,n=48)`)
    /// back into a workload — the tuning-service wire protocol names
    /// workloads this way. Errors describe what was wrong, for the
    /// protocol's error responses.
    ///
    /// # Errors
    ///
    /// Unknown family, malformed parameter list, missing/extra/
    /// non-positive parameters, a problem whose element count
    /// overflows `i64`, or a problem smaller than its default
    /// configuration's tile or block.
    pub fn parse(name: &str) -> std::result::Result<WorkloadKind, String> {
        let s = name.trim();
        let (family, rest) = s
            .split_once('(')
            .ok_or_else(|| format!("malformed workload {s:?}: expected family(params)"))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| format!("malformed workload {s:?}: missing closing paren"))?;

        // `stencil` leads with a shape tag; everything else is k=v only.
        let mut shape: Option<StencilShape> = None;
        let mut params: Vec<(&str, i64)> = Vec::new();
        for (i, part) in args.split(',').enumerate() {
            let part = part.trim();
            match part.split_once('=') {
                Some((k, v)) => {
                    let v: i64 = v.parse().map_err(|_| {
                        format!("workload {s:?}: parameter {k}={v:?} is not an integer")
                    })?;
                    if v <= 0 {
                        return Err(format!("workload {s:?}: parameter {k} must be positive"));
                    }
                    params.push((k, v));
                }
                None if family == "stencil" && i == 0 => {
                    shape = Some(StencilShape::parse(part).ok_or_else(|| {
                        format!("workload {s:?}: unknown stencil shape {part:?} (use e.g. star-13pt, cube-27pt)")
                    })?);
                }
                None => {
                    return Err(format!("workload {s:?}: expected k=v, got {part:?}"));
                }
            }
        }

        let take = |keys: &[&str]| -> std::result::Result<Vec<i64>, String> {
            let got: Vec<&str> = params.iter().map(|(k, _)| *k).collect();
            if got != keys {
                return Err(format!(
                    "workload {s:?}: expected parameters {keys:?}, got {got:?}"
                ));
            }
            Ok(params.iter().map(|(_, v)| *v).collect())
        };

        let rowwise = |op: RowwiseOp| -> std::result::Result<WorkloadKind, String> {
            let v = take(&["m", "n"])?;
            Ok(WorkloadKind::Rowwise {
                op,
                m: v[0],
                n: v[1],
            })
        };

        let kind = match family {
            "matmul" => Ok(WorkloadKind::Matmul { n: take(&["n"])?[0] }),
            "transpose" => Ok(WorkloadKind::Transpose { n: take(&["n"])?[0] }),
            "stencil" => {
                let shape =
                    shape.ok_or_else(|| format!("workload {s:?}: missing stencil shape"))?;
                Ok(WorkloadKind::Stencil {
                    shape,
                    n: take(&["n"])?[0],
                })
            }
            "nw" => {
                let v = take(&["n", "b"])?;
                Ok(WorkloadKind::Nw { n: v[0], b: v[1] })
            }
            "lud" => {
                let v = take(&["n", "bs"])?;
                Ok(WorkloadKind::Lud { n: v[0], bs: v[1] })
            }
            "softmax" => rowwise(RowwiseOp::Softmax),
            "layernorm-fwd" => rowwise(RowwiseOp::LayernormFwd),
            "layernorm-bwd" => rowwise(RowwiseOp::LayernormBwd),
            other => Err(format!(
                "unknown workload family {other:?} (use matmul|transpose|stencil|nw|lud|softmax|layernorm-fwd|layernorm-bwd)"
            )),
        }?;
        kind.validate()
            .map_err(|e| format!("workload {s:?}: {e}"))?;
        Ok(kind)
    }

    /// Checks that the problem can be priced: the element count of its
    /// largest array (`n²`, `n³` for stencils, `m·n` for rowwise) fits
    /// `i64`, and its side is at least the default configuration's tile
    /// or block, which would otherwise cover zero tiles and price only
    /// launch overhead. Matmul's smallest default tile is 64,
    /// transpose's 32, a stencil's lane extent at least 8; NW and LUD
    /// name their block. [`Self::parse`] and fleet grids apply it to
    /// every workload they build.
    ///
    /// # Errors
    ///
    /// Names the failed check.
    pub fn validate(&self) -> std::result::Result<(), String> {
        let elements = match *self {
            WorkloadKind::Matmul { n }
            | WorkloadKind::Transpose { n }
            | WorkloadKind::Nw { n, .. }
            | WorkloadKind::Lud { n, .. } => n.checked_mul(n),
            WorkloadKind::Stencil { n, .. } => n.checked_mul(n).and_then(|sq| sq.checked_mul(n)),
            WorkloadKind::Rowwise { m, n, .. } => m.checked_mul(n),
        };
        if elements.is_none() {
            return Err("problem element count overflows i64".to_string());
        }
        let (n, tile) = match *self {
            WorkloadKind::Matmul { n } => (n, 64),
            WorkloadKind::Transpose { n } => (n, 32),
            WorkloadKind::Stencil { n, .. } => (n, 8),
            WorkloadKind::Nw { n, b } => (n, b),
            WorkloadKind::Lud { n, bs } => (n, bs),
            WorkloadKind::Rowwise { .. } => return Ok(()),
        };
        if n < tile {
            return Err(format!(
                "n={n} is smaller than the default configuration's tile or block ({tile})"
            ));
        }
        Ok(())
    }

    /// Stable display/cache name, e.g. `matmul(n=2048)`.
    pub fn name(&self) -> String {
        match self {
            WorkloadKind::Matmul { n } => format!("matmul(n={n})"),
            WorkloadKind::Transpose { n } => format!("transpose(n={n})"),
            WorkloadKind::Stencil { shape, n } => {
                format!("stencil({},n={n})", shape.name())
            }
            WorkloadKind::Nw { n, b } => format!("nw(n={n},b={b})"),
            WorkloadKind::Lud { n, bs } => format!("lud(n={n},bs={bs})"),
            WorkloadKind::Rowwise { op, m, n } => {
                format!("{}(m={m},n={n})", rowwise_tag(*op))
            }
        }
    }

    /// The stable name of the [`gpu_sim::PricingMode`] the cost model
    /// applies to this workload family — part of the tuning-cache key,
    /// so estimates produced under one combining rule are never served
    /// to a search expecting another. Must agree with the modes the
    /// `gpu_sim::trace` builders declare (asserted in tests).
    pub fn pricing_mode(&self) -> &'static str {
        match self {
            // Dependency-serialized wavefront / panel pipelines.
            WorkloadKind::Nw { .. } | WorkloadKind::Lud { .. } => "additive-launch",
            _ => "roofline",
        }
    }

    /// The paper's hand-picked default configuration — the baseline the
    /// tuned result is compared against.
    pub fn default_config(&self) -> TunedConfig {
        match self {
            WorkloadKind::Matmul { n } => {
                // The Fig. 1 config, degraded gracefully for sizes the
                // 128-tile or GM=8 grouping doesn't divide.
                let (bm, bn, bk) = if n % 128 == 0 {
                    (128, 128, 64)
                } else {
                    (64, 64, 32)
                };
                let nt_m = n / bm;
                let gm = [8i64, 4, 2]
                    .into_iter()
                    .find(|g| nt_m % g == 0)
                    .unwrap_or(1);
                TunedConfig::Matmul {
                    bm,
                    bn,
                    bk,
                    schedule: ScheduleChoice::Grouped { gm },
                }
            }
            WorkloadKind::Transpose { .. } => TunedConfig::Transpose {
                t: 32,
                staging: None,
            },
            WorkloadKind::Stencil { n, .. } => TunedConfig::Stencil {
                n: *n,
                layout: StencilLayoutChoice::RowMajorY,
            },
            WorkloadKind::Nw { b, .. } => TunedConfig::Nw {
                b: *b,
                layout: NwLayoutChoice::RowMajor,
            },
            WorkloadKind::Lud { bs, .. } => TunedConfig::Lud { r: 1, t: *bs },
            // The Triton tutorial default: one block covering the whole
            // (power-of-two padded) row.
            WorkloadKind::Rowwise { op, n, .. } => TunedConfig::Rowwise {
                op: *op,
                bs: next_pow2(*n).clamp(32, 16384),
            },
        }
    }
}

/// One point of a search space.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The kernel configuration.
    pub config: TunedConfig,
    /// Which simplification variant the §IV-A cost model picked for
    /// this layout's index expressions (`None` when the layout has no
    /// symbolic form).
    pub expr_variant: Option<Variant>,
    /// Operation count of the chosen variant.
    pub index_ops: Option<usize>,
}

/// One memoized annotation: the chosen expression variant and its op
/// count (both `None` for layouts without a symbolic form).
type Annotation = (Option<Variant>, Option<usize>);

thread_local! {
    /// The candidate-construction fast path: annotation results per
    /// `(workload, config)` for the tuning session. Metaheuristic
    /// neighbor/crossover moves repeatedly revisit configurations (the
    /// incumbent's whole neighborhood, genetic recombinations of known
    /// parents), and the lowering→simplify→op-count pipeline behind
    /// [`annotate`] is deterministic, so revisits are a map lookup.
    /// Underneath, the thread's `lego_expr` arena memoizes the
    /// per-subtree work even for *fresh* configs that share tile-offset
    /// subexpressions with previously annotated ones.
    static ANNOTATE_CACHE: std::cell::RefCell<
        std::collections::HashMap<(WorkloadKind, TunedConfig), (Annotation, bool)>,
    > = std::cell::RefCell::new(std::collections::HashMap::new());
    /// `(hits, misses)` of [`ANNOTATE_CACHE`], for `BENCH_tuner.json`.
    static ANNOTATE_STATS: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
    /// `(installed, hits)` of sidecar-imported annotations: entries
    /// installed by [`import_annotations`] and cache hits served from
    /// one of them — the warm-start attribution for the persistent memo
    /// sidecar at this layer.
    static ANNOTATE_SIDECAR: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// `(hits, misses)` of the candidate-annotation fast path on this
/// thread, monotone over the session.
pub fn annotate_cache_stats() -> (u64, u64) {
    ANNOTATE_STATS.with(std::cell::Cell::get)
}

/// `(installed, hits)` of sidecar-imported annotations on this thread:
/// how many entries [`import_annotations`] installed, and how many
/// [`Candidate::annotated`] hits were served from an imported entry
/// rather than one derived this session.
pub fn annotate_sidecar_stats() -> (u64, u64) {
    ANNOTATE_SIDECAR.with(std::cell::Cell::get)
}

impl Candidate {
    /// Annotates a configuration with the cheaper expression variant of
    /// the §IV-A cost model — the single constructor both the exhaustive
    /// enumeration and the metaheuristic strategies go through. Results
    /// are memoized per `(workload, config)` for the tuning session and
    /// can be pre-warmed from a persistent sidecar
    /// ([`import_annotations`]).
    pub fn annotated(kind: &WorkloadKind, config: &TunedConfig) -> Candidate {
        let key = (*kind, *config);
        let cached = ANNOTATE_CACHE.with(|c| c.borrow().get(&key).copied());
        let (expr_variant, index_ops) = match cached {
            Some((hit, from_sidecar)) => {
                ANNOTATE_STATS.with(|s| {
                    let (h, m) = s.get();
                    s.set((h + 1, m));
                });
                if from_sidecar {
                    ANNOTATE_SIDECAR.with(|s| {
                        let (i, h) = s.get();
                        s.set((i, h + 1));
                    });
                }
                hit
            }
            None => {
                let fresh = annotate(kind, config);
                ANNOTATE_CACHE.with(|c| c.borrow_mut().insert(key, (fresh, false)));
                ANNOTATE_STATS.with(|s| {
                    let (h, m) = s.get();
                    s.set((h, m + 1));
                });
                fresh
            }
        };
        Candidate {
            config: *config,
            expr_variant,
            index_ops,
        }
    }
}

/// Exports this thread's annotation cache into `sidecar`'s opaque
/// annotation section. Keys are `"{workload}|{config-json}"` (both
/// round-trip through [`WorkloadKind::parse`] / `config_from_json`);
/// values encode the annotation as `"{variant}|{ops}"` with `u`/`x`
/// for unexpanded/expanded and `-` for `None`.
pub fn export_annotations(sidecar: &mut crate::sidecar::Sidecar) {
    ANNOTATE_CACHE.with(|c| {
        for ((kind, config), ((variant, ops), _)) in c.borrow().iter() {
            let key = format!(
                "{}|{}",
                kind.name(),
                crate::cache::config_to_json(config).render()
            );
            let v = match variant {
                None => '-',
                Some(Variant::Unexpanded) => 'u',
                Some(Variant::Expanded) => 'x',
            };
            let value = match ops {
                None => format!("{v}|-"),
                Some(n) => format!("{v}|{n}"),
            };
            sidecar.set_annotation(&key, &value);
        }
    });
}

/// Installs `sidecar`'s annotation entries into this thread's
/// annotation cache, returning how many were fresh (entries the session
/// has already derived are kept — never overwritten by disk state).
/// Unparseable keys or values are skipped: they belong to a foreign or
/// future encoding and simply never warm anything.
pub fn import_annotations(sidecar: &crate::sidecar::Sidecar) -> u64 {
    let mut fresh = 0;
    ANNOTATE_CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        for (key, value) in sidecar.annotations() {
            let Some((kind, config, ann)) = parse_annotation(key, value) else {
                continue;
            };
            cache.entry((kind, config)).or_insert_with(|| {
                fresh += 1;
                (ann, true)
            });
        }
    });
    if fresh > 0 {
        ANNOTATE_SIDECAR.with(|s| {
            let (i, h) = s.get();
            s.set((i + fresh, h));
        });
    }
    fresh
}

/// Decodes one sidecar annotation entry (see [`export_annotations`] for
/// the encoding).
fn parse_annotation(key: &str, value: &str) -> Option<(WorkloadKind, TunedConfig, Annotation)> {
    let (kind, config_json) = key.split_once('|')?;
    let kind = WorkloadKind::parse(kind).ok()?;
    let config = crate::cache::config_from_json(&crate::json::Json::parse(config_json).ok()?)?;
    let (variant, ops) = value.split_once('|')?;
    let variant = match variant {
        "-" => None,
        "u" => Some(Variant::Unexpanded),
        "x" => Some(Variant::Expanded),
        _ => return None,
    };
    let ops = match ops {
        "-" => None,
        n => Some(n.parse::<usize>().ok()?),
    };
    Some((kind, config, (variant, ops)))
}

/// Builds the concrete layout a candidate configuration describes: the
/// pid→tile schedule for matmul, the smem staging tile for transpose,
/// the 3-D data layout for stencils, the shared-buffer layout for NW,
/// and the coarsened thread layout for LUD.
///
/// # Errors
///
/// Propagates layout construction errors (the enumerated spaces only
/// emit constructible configs).
pub fn build_layout(kind: &WorkloadKind, config: &TunedConfig) -> Result<Layout> {
    match (kind, config) {
        (
            WorkloadKind::Matmul { n },
            TunedConfig::Matmul {
                bm, bn, schedule, ..
            },
        ) => {
            let (nt_m, nt_n) = (n / bm, n / bn);
            match *schedule {
                ScheduleChoice::RowMajor => Layout::identity([nt_m, nt_n]),
                ScheduleChoice::Grouped { gm } => {
                    let g = gm.min(nt_m);
                    let gmax = (nt_m / gm).max(1);
                    sugar::tile_by([vec![Expr::val(nt_m), Expr::val(nt_n)]])?
                        .order_by(OrderBy::new([
                            sugar::col([gmax, 1])?,
                            sugar::col([g, nt_n])?,
                        ])?)
                        .build()
                }
                ScheduleChoice::Morton => Layout::builder([nt_m, nt_n])
                    .order_by(OrderBy::new([morton(nt_m)?])?)
                    .build(),
                ScheduleChoice::BlockCyclic { p, b } => Layout::builder([nt_m, nt_n])
                    .order_by(OrderBy::new([block_cyclic_rows(nt_m, nt_n, p, b)?])?)
                    .build(),
            }
        }
        (WorkloadKind::Transpose { .. }, TunedConfig::Transpose { t, staging }) => match staging {
            None => Layout::identity([*t, *t]),
            Some(choice) => Layout::builder([*t, *t])
                .order_by(OrderBy::new([staging_perm(*t, *choice)?])?)
                .build(),
        },
        (WorkloadKind::Stencil { .. }, TunedConfig::Stencil { n, layout }) => match layout {
            StencilLayoutChoice::RowMajorY | StencilLayoutChoice::RowMajorZ => row_major3d(*n),
            StencilLayoutChoice::Brick { b } => brick3d(*n, *b),
        },
        // NW and LUD layouts come from the functions the generators
        // build their kernels around, so the layout the tuner ranks is
        // by construction the layout `from_tuned` will emit a kernel
        // for — without rendering that kernel per candidate.
        (WorkloadKind::Nw { .. }, TunedConfig::Nw { b, layout }) => {
            let (baseline, optimized) = lego_codegen::cuda::nw::layouts(*b)?;
            Ok(match layout {
                NwLayoutChoice::RowMajor => baseline,
                NwLayoutChoice::Antidiag => optimized,
            })
        }
        (WorkloadKind::Lud { .. }, TunedConfig::Lud { r, t }) => {
            lego_codegen::cuda::lud::layout(*r, *t)
        }
        // The rowwise lane block: one program's `BS`-wide row slice,
        // unit-stride by construction (the generated kernels index it as
        // `row·BS + arange(BS)`).
        (WorkloadKind::Rowwise { .. }, TunedConfig::Rowwise { bs, .. }) => Layout::identity([*bs]),
        _ => Err(lego_core::LayoutError::Unsupported(
            "workload kind and config disagree",
        )),
    }
}

/// Picks the cheaper expanded/unexpanded variant of a candidate's index
/// expressions (§IV-A cost model) and returns `(variant, op_count)`;
/// `(None, None)` when the layout has no symbolic form (e.g. Morton).
fn annotate(kind: &WorkloadKind, config: &TunedConfig) -> (Option<Variant>, Option<usize>) {
    let sym = symbolic_exprs(kind, config);
    let Some((raws, env)) = sym else {
        return (None, None);
    };
    let eng = Engine::with_env(env);
    let ops_u: usize = raws.iter().map(|e| eng.op_count(&eng.simplify(e))).sum();
    let ops_e: usize = raws
        .iter()
        .map(|e| eng.op_count(&eng.simplify(&eng.expand(e))))
        .sum();
    if ops_e < ops_u {
        (Some(Variant::Expanded), Some(ops_e))
    } else {
        (Some(Variant::Unexpanded), Some(ops_u))
    }
}

/// The symbolic index expressions a candidate's kernel would compute,
/// with the range environment they simplify under. `None` when the
/// layout has no symbolic form (e.g. Morton schedules). Public so the
/// IR property tests can exercise exactly the expressions the tuner
/// constructs.
pub fn symbolic_exprs(kind: &WorkloadKind, config: &TunedConfig) -> Option<(Vec<Expr>, RangeEnv)> {
    match (kind, config) {
        (WorkloadKind::Matmul { .. }, _) => {
            let layout = build_layout(kind, config).ok()?;
            let mut env = RangeEnv::new();
            let dims = layout.view().dims_const().ok()?;
            env.set_bounds("pid", Expr::zero(), Expr::val(dims[0] * dims[1]));
            let pids = layout.inv_sym(&Expr::sym("pid")).ok()?;
            Some((pids, env))
        }
        (WorkloadKind::Transpose { .. }, TunedConfig::Transpose { t, staging }) => {
            let mut env = RangeEnv::new();
            for s in ["tx", "ty"] {
                env.set_bounds(s, Expr::zero(), Expr::val(*t));
            }
            match staging {
                // Naive: global in/out indices only.
                None => {
                    env.assume_pos("n");
                    let n = Expr::sym("n");
                    let i = Expr::sym("ty");
                    let j = Expr::sym("tx");
                    Some((vec![&i * &n + &j, &j * &n + &i], env))
                }
                Some(_) => {
                    let layout = build_layout(kind, config).ok()?;
                    let store = layout.apply_sym(&[Expr::sym("ty"), Expr::sym("tx")]).ok()?;
                    let load = layout.apply_sym(&[Expr::sym("tx"), Expr::sym("ty")]).ok()?;
                    Some((vec![store, load], env))
                }
            }
        }
        (WorkloadKind::Stencil { .. }, TunedConfig::Stencil { n, .. }) => {
            let layout = build_layout(kind, config).ok()?;
            let mut env = RangeEnv::new();
            for s in ["x", "y", "z"] {
                env.set_bounds(s, Expr::zero(), Expr::val(*n));
            }
            let off = layout
                .apply_sym(&[Expr::sym("x"), Expr::sym("y"), Expr::sym("z")])
                .ok()?;
            Some((vec![off], env))
        }
        (WorkloadKind::Nw { .. }, TunedConfig::Nw { b, .. }) => {
            let layout = build_layout(kind, config).ok()?;
            let mut env = RangeEnv::new();
            for s in ["i", "j"] {
                env.set_bounds(s, Expr::zero(), Expr::val(b + 1));
            }
            let slot = layout.apply_sym(&[Expr::sym("i"), Expr::sym("j")]).ok()?;
            Some((vec![slot], env))
        }
        (WorkloadKind::Lud { .. }, TunedConfig::Lud { r, t }) => {
            let layout = build_layout(kind, config).ok()?;
            let mut env = RangeEnv::new();
            env.set_bounds("ri", Expr::zero(), Expr::val(*r));
            env.set_bounds("rj", Expr::zero(), Expr::val(*r));
            env.set_bounds("ti", Expr::zero(), Expr::val(*t));
            env.set_bounds("tj", Expr::zero(), Expr::val(*t));
            let point = layout
                .apply_sym(&[
                    Expr::sym("ri"),
                    Expr::sym("rj"),
                    Expr::sym("ti"),
                    Expr::sym("tj"),
                ])
                .ok()?;
            Some((vec![point], env))
        }
        (WorkloadKind::Rowwise { m, .. }, TunedConfig::Rowwise { bs, .. }) => {
            // The per-program global offset of the generated kernels:
            // `row·BS + lane` over the padded M×BS view.
            let mut env = RangeEnv::new();
            env.set_bounds("row", Expr::zero(), Expr::val(*m));
            env.set_bounds("lane", Expr::zero(), Expr::val(*bs));
            let off = Expr::sym("row") * Expr::val(*bs) + Expr::sym("lane");
            Some((vec![off], env))
        }
        _ => None,
    }
}

/// How many times a kernel evaluates its index expressions — scales the
/// candidate's `index_ops` into a flop-side term so cheaper expression
/// variants win ties.
fn index_evals(kind: &WorkloadKind, config: &TunedConfig) -> f64 {
    match (kind, config) {
        (WorkloadKind::Matmul { n }, TunedConfig::Matmul { bm, bn, bk, .. }) => {
            ((n / bm) * (n / bn) * (n / bk)) as f64
        }
        (WorkloadKind::Transpose { n }, _) => (n * n) as f64,
        (WorkloadKind::Stencil { shape, n }, _) => shape.points() as f64 * (n * n * n) as f64,
        // Four buffer accesses per cell update.
        (WorkloadKind::Nw { n, .. }, _) => 4.0 * (n * n) as f64,
        // Point updates of the internal kernel across all factorization
        // steps, ~n²·steps/3.
        (WorkloadKind::Lud { n, .. }, TunedConfig::Lud { r, t }) => {
            (n * n) as f64 * (n / (r * t)) as f64 / 3.0
        }
        // One offset vector per program per column chunk.
        (WorkloadKind::Rowwise { m, n, .. }, TunedConfig::Rowwise { bs, .. }) => {
            (*m as f64) * (n + bs - 1).div_euclid(*bs).max(1) as f64
        }
        _ => 0.0,
    }
}

/// Builds the `gpu-sim` workload trace for one candidate by
/// instantiating the matching [`gpu_sim::trace`] builder — the same
/// builders the `lego-bench` drivers replay — with the tuner's
/// index-expression flop term attached.
pub fn build_workload(kind: &WorkloadKind, candidate: &Candidate, gpu: &GpuConfig) -> Workload {
    let index_flops =
        candidate.index_ops.unwrap_or(0) as f64 * index_evals(kind, &candidate.config);
    match (*kind, candidate.config) {
        (WorkloadKind::Matmul { n }, TunedConfig::Matmul { bm, bn, bk, .. }) => MatmulWaves {
            n,
            bm,
            bn,
            bk,
            index_flops,
            vendor: false,
        }
        .build(gpu),
        (WorkloadKind::Transpose { n }, TunedConfig::Transpose { t, staging }) => TransposeSweeps {
            n,
            t,
            staged: staging.is_some(),
            index_flops,
        }
        .build(gpu),
        (WorkloadKind::Stencil { shape, n }, TunedConfig::Stencil { layout: choice, .. }) => {
            let (block, lane_axis) = stencil_block(&choice, n);
            StencilWalk {
                shape_name: shape.name(),
                offsets: shape.offsets(),
                radius: shape.radius(),
                n,
                block,
                lane_axis,
                index_flops,
            }
            .build(gpu)
        }
        (WorkloadKind::Nw { n, .. }, TunedConfig::Nw { b, .. }) => {
            NwWavefront { n, b, index_flops }.build(gpu)
        }
        (WorkloadKind::Lud { n, .. }, TunedConfig::Lud { r, t }) => LudPanels {
            n,
            bs: r * t,
            t,
            index_flops,
        }
        .build(gpu),
        (WorkloadKind::Rowwise { op, m, n }, TunedConfig::Rowwise { bs, .. }) => {
            // Traffic and flop factors come from the operator itself
            // (`RowwiseOp::{traffic_passes, flops_per_elem}`), the same
            // calibration point `lego-bench`'s driver consumes.
            RowwiseSweep {
                op_name: op.tag().to_string(),
                m,
                n,
                bs,
                passes: op.traffic_passes(),
                flops_per_elem: op.flops_per_elem(),
                index_flops,
            }
            .build(gpu)
        }
        _ => unreachable!("kind/config pairs come from one Domain"),
    }
}

/// The thread-block tile and warp lane walk of a stencil layout choice.
/// The lane axis must span (up to) a full warp so coalescing is charged
/// per 32-lane access: y-lane blocks put 32 in y, z-lane blocks put the
/// largest 32-capped divisor of `n` in z, bricks use brick-local order.
pub fn stencil_block(choice: &StencilLayoutChoice, n: i64) -> ((i64, i64, i64), LaneAxis) {
    let lane_extent = if n % 32 == 0 {
        32
    } else if n % 16 == 0 {
        16
    } else {
        8
    };
    match choice {
        StencilLayoutChoice::RowMajorY => ((4, lane_extent, 4), LaneAxis::Y),
        StencilLayoutChoice::RowMajorZ => ((4, 4, lane_extent), LaneAxis::Z),
        StencilLayoutChoice::Brick { b } => ((*b, *b, *b), LaneAxis::YZ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, SpaceScale};

    /// The mode name baked into the cache key must agree with the mode
    /// the trace builders actually declare on the built workload — for
    /// every kind, on every device.
    #[test]
    fn pricing_mode_names_match_built_workloads() {
        let kinds = [
            WorkloadKind::Matmul { n: 512 },
            WorkloadKind::Transpose { n: 256 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(1),
                n: 32,
            },
            WorkloadKind::Nw { n: 256, b: 16 },
            WorkloadKind::Lud { n: 256, bs: 16 },
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 128,
                n: 1024,
            },
        ];
        for cfg in [gpu_sim::a100(), gpu_sim::h100(), gpu_sim::mi300()] {
            for kind in kinds {
                let cand = Candidate::annotated(&kind, &kind.default_config());
                let w = build_workload(&kind, &cand, &cfg);
                assert_eq!(
                    w.mode.name(),
                    kind.pricing_mode(),
                    "{} on {}",
                    kind.name(),
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn workload_names_round_trip_through_parse() {
        let kinds = [
            WorkloadKind::Matmul { n: 2048 },
            WorkloadKind::Transpose { n: 1024 },
            WorkloadKind::Stencil {
                shape: StencilShape::Star(2),
                n: 48,
            },
            WorkloadKind::Stencil {
                shape: StencilShape::Cube(1),
                n: 64,
            },
            WorkloadKind::Nw { n: 3584, b: 16 },
            WorkloadKind::Lud { n: 2048, bs: 16 },
            WorkloadKind::Rowwise {
                op: RowwiseOp::Softmax,
                m: 256,
                n: 1024,
            },
            WorkloadKind::Rowwise {
                op: RowwiseOp::LayernormBwd,
                m: 64,
                n: 512,
            },
        ];
        for kind in kinds {
            assert_eq!(
                WorkloadKind::parse(&kind.name()),
                Ok(kind),
                "{}",
                kind.name()
            );
        }
        // Whitespace tolerance (clients hand-write these).
        assert_eq!(
            WorkloadKind::parse(" nw( n=64, b=16 ) "),
            Ok(WorkloadKind::Nw { n: 64, b: 16 })
        );
    }

    /// Pricing a candidate only needs its layout: building an NW or LUD
    /// layout must not run the kernel generator (lowering, simplify,
    /// C printing, template rendering) behind `from_tuned`.
    #[test]
    fn nw_and_lud_layouts_build_without_simplifying() {
        for kind in [
            WorkloadKind::Nw { n: 256, b: 16 },
            WorkloadKind::Nw { n: 448, b: 16 },
            WorkloadKind::Lud { n: 256, bs: 16 },
            WorkloadKind::Lud { n: 512, bs: 16 },
        ] {
            let configs = Domain::new(kind, SpaceScale::Legacy).enumerate();
            let before = lego_expr::intern::stats();
            for c in &configs {
                build_layout(&kind, c).expect("legacy candidates build");
            }
            let after = lego_expr::intern::stats();
            assert_eq!(
                (after.simplify_hits, after.simplify_misses),
                (before.simplify_hits, before.simplify_misses),
                "{}: build_layout ran the simplifier",
                kind.name()
            );
        }
    }

    #[test]
    fn workload_parse_rejects_malformed_names() {
        for bad in [
            "matmul",                             // no parameter list
            "matmul(n=2048",                      // unterminated
            "matmul(m=2048)",                     // wrong key
            "matmul(n=2048,extra=1)",             // extra key
            "matmul(n=0)",                        // non-positive
            "matmul(n=-4)",                       // negative
            "matmul(n=banana)",                   // non-integer
            "frobnicate(n=4)",                    // unknown family
            "stencil(n=48)",                      // missing shape
            "stencil(ball-7pt,n=48)",             // unknown shape
            "nw(n=64)",                           // missing b
            "softmax(n=1024)",                    // missing m
            "lud(n=2048,bs=16,extra=1)",          // extra key
            "matmul(n=99999999999)",              // n² overflows i64
            "stencil(star-7pt,n=3000000)",        // n³ overflows i64
            "softmax(m=4294967296,n=4294967296)", // m·n overflows i64
            "matmul(n=33)",                       // below the 64 tile
            "matmul(n=63)",                       // below the 64 tile
            "transpose(n=16)",                    // below the 32 tile
            "nw(n=8,b=16)",                       // block larger than n
            "lud(n=8,bs=16)",                     // block larger than n
            "stencil(star-7pt,n=2)",              // below the 8 lanes
        ] {
            assert!(WorkloadKind::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let err = WorkloadKind::parse("matmul(n=99999999999)").unwrap_err();
        assert!(err.contains("overflows i64"), "{err}");
        let err = WorkloadKind::parse("matmul(n=33)").unwrap_err();
        assert!(err.contains("smaller than the default"), "{err}");
        // The smallest sizes the default configurations cover.
        for edge in [
            "matmul(n=64)",
            "transpose(n=32)",
            "lud(n=16,bs=16)",
            "nw(n=16,b=16)",
            "stencil(star-7pt,n=8)",
        ] {
            assert!(WorkloadKind::parse(edge).is_ok(), "{edge:?} must parse");
        }
        // The largest square side whose element count still fits.
        assert_eq!(
            WorkloadKind::parse("matmul(n=3037000499)"),
            Ok(WorkloadKind::Matmul { n: 3_037_000_499 })
        );
    }
}
