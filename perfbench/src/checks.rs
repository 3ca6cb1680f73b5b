//! Output checks on the daemon's answers, independent of how the answer
//! was produced: the winner must re-price to the answered time, lower
//! through its generator, and (for matmul) its simplified index
//! expressions must agree with the concrete layout interpreter.

use std::collections::HashMap;

use gpu_sim::{CostModel, GpuConfig};
use lego_codegen::opcount::count_source_ops;
use lego_codegen::{cuda, triton};
use lego_expr::{Engine, Expr, Variant};
use lego_served::{Served, TuneSpec};
use lego_tune::cache::config_from_json;
use lego_tune::{build_layout, build_workload, symbolic_exprs, Candidate, RowwiseOp};
use lego_tune::{Json, TuneResult, TunedConfig, WorkloadKind};

use crate::pools::Rng;
use crate::trace::Trace;

/// One distinct answer, decoded.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The workload instance asked for.
    pub kind: WorkloadKind,
    /// The device asked for.
    pub gpu: GpuConfig,
    /// The winning configuration.
    pub config: TunedConfig,
    /// Expression variant of the winner.
    pub expr_variant: Option<Variant>,
    /// Index-expression op count of the winner.
    pub index_ops: Option<usize>,
    /// Modeled run time of the winner, in seconds.
    pub tuned_s: f64,
}

/// Decodes an answer line for `spec`.
///
/// # Errors
///
/// A failed or malformed answer.
pub fn parse_answer(spec: &TuneSpec, line: &str) -> Result<Answer, String> {
    let doc = Json::parse(line).map_err(|e| format!("unparseable answer: {e}"))?;
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("answer is not ok: {line}"));
    }
    let kind = WorkloadKind::parse(&spec.workload)?;
    let device = spec.device.as_deref().unwrap_or("a100");
    let gpu = gpu_sim::lookup(device).ok_or_else(|| format!("unknown device {device}"))?;
    let config = doc
        .get("config")
        .and_then(config_from_json)
        .ok_or("answer carries no readable config")?;
    let expr_variant = match doc.get("expr_variant").and_then(Json::as_str) {
        None => None,
        Some("unexpanded") => Some(Variant::Unexpanded),
        Some("expanded") => Some(Variant::Expanded),
        Some(other) => return Err(format!("unknown expr_variant {other:?}")),
    };
    let index_ops = doc
        .get("index_ops")
        .and_then(Json::as_i64)
        .map(|v| v as usize);
    let tuned_s = doc
        .get("tuned_s")
        .and_then(Json::as_f64)
        .ok_or("answer carries no tuned_s")?;
    Ok(Answer {
        kind,
        gpu,
        config,
        expr_variant,
        index_ops,
        tuned_s,
    })
}

/// The answer line a daemon would send for a direct tuning result, so
/// a reference run compares to the served bytes exactly.
pub fn render_reference(spec: &TuneSpec, r: &TuneResult) -> Result<String, String> {
    let req = lego_served::protocol::resolve(spec, &gpu_sim::a100())?;
    let served = Served {
        workload: req.kind.name(),
        device: req.device.tag,
        config: r.config,
        expr_variant: r.expr_variant,
        index_ops: r.index_ops,
        naive: r.naive,
        tuned: r.tuned,
        evaluated: r.evaluated,
        strategy: req.strategy.name().to_string(),
        space: req.effective_space().name().to_string(),
    };
    Ok(served.to_json().render())
}

/// Lowers a winner through its family's `from_tuned` and returns the
/// generated source.
fn emit(kind: &WorkloadKind, config: &TunedConfig) -> Result<String, lego_core::LayoutError> {
    Ok(match kind {
        WorkloadKind::Matmul { .. } => triton::matmul::from_tuned(config)?.source,
        WorkloadKind::Transpose { .. } => cuda::transpose::from_tuned(config)?.source,
        WorkloadKind::Stencil { shape, .. } => cuda::stencil::from_tuned(*shape, config)?.source,
        WorkloadKind::Nw { .. } => cuda::nw::from_tuned(config)?.source,
        WorkloadKind::Lud { .. } => cuda::lud::from_tuned(config)?.source,
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            ..
        } => triton::softmax::from_tuned(config)?.source,
        WorkloadKind::Rowwise { .. } => triton::layernorm::from_tuned(config)?.source,
    })
}

/// Program ids sampled per matmul winner.
const PID_SAMPLES: usize = 64;

/// Evaluates the winner's simplified symbolic `pid → tile` expressions
/// at sampled in-range program ids and compares them with the concrete
/// interpreter `Layout::inv_c`. `Ok(false)` when the schedule has no
/// symbolic form (nothing to compare).
fn check_matmul_exprs(a: &Answer) -> Result<bool, String> {
    let Some((raws, env)) = symbolic_exprs(&a.kind, &a.config) else {
        return Ok(false);
    };
    let layout = build_layout(&a.kind, &a.config).map_err(|e| e.to_string())?;
    let dims = layout.view().dims_const().map_err(|e| e.to_string())?;
    let pids: i64 = dims.iter().product();
    let eng = Engine::with_env(env);
    let simplified: Vec<Expr> = raws
        .iter()
        .map(|e| match a.expr_variant {
            Some(Variant::Expanded) => eng.simplify(&eng.expand(e)),
            _ => eng.simplify(e),
        })
        .collect();
    let mut rng = Rng::new(pids as u64, 0);
    let mut samples = vec![0, pids - 1];
    samples.extend((0..PID_SAMPLES).map(|_| rng.below(pids as usize) as i64));
    for pid in samples {
        let bind: HashMap<String, i64> = [("pid".to_string(), pid)].into();
        let got = simplified
            .iter()
            .map(|e| lego_expr::eval(e, &bind))
            .collect::<Result<Vec<i64>, _>>()
            .map_err(|e| format!("pid {pid}: {e}"))?;
        let want = layout.inv_c(pid).map_err(|e| e.to_string())?;
        if got != want {
            return Err(format!(
                "pid {pid}: simplified expressions give {got:?}, inv_c gives {want:?}"
            ));
        }
    }
    Ok(true)
}

/// Runs every answer-level check on `a`, recording lowering spans and
/// counts into `trace`.
///
/// # Errors
///
/// Describes the first failed check.
pub fn check_answer(a: &Answer, trace: &mut Trace) -> Result<(), String> {
    let cand = Candidate::annotated(&a.kind, &a.config);
    if (cand.expr_variant, cand.index_ops) != (a.expr_variant, a.index_ops) {
        return Err(format!(
            "annotation {:?}/{:?} disagrees with the answer's {:?}/{:?}",
            cand.expr_variant, cand.index_ops, a.expr_variant, a.index_ops
        ));
    }
    let layout = build_layout(&a.kind, &a.config).map_err(|e| e.to_string())?;
    let workload = build_workload(&a.kind, &cand, &a.gpu);
    let est = CostModel::new(&a.gpu).price(&layout, &workload);
    if est.time_s.to_bits() != a.tuned_s.to_bits() {
        return Err(format!(
            "winner re-prices to {:e} s, answer says {:e} s",
            est.time_s, a.tuned_s
        ));
    }
    let source = trace
        .time("codegen.emit", || emit(&a.kind, &a.config))
        .map_err(|e| format!("from_tuned failed: {e}"))?;
    if source.trim().is_empty() || source.contains("{{") {
        return Err("generated source is empty or holds template leftovers".to_string());
    }
    trace.count("codegen.kernels", 1.0);
    trace.count("codegen.index_ops", count_source_ops(&source) as f64);
    if matches!(a.kind, WorkloadKind::Matmul { .. }) && check_matmul_exprs(a)? {
        trace.count("expr.matmul_checked", 1.0);
    }
    Ok(())
}
