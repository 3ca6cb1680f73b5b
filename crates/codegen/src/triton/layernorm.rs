//! LayerNorm forward + backward Triton kernels (§V-A).
//!
//! One program instance per row; columns are processed in blocks of
//! `BS` lanes. The data layout is the 3-level view
//! `GroupBy([M, N/BS, BS])` of a row-major `M×N` matrix: the offset of
//! `(row, cb, :)` simplifies to `N*row + BS*cb + arange(0, BS)` under the
//! exact-tiling assumption `BS | N`.

use std::collections::HashMap;

use lego_core::{IdxArg, Layout, LayoutError, Result};
use lego_expr::printer::python::{print, Flavor};
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::tuning::{RowwiseOp, TunedConfig};

/// Forward or backward pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// Forward normalization.
    Fwd,
    /// Backward (dx) pass.
    Bwd,
}

/// A generated LayerNorm kernel.
#[derive(Clone, Debug)]
pub struct LayernormKernel {
    /// Complete Triton source.
    pub source: String,
    /// Simplified element-offset expression (`row`, `cb` free; one lane
    /// range).
    pub x_off: Expr,
    /// Column-vector offset (for weight/bias), one lane range.
    pub col_off: Expr,
    /// The simplification environment.
    pub env: RangeEnv,
    /// Which pass.
    pub pass: Pass,
}

/// The row-blocked data layout `GroupBy([M, N/BS, BS])`.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn row_block_layout() -> Result<Layout> {
    let (m, n, bs) = (Expr::sym("M"), Expr::sym("N"), Expr::sym("BS"));
    Layout::identity([m, n.floor_div(&bs), bs])
}

/// The environment: `row < M`, `cb < N/BS`, positive sizes, `BS | N`.
pub fn layernorm_env() -> RangeEnv {
    let mut env = RangeEnv::new();
    for s in ["M", "N", "BS"] {
        env.assume_pos(s);
    }
    env.set_bounds("row", Expr::zero(), Expr::sym("M"));
    env.set_bounds(
        "cb",
        Expr::zero(),
        Expr::sym("N").floor_div(&Expr::sym("BS")),
    );
    env.assume_divides(Expr::sym("BS"), Expr::sym("N"));
    env
}

const FWD_TEMPLATE: &str = r#"@triton.jit
def layernorm_fwd_kernel(x_ptr, y_ptr, w_ptr, b_ptr, mean_ptr, rstd_ptr,
                         M, N, eps, BS: tl.constexpr):
    row = tl.program_id(0)
    mean = 0.0
    var = 0.0
    for cb in range(0, tl.cdiv(N, BS)):
        x = tl.load(x_ptr + {{ x_off }}).to(tl.float32)
        mean += tl.sum(x, axis=0)
    mean = mean / N
    for cb in range(0, tl.cdiv(N, BS)):
        x = tl.load(x_ptr + {{ x_off }}).to(tl.float32)
        xc = x - mean
        var += tl.sum(xc * xc, axis=0)
    var = var / N
    rstd = 1 / tl.sqrt(var + eps)
    tl.store(mean_ptr + row, mean)
    tl.store(rstd_ptr + row, rstd)
    for cb in range(0, tl.cdiv(N, BS)):
        w = tl.load(w_ptr + {{ col_off }})
        b = tl.load(b_ptr + {{ col_off }})
        x = tl.load(x_ptr + {{ x_off }}).to(tl.float32)
        y = (x - mean) * rstd * w + b
        tl.store(y_ptr + {{ x_off }}, y)
"#;

const BWD_TEMPLATE: &str = r#"@triton.jit
def layernorm_bwd_dx_kernel(dx_ptr, dy_ptr, x_ptr, w_ptr, mean_ptr, rstd_ptr,
                            M, N, BS: tl.constexpr):
    row = tl.program_id(0)
    mean = tl.load(mean_ptr + row)
    rstd = tl.load(rstd_ptr + row)
    c1 = 0.0
    c2 = 0.0
    for cb in range(0, tl.cdiv(N, BS)):
        x = tl.load(x_ptr + {{ x_off }}).to(tl.float32)
        dy = tl.load(dy_ptr + {{ x_off }}).to(tl.float32)
        w = tl.load(w_ptr + {{ col_off }}).to(tl.float32)
        xhat = (x - mean) * rstd
        wdy = w * dy
        c1 += tl.sum(xhat * wdy, axis=0)
        c2 += tl.sum(wdy, axis=0)
    c1 = c1 / N
    c2 = c2 / N
    for cb in range(0, tl.cdiv(N, BS)):
        x = tl.load(x_ptr + {{ x_off }}).to(tl.float32)
        dy = tl.load(dy_ptr + {{ x_off }}).to(tl.float32)
        w = tl.load(w_ptr + {{ col_off }}).to(tl.float32)
        xhat = (x - mean) * rstd
        wdy = w * dy
        dx = (wdy - (xhat * c1 + c2)) * rstd
        tl.store(dx_ptr + {{ x_off }}, dx)
"#;

/// Generates the LayerNorm kernel for the given pass.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn generate(pass: Pass) -> Result<LayernormKernel> {
    let env = layernorm_env();
    let dl = row_block_layout()?;
    let x_raw = dl.apply_sliced(&[
        IdxArg::At(Expr::sym("row")),
        IdxArg::At(Expr::sym("cb")),
        IdxArg::Slice,
    ])?;
    let eng = Engine::with_env(env);
    let x_off = eng.pick_cheaper(&x_raw).expr;
    // Column vector (weight/bias): the same layout with the row axis
    // broadcast away, i.e. row 0 of a [1, N/BS, BS] view.
    let col_raw =
        Expr::sym("BS") * Expr::sym("cb") + Expr::range(Expr::zero(), Expr::sym("BS"), 0, 1);
    let col_off = eng.pick_cheaper(&col_raw).expr;

    let p = |e: &Expr| print(e, Flavor::Triton).expect("triton-printable");
    let values: HashMap<String, String> =
        template::bindings([("x_off", p(&x_off)), ("col_off", p(&col_off))]);
    let tpl = match pass {
        Pass::Fwd => FWD_TEMPLATE,
        Pass::Bwd => BWD_TEMPLATE,
    };
    let source = template::render(tpl, &values).expect("template is closed");
    Ok(LayernormKernel {
        source,
        x_off,
        col_off,
        env: eng.env().clone(),
        pass,
    })
}

/// Instantiates a LayerNorm kernel from a tuned configuration: the
/// pass is selected by the config's [`RowwiseOp`] and the source gains
/// a header recording the tuned `BS` block size.
///
/// # Errors
///
/// Rejects configs that are not LayerNorm `Rowwise` configs or whose
/// block size is not a positive power of two.
pub fn from_tuned(config: &TunedConfig) -> Result<LayernormKernel> {
    let TunedConfig::Rowwise { op, bs } = *config else {
        return Err(LayoutError::Unsupported(
            "from_tuned(layernorm) requires a Rowwise config",
        ));
    };
    let pass = match op {
        RowwiseOp::LayernormFwd => Pass::Fwd,
        RowwiseOp::LayernormBwd => Pass::Bwd,
        RowwiseOp::Softmax => {
            return Err(LayoutError::Unsupported(
                "from_tuned(layernorm) got a softmax config",
            ));
        }
    };
    if bs <= 0 || bs & (bs - 1) != 0 {
        return Err(LayoutError::Unsupported(
            "layernorm block size must be a positive power of two",
        ));
    }
    let mut k = generate(pass)?;
    k.source = format!("# lego-tune: BS={bs}\n{}", k.source);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval_lane, Bindings};

    #[test]
    fn x_offset_is_row_major_block() {
        let k = generate(Pass::Fwd).unwrap();
        let mut bind = Bindings::new();
        bind.insert("M".into(), 8);
        bind.insert("N".into(), 64);
        bind.insert("BS".into(), 16);
        bind.insert("row".into(), 3);
        bind.insert("cb".into(), 2);
        for lane in [0i64, 7, 15] {
            let v = eval_lane(&k.x_off, &bind, &|_| lane).unwrap();
            assert_eq!(v, 3 * 64 + 2 * 16 + lane);
        }
    }

    #[test]
    fn x_offset_is_compact() {
        // N*row + BS*cb + arange : 4 ops.
        let k = generate(Pass::Fwd).unwrap();
        assert!(
            lego_expr::Engine::new().op_count(&k.x_off) <= 4,
            "x_off: {} ({} ops)",
            k.x_off,
            lego_expr::Engine::new().op_count(&k.x_off)
        );
    }

    #[test]
    fn both_passes_generate_closed_source() {
        for pass in [Pass::Fwd, Pass::Bwd] {
            let k = generate(pass).unwrap();
            assert!(!k.source.contains("{{"));
            assert!(k.source.contains("tl.arange(0, BS)"));
        }
    }
}
