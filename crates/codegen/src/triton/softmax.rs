//! Row-wise softmax Triton kernel (§V-A).
//!
//! The simplest benchmark: one program per row, the whole row in one
//! lane block. The entire index computation is the layout application
//! `DL[row, :]` — zero user-written arithmetic (Table IV: 4 → 0 ops).

use std::collections::HashMap;

use lego_core::{IdxArg, Layout, LayoutError, Result};
use lego_expr::printer::python::{print, Flavor};
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::tuning::{RowwiseOp, TunedConfig};

/// A generated softmax kernel.
#[derive(Clone, Debug)]
pub struct SoftmaxKernel {
    /// Complete Triton source.
    pub source: String,
    /// Simplified row offset (one lane range over the padded block).
    pub row_off: Expr,
    /// The simplification environment.
    pub env: RangeEnv,
}

const TEMPLATE: &str = r#"@triton.jit
def softmax_kernel(y_ptr, x_ptr, M, N, BS: tl.constexpr):
    row = tl.program_id(0)
    offs = {{ row_off }}
    mask = {{ mask }}
    x = tl.load(x_ptr + offs, mask=mask, other=-float('inf'))
    x = x - tl.max(x, axis=0)
    num = tl.exp(x)
    den = tl.sum(num, axis=0)
    tl.store(y_ptr + offs, num / den, mask=mask)
"#;

/// Generates the softmax kernel.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn generate() -> Result<SoftmaxKernel> {
    let mut env = RangeEnv::new();
    for s in ["M", "N", "BS"] {
        env.assume_pos(s);
    }
    env.set_bounds("row", Expr::zero(), Expr::sym("M"));

    // Row-major M×BS view: BS is the power-of-two padded block covering a
    // whole row (the Triton tutorial's `BLOCK_SIZE = next_power_of_2(N)`).
    let dl = Layout::identity([Expr::sym("M"), Expr::sym("BS")])?;
    let raw = dl.apply_sliced(&[IdxArg::At(Expr::sym("row")), IdxArg::Slice])?;
    let eng = Engine::with_env(env);
    let row_off = eng.pick_cheaper(&raw).expr;

    let p = |e: &Expr| print(e, Flavor::Triton).expect("triton-printable");
    let values: HashMap<String, String> = template::bindings([
        ("row_off", p(&row_off)),
        ("mask", "tl.arange(0, BS) < N".to_string()),
    ]);
    let source = template::render(TEMPLATE, &values).expect("closed template");
    Ok(SoftmaxKernel {
        source,
        row_off,
        env: eng.env().clone(),
    })
}

/// Instantiates the softmax kernel from a tuned configuration: the
/// generated source gains a header recording the tuned `BS` block size
/// for the launcher to bind.
///
/// # Errors
///
/// Rejects configs that are not `Rowwise { op: Softmax, .. }` or whose
/// block size is not a positive power of two.
pub fn from_tuned(config: &TunedConfig) -> Result<SoftmaxKernel> {
    let TunedConfig::Rowwise {
        op: RowwiseOp::Softmax,
        bs,
    } = *config
    else {
        return Err(LayoutError::Unsupported(
            "from_tuned(softmax) requires a Rowwise softmax config",
        ));
    };
    if bs <= 0 || bs & (bs - 1) != 0 {
        return Err(LayoutError::Unsupported(
            "softmax block size must be a positive power of two",
        ));
    }
    let mut k = generate()?;
    k.source = format!("# lego-tune: BS={bs}\n{}", k.source);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval_lane, Bindings};

    #[test]
    fn offset_is_row_base_plus_lane() {
        let k = generate().unwrap();
        let mut bind = Bindings::new();
        bind.insert("M".into(), 4);
        bind.insert("BS".into(), 128);
        bind.insert("row".into(), 3);
        assert_eq!(eval_lane(&k.row_off, &bind, &|_| 5).unwrap(), 3 * 128 + 5);
    }

    #[test]
    fn offset_is_two_ops() {
        // BS*row + arange — 2 arithmetic ops, matching Table IV's "0 user
        // ops" (the user writes none; these are generated).
        let k = generate().unwrap();
        assert!(
            lego_expr::Engine::new().op_count(&k.row_off) <= 2,
            "{}",
            k.row_off
        );
    }

    #[test]
    fn source_is_closed() {
        let k = generate().unwrap();
        assert!(!k.source.contains("{{"));
        assert!(k.source.contains("tl.exp"));
    }
}
