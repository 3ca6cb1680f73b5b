//! LU decomposition (Rodinia) with thread coarsening as a *layout*
//! (§V-B, Fig. 12b, Table I row "12b").
//!
//! The baseline uses a 16×16 CUDA block mapped one-to-one onto a 16×16
//! LUD block. LEGO re-imagines coarsening as the thread-block layout
//! `TileBy([R,R],[T,T]).OrderBy(Row(R·T, R·T))`: each thread `(ti, tj)`
//! of a `T×T` CUDA block covers the `R×R` points `(ri·T+ti, rj·T+tj)` of
//! an `(R·T)×(R·T)` LUD block. The layout binds both the loop bounds
//! (`R`) and the per-point index expression.

use lego_core::{sugar, Layout, LayoutError, OrderBy, Result};
use lego_expr::printer::c;
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::tuning::TunedConfig;

/// The generated LUD artifacts for one coarsening configuration.
#[derive(Clone, Debug)]
pub struct LudKernel {
    /// CUDA kernel source for the coarsened internal kernel.
    pub source: String,
    /// The per-point index expression over `ri, rj, ti, tj`.
    pub point_expr: Expr,
    /// Coarsening factor per dimension.
    pub r: i64,
    /// CUDA block side.
    pub t: i64,
    /// The thread layout (logical `[R, R, T, T]` view → LUD-block flat).
    pub layout: Layout,
}

const TEMPLATE: &str = r#"// LEGO-generated thread-coarsened LUD internal kernel:
// LUD block {{ bs }}x{{ bs }}, CUDA block {{ t }}x{{ t }}, coarsening {{ r }}x{{ r }}.
__global__ void lud_internal_coarsened(float* m, int matrix_dim, int offset) {
    __shared__ float peri_row[{{ bs }}*{{ t }}];
    __shared__ float peri_col[{{ bs }}*{{ t }}];
    int ti = threadIdx.x, tj = threadIdx.y;
    float sum[{{ r }}][{{ r }}];
    for (int ri = 0; ri < {{ r }}; ri++)
        for (int rj = 0; rj < {{ r }}; rj++)
            sum[ri][rj] = 0.0f;
    // ... staging of perimeter row/col as in Rodinia ...
    for (int ri = 0; ri < {{ r }}; ri++) {
        for (int rj = 0; rj < {{ r }}; rj++) {
            int point = {{ point_expr }}; // LEGO layout: flat LUD-block index
            // global update uses point / {{ bs }} and point % {{ bs }}
            m[global_base + (point / {{ bs }}) * matrix_dim + (point % {{ bs }})] += sum[ri][rj];
        }
    }
}
"#;

/// The coarsened thread layout `TileBy([R,R],[T,T]).OrderBy(Row(R·T,
/// R·T))`: logical `[R, R, T, T]` view → LUD-block flat index. Layout
/// construction only — no index expression is lowered or simplified.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn layout(r: i64, t: i64) -> Result<Layout> {
    let bs = r * t;
    sugar::tile_by([vec![Expr::val(r); 2], vec![Expr::val(t); 2]])?
        .order_by(OrderBy::new([sugar::row([bs, bs])?])?)
        .build()
}

/// Builds the coarsened thread layout ([`layout`]) and kernel source.
///
/// `r` is the per-dimension coarsening factor and `t` the CUDA block
/// side; the LUD block side is `r*t`.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn generate(r: i64, t: i64) -> Result<LudKernel> {
    let bs = r * t;
    let layout = layout(r, t)?;

    let mut env = RangeEnv::new();
    env.set_bounds("ri", Expr::zero(), Expr::val(r));
    env.set_bounds("rj", Expr::zero(), Expr::val(r));
    env.set_bounds("ti", Expr::zero(), Expr::val(t));
    env.set_bounds("tj", Expr::zero(), Expr::val(t));
    let raw = layout.apply_sym(&[
        Expr::sym("ri"),
        Expr::sym("rj"),
        Expr::sym("ti"),
        Expr::sym("tj"),
    ])?;
    // The paper notes LUD benefits from pre-expansion (§IV-A): the cost
    // model picks it automatically.
    let point_expr = Engine::with_env(env).pick_cheaper(&raw).expr;

    let values = template::bindings([
        ("r", r.to_string()),
        ("t", t.to_string()),
        ("bs", bs.to_string()),
        ("point_expr", c::print(&point_expr).expect("C-printable")),
    ]);
    let source = template::render(TEMPLATE, &values).expect("closed template");
    Ok(LudKernel {
        source,
        point_expr,
        r,
        t,
        layout,
    })
}

/// Instantiates the coarsened LUD internal kernel from a tuned
/// configuration.
///
/// # Errors
///
/// Rejects non-LUD configs and propagates layout construction errors.
pub fn from_tuned(config: &TunedConfig) -> Result<LudKernel> {
    let TunedConfig::Lud { r, t } = *config else {
        return Err(LayoutError::Unsupported(
            "from_tuned(lud) requires a TunedConfig::Lud",
        ));
    };
    let mut k = generate(r, t)?;
    k.source = format!("// lego-tune: {config}\n{}", k.source);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval, Bindings};

    #[test]
    fn point_expr_matches_coarsening_formula() {
        let k = generate(4, 16).unwrap();
        let mut bind = Bindings::new();
        for (ri, rj, ti, tj) in [(0i64, 0i64, 0i64, 0i64), (3, 2, 15, 7), (1, 3, 8, 8)] {
            bind.insert("ri".into(), ri);
            bind.insert("rj".into(), rj);
            bind.insert("ti".into(), ti);
            bind.insert("tj".into(), tj);
            let want = (ri * 16 + ti) * 64 + (rj * 16 + tj);
            assert_eq!(eval(&k.point_expr, &bind).unwrap(), want);
        }
    }

    #[test]
    fn baseline_is_identity_coarsening() {
        // r = 1 degenerates to the one-to-one mapping.
        let k = generate(1, 16).unwrap();
        let mut bind = Bindings::new();
        bind.insert("ri".into(), 0);
        bind.insert("rj".into(), 0);
        bind.insert("ti".into(), 5);
        bind.insert("tj".into(), 9);
        assert_eq!(eval(&k.point_expr, &bind).unwrap(), 5 * 16 + 9);
    }

    #[test]
    fn layout_is_bijective() {
        let k = generate(2, 8).unwrap();
        lego_core::check::check_layout_bijective(&k.layout).unwrap();
    }

    #[test]
    fn source_closed() {
        let k = generate(4, 16).unwrap();
        assert!(!k.source.contains("{{"));
        assert!(k.source.contains("lud_internal_coarsened"));
    }

    #[test]
    fn from_tuned_matches_generate() {
        let tuned = from_tuned(&TunedConfig::Lud { r: 4, t: 16 }).unwrap();
        let direct = generate(4, 16).unwrap();
        assert_eq!(tuned.r, 4);
        assert_eq!(tuned.t, 16);
        assert_eq!(tuned.point_expr, direct.point_expr);
        assert!(tuned.source.contains("lego-tune"));
        assert!(from_tuned(&TunedConfig::Transpose {
            t: 32,
            staging: None
        })
        .is_err());
    }
}
