//! Grouped GEMM Triton kernel (§V-A).
//!
//! A fixed grid of programs walks a list of independent GEMM problems;
//! within one problem the tile mapping is the plain 2-D row-major thread
//! layout (no `GM` grouping), and the data layouts are the same
//! `TileBy(..).OrderBy(Row(..))` pattern as matmul.

use std::collections::HashMap;

use lego_core::{sugar, IdxArg, Result};
use lego_expr::printer::python::{print, Flavor};
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::triton::matmul::data_layout;

/// A generated grouped-GEMM kernel.
#[derive(Clone, Debug)]
pub struct GroupedGemmKernel {
    /// Complete Triton source.
    pub source: String,
    /// Tile-row program id expression.
    pub pid_m: Expr,
    /// Tile-column program id expression.
    pub pid_n: Expr,
    /// `A` tile offset.
    pub a_off: Expr,
    /// `B` tile offset.
    pub b_off: Expr,
    /// `C` tile offset.
    pub c_off: Expr,
    /// The simplification environment.
    pub env: RangeEnv,
}

const TEMPLATE: &str = r#"@triton.jit
def grouped_gemm_kernel(group_a_ptrs, group_b_ptrs, group_c_ptrs,
                        group_gemm_sizes, g_lds, group_size,
                        NUM_SM: tl.constexpr,
                        BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr):
    tile_idx = tl.program_id(0)
    last_problem_end = 0
    for g in range(group_size):
        M = tl.load(group_gemm_sizes + g * 3)
        N = tl.load(group_gemm_sizes + g * 3 + 1)
        K = tl.load(group_gemm_sizes + g * 3 + 2)
        nt_m = tl.cdiv(M, BM)
        nt_n = tl.cdiv(N, BN)
        num_tiles = nt_m * nt_n
        while (tile_idx >= last_problem_end and
               tile_idx < last_problem_end + num_tiles):
            a_ptr = tl.load(group_a_ptrs + g).to(tl.pointer_type(tl.float16))
            b_ptr = tl.load(group_b_ptrs + g).to(tl.pointer_type(tl.float16))
            c_ptr = tl.load(group_c_ptrs + g).to(tl.pointer_type(tl.float16))
            pid = tile_idx - last_problem_end
            pid_m = {{ lpid_m }}
            pid_n = {{ lpid_n }}
            accumulator = tl.zeros((BM, BN), dtype=tl.float32)
            for k in range(0, tl.cdiv(K, BK)):
                a = tl.load(a_ptr + {{ la_optr }})
                b = tl.load(b_ptr + {{ lb_optr }})
                accumulator = tl.dot(a, b, accumulator)
            c = accumulator.to(tl.float16)
            tl.store(c_ptr + {{ lc_optr }}, c)
            tile_idx += NUM_SM
        last_problem_end = last_problem_end + num_tiles
"#;

/// The environment shared with matmul, without the `GM` grouping.
pub fn grouped_env() -> RangeEnv {
    let mut env = crate::triton::matmul::matmul_env();
    // `pid` here is the within-problem tile id.
    env.set_bounds("pid", Expr::zero(), Expr::sym("nt_m") * Expr::sym("nt_n"));
    env
}

/// Generates the grouped-GEMM kernel.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn generate() -> Result<GroupedGemmKernel> {
    let env = grouped_env();

    // Plain 2-D row-major thread layout: TileBy([nt_m, nt_n]).
    let cl = sugar::tile_by([vec![Expr::sym("nt_m"), Expr::sym("nt_n")]])?.build()?;
    let pids = cl.inv_sym(&Expr::sym("pid"))?;
    let eng = Engine::with_env(env);
    let pid_m = eng.simplify(&pids[0]);
    let pid_n = eng.simplify(&pids[1]);

    let dl_a = data_layout("M", "K", "BM", "BK", false)?;
    let dl_b = data_layout("K", "N", "BK", "BN", false)?;
    let dl_c = data_layout("M", "N", "BM", "BN", false)?;
    let a_off = eng
        .pick_cheaper(&dl_a.apply_sliced(&[
            IdxArg::At(Expr::sym("pid_m")),
            IdxArg::At(Expr::sym("k")),
            IdxArg::Slice,
            IdxArg::Slice,
        ])?)
        .expr;
    let b_off = eng
        .pick_cheaper(&dl_b.apply_sliced(&[
            IdxArg::At(Expr::sym("k")),
            IdxArg::At(Expr::sym("pid_n")),
            IdxArg::Slice,
            IdxArg::Slice,
        ])?)
        .expr;
    let c_off = eng
        .pick_cheaper(&dl_c.apply_sliced(&[
            IdxArg::At(Expr::sym("pid_m")),
            IdxArg::At(Expr::sym("pid_n")),
            IdxArg::Slice,
            IdxArg::Slice,
        ])?)
        .expr;

    let p = |e: &Expr| print(e, Flavor::Triton).expect("triton-printable");
    let values: HashMap<String, String> = template::bindings([
        ("lpid_m", p(&pid_m)),
        ("lpid_n", p(&pid_n)),
        ("la_optr", p(&a_off)),
        ("lb_optr", p(&b_off)),
        ("lc_optr", p(&c_off)),
    ]);
    let source = template::render(TEMPLATE, &values).expect("closed template");
    Ok(GroupedGemmKernel {
        source,
        pid_m,
        pid_n,
        a_off,
        b_off,
        c_off,
        env: eng.env().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval, Bindings};

    #[test]
    fn pids_are_plain_row_major() {
        let k = generate().unwrap();
        assert_eq!(k.pid_m.to_string(), "pid // nt_n");
        assert_eq!(k.pid_n.to_string(), "pid % nt_n");
    }

    #[test]
    fn pid_round_trip() {
        let k = generate().unwrap();
        let mut bind = Bindings::new();
        bind.insert("nt_m".into(), 5);
        bind.insert("nt_n".into(), 7);
        for pid in 0..35 {
            bind.insert("pid".into(), pid);
            let m = eval(&k.pid_m, &bind).unwrap();
            let n = eval(&k.pid_n, &bind).unwrap();
            assert_eq!(m * 7 + n, pid);
        }
    }

    #[test]
    fn source_is_closed() {
        let k = generate().unwrap();
        assert!(!k.source.contains("{{"));
        assert!(k.source.contains("tl.dot"));
    }
}
