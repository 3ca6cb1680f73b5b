//! The flagship example: matrix multiplication in Triton (paper Figs. 1
//! and 10).
//!
//! The user writes the *layouts* — a grouped column-major thread-block
//! layout `CL` and tiled row/column-major data layouts `DL_a/b/c` — plus a
//! small kernel template with `{{ }}` placeholders. This module derives
//! the index expressions via `CL.inv(pid)` and `DL[..., :, :]`, simplifies
//! them against the layout-derived ranges, and instantiates the template,
//! reproducing the generated kernel of Fig. 10.

use std::collections::HashMap;

use lego_core::{perms, sugar, IdxArg, Layout, LayoutError, OrderBy, Result};
use lego_expr::printer::python::{print, Flavor};
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::tuning::{ScheduleChoice, TunedConfig};

/// Which of `A`, `B` are transposed — the four variants of Fig. 11.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MatmulVariant {
    /// `C = A·B` (`A` row-major, `B` row-major).
    #[default]
    NN,
    /// `C = A·Bᵀ` (`B` column-major).
    NT,
    /// `C = Aᵀ·B` (`A` column-major).
    TN,
    /// `C = Aᵀ·Bᵀ`.
    TT,
}

impl MatmulVariant {
    /// All four variants.
    pub const ALL: [MatmulVariant; 4] = [
        MatmulVariant::NN,
        MatmulVariant::NT,
        MatmulVariant::TN,
        MatmulVariant::TT,
    ];

    /// Short display name (`AB`, `ABt`, `AtB`, `AtBt`).
    pub fn name(self) -> &'static str {
        match self {
            MatmulVariant::NN => "AB",
            MatmulVariant::NT => "ABt",
            MatmulVariant::TN => "AtB",
            MatmulVariant::TT => "AtBt",
        }
    }
}

/// The generated matmul kernel: source text plus the simplified index
/// expressions (for op counting and simulation).
#[derive(Clone, Debug)]
pub struct MatmulKernel {
    /// Complete Triton kernel source.
    pub source: String,
    /// Simplified `pid → lpid_m` expression.
    pub pid_m: Expr,
    /// Simplified `pid → lpid_n` expression.
    pub pid_n: Expr,
    /// Simplified `A` tile pointer offset (contains two lane ranges).
    pub a_off: Expr,
    /// Simplified `B` tile pointer offset.
    pub b_off: Expr,
    /// Simplified `C` tile pointer offset.
    pub c_off: Expr,
    /// The range environment the expressions were simplified under.
    pub env: RangeEnv,
    /// Which variant was generated.
    pub variant: MatmulVariant,
}

/// The thread-block (computation) layout `CL` of Fig. 1: program ids are
/// grouped in columns of `GM`, groups ordered column-major.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn thread_layout() -> Result<Layout> {
    let (nt_m, nt_n, gm) = (Expr::sym("nt_m"), Expr::sym("nt_n"), Expr::sym("GM"));
    let g = gm.clone().min(&nt_m); // threads per group column
    let gmax = nt_m.floor_div(&gm).max(&Expr::one()); // number of groups
    sugar::tile_by([vec![nt_m.clone(), nt_n.clone()]])?
        .order_by(OrderBy::new([
            sugar::col([gmax, Expr::one()])?,
            sugar::col([g, nt_n])?,
        ])?)
        .build()
}

/// A tiled data layout `TileBy([R/BR, C/BC], [BR, BC]).OrderBy(order)`
/// where `order` is `Row(R, C)` or `Col(R, C)`.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn data_layout(r: &str, c: &str, br: &str, bc: &str, col_major: bool) -> Result<Layout> {
    let (r, c) = (Expr::sym(r), Expr::sym(c));
    let (br_e, bc_e) = (Expr::sym(br), Expr::sym(bc));
    let grid = vec![r.floor_div(&br_e), c.floor_div(&bc_e)];
    let tile = vec![br_e, bc_e];
    let order = if col_major {
        sugar::col([r, c])?
    } else {
        sugar::row([r, c])?
    };
    sugar::tile_by([grid, tile])?
        .order_by(OrderBy::new([order])?)
        .build()
}

/// The range environment for the matmul kernel: program-id and loop
/// bounds, positive sizes, and exact-tiling divisibility facts (the paper
/// "selected configurations that avoided partial tiling").
pub fn matmul_env() -> RangeEnv {
    let mut env = RangeEnv::new();
    for s in ["M", "N", "K", "BM", "BN", "BK", "GM", "nt_m", "nt_n"] {
        env.assume_pos(s);
    }
    env.set_bounds("pid", Expr::zero(), Expr::sym("nt_m") * Expr::sym("nt_n"));
    env.set_bounds(
        "k",
        Expr::zero(),
        Expr::sym("K").floor_div(&Expr::sym("BK")),
    );
    env.set_bounds(
        "pid_m",
        Expr::zero(),
        Expr::sym("M").floor_div(&Expr::sym("BM")),
    );
    env.set_bounds(
        "pid_n",
        Expr::zero(),
        Expr::sym("N").floor_div(&Expr::sym("BN")),
    );
    for (b, x) in [("BM", "M"), ("BN", "N"), ("BK", "K")] {
        env.assume_divides(Expr::sym(b), Expr::sym(x));
    }
    env
}

const KERNEL_TEMPLATE: &str = r#"@triton.jit
def matmul_kernel(a_ptr, b_ptr, c_ptr, M, N, K,
                  BM: tl.constexpr, BN: tl.constexpr, BK: tl.constexpr,
                  GM: tl.constexpr):
    pid = tl.program_id(axis=0)
    nt_m = tl.cdiv(M, BM)
    nt_n = tl.cdiv(N, BN)
    pid_m = {{ lpid_m }}
    pid_n = {{ lpid_n }}
    accumulator = tl.zeros((BM, BN), dtype=tl.float32)
    for k in range(0, tl.cdiv(K, BK)):
        a_ptrs = a_ptr + {{ la_optr }}
        b_ptrs = b_ptr + {{ lb_optr }}
        a = tl.load(a_ptrs)
        b = tl.load(b_ptrs)
        accumulator = tl.dot({{ dot_a }}, {{ dot_b }}, accumulator)
    c = accumulator.to(tl.float16)
    c_ptrs = c_ptr + {{ lc_optr }}
    tl.store(c_ptrs, c)
"#;

/// Generates the complete matmul kernel for `variant`.
///
/// # Errors
///
/// Propagates layout and printing failures (none occur for the built-in
/// layouts; the `Result` keeps the pipeline honest).
pub fn generate(variant: MatmulVariant) -> Result<MatmulKernel> {
    let eng = Engine::with_env(matmul_env());
    // Thread-block layout: lpid_m, lpid_n = CL.inv(pid).
    let cl = thread_layout()?;
    let pids = cl.inv_sym(&Expr::sym("pid"))?;
    let pid_m = eng.simplify(&pids[0]);
    let pid_n = eng.simplify(&pids[1]);
    generate_from_pids(pid_m, pid_n, variant, eng.env().clone(), None, None)
}

/// Instantiates the matmul kernel from a tuned configuration: the
/// thread-block schedule the `lego-tune` search selected becomes the
/// `CL` layout, and the tuned tile constants are recorded in a header
/// so launchers can bind `BM`/`BN`/`BK`/`GM`.
///
/// # Errors
///
/// Rejects non-matmul configs and propagates layout/printing failures.
pub fn from_tuned(config: &TunedConfig) -> Result<MatmulKernel> {
    let TunedConfig::Matmul {
        bm,
        bn,
        bk,
        schedule,
    } = *config
    else {
        return Err(LayoutError::Unsupported(
            "from_tuned(matmul) requires a TunedConfig::Matmul",
        ));
    };
    let eng = Engine::with_env(matmul_env());
    let header = format!("# lego-tune: BM={bm}, BN={bn}, BK={bk}, schedule={schedule}\n");
    let (nt_m, nt_n) = (Expr::sym("nt_m"), Expr::sym("nt_n"));
    match schedule {
        ScheduleChoice::Grouped { gm: _ } => {
            // The Fig. 1 grouped layout; the tuned GM binds at launch.
            let cl = thread_layout()?;
            let pids = cl.inv_sym(&Expr::sym("pid"))?;
            let pid_m = eng.simplify(&pids[0]);
            let pid_n = eng.simplify(&pids[1]);
            generate_from_pids(
                pid_m,
                pid_n,
                MatmulVariant::NN,
                eng.env().clone(),
                Some(header),
                None,
            )
        }
        ScheduleChoice::RowMajor => {
            let cl = Layout::identity([nt_m, nt_n])?;
            let pids = cl.inv_sym(&Expr::sym("pid"))?;
            let pid_m = eng.simplify(&pids[0]);
            let pid_n = eng.simplify(&pids[1]);
            generate_from_pids(
                pid_m,
                pid_n,
                MatmulVariant::NN,
                eng.env().clone(),
                Some(header),
                None,
            )
        }
        ScheduleChoice::BlockCyclic { p, b } => {
            // Rows distributed block-cyclically: pid = bc(pid_m)·nt_n +
            // pid_n with c = nt_m/(p·b) cycles, so the kernel inverts
            // the shared block-cyclic map on pid // nt_n.
            let pid = Expr::sym("pid");
            let row_slot = pid.floor_div(&nt_n);
            let ec = nt_m.floor_div(&(Expr::val(p * b)));
            let raw = perms::block_cyclic_inv_sym(&row_slot, &Expr::val(p), &Expr::val(b), &ec);
            let pid_m = eng.simplify(&raw);
            let pid_n = eng.simplify(&pid.rem(&nt_n));
            generate_from_pids(
                pid_m,
                pid_n,
                MatmulVariant::NN,
                eng.env().clone(),
                Some(header),
                None,
            )
        }
        ScheduleChoice::Morton => {
            // The Morton bit-interleave is outside the expression
            // language; emit an unrolled de-interleave preamble instead
            // of a layout-derived formula.
            let preamble = "\
pid_m = tl.zeros((), dtype=tl.int32)\n    \
pid_n = tl.zeros((), dtype=tl.int32)\n    \
for _b in tl.static_range(16):\n        \
    pid_m += ((pid >> (2 * _b + 1)) & 1) << _b\n        \
    pid_n += ((pid >> (2 * _b)) & 1) << _b";
            let pid_m = Expr::sym("pid_m");
            let pid_n = Expr::sym("pid_n");
            generate_from_pids(
                pid_m,
                pid_n,
                MatmulVariant::NN,
                eng.env().clone(),
                Some(header),
                Some(preamble.to_string()),
            )
        }
    }
}

/// Shared back half of kernel generation: data layouts, simplification,
/// template instantiation. `pid_text` replaces the `pid_m`/`pid_n`
/// assignment lines with a hand-written preamble (Morton schedules).
fn generate_from_pids(
    pid_m: Expr,
    pid_n: Expr,
    variant: MatmulVariant,
    env: RangeEnv,
    header: Option<String>,
    pid_text: Option<String>,
) -> Result<MatmulKernel> {
    // Data layouts (the only thing that changes between variants).
    let (ta, tb) = match variant {
        MatmulVariant::NN => (false, false),
        MatmulVariant::NT => (false, true),
        MatmulVariant::TN => (true, false),
        MatmulVariant::TT => (true, true),
    };
    let dl_a = data_layout("M", "K", "BM", "BK", ta)?;
    let dl_b = data_layout("K", "N", "BK", "BN", tb)?;
    let dl_c = data_layout("M", "N", "BM", "BN", false)?;

    let a_raw = dl_a.apply_sliced(&[
        IdxArg::At(Expr::sym("pid_m")),
        IdxArg::At(Expr::sym("k")),
        IdxArg::Slice,
        IdxArg::Slice,
    ])?;
    let b_raw = dl_b.apply_sliced(&[
        IdxArg::At(Expr::sym("k")),
        IdxArg::At(Expr::sym("pid_n")),
        IdxArg::Slice,
        IdxArg::Slice,
    ])?;
    let c_raw = dl_c.apply_sliced(&[
        IdxArg::At(Expr::sym("pid_m")),
        IdxArg::At(Expr::sym("pid_n")),
        IdxArg::Slice,
        IdxArg::Slice,
    ])?;
    let eng = Engine::with_env(env);
    let a_off = eng.pick_cheaper(&a_raw).expr;
    let b_off = eng.pick_cheaper(&b_raw).expr;
    let c_off = eng.pick_cheaper(&c_raw).expr;

    let p = |e: &Expr| print(e, Flavor::Triton).expect("triton-printable");
    let values: HashMap<String, String> = template::bindings([
        ("lpid_m", p(&pid_m)),
        ("lpid_n", p(&pid_n)),
        ("la_optr", p(&a_off)),
        ("lb_optr", p(&b_off)),
        ("lc_optr", p(&c_off)),
        ("dot_a", if ta { "tl.trans(a)" } else { "a" }.to_string()),
        ("dot_b", if tb { "tl.trans(b)" } else { "b" }.to_string()),
    ]);
    let template = match &pid_text {
        None => KERNEL_TEMPLATE.to_string(),
        // Hand-written pid preamble replaces the layout-derived lines.
        Some(pre) => KERNEL_TEMPLATE.replace("pid_m = {{ lpid_m }}\n    pid_n = {{ lpid_n }}", pre),
    };
    let source = header.unwrap_or_default()
        + &template::render(&template, &values).expect("template is closed");

    Ok(MatmulKernel {
        source,
        pid_m,
        pid_n,
        a_off,
        b_off,
        c_off,
        env: eng.env().clone(),
        variant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_expr::{eval, eval_lane, Bindings};

    /// Reference: the hand-written index computation of the original
    /// Triton matmul (Fig. 1 left).
    fn reference_pids(pid: i64, _nt_m: i64, nt_n: i64, gm: i64) -> (i64, i64) {
        let num_pid_in_group = gm * nt_n;
        let group_id = pid / num_pid_in_group;
        let first_pid_m = group_id * gm;
        let pid_m = first_pid_m + (pid % num_pid_in_group) % gm;
        let pid_n = (pid % num_pid_in_group) / gm;
        (pid_m, pid_n)
    }

    #[test]
    fn thread_layout_matches_triton_reference() {
        let k = generate(MatmulVariant::NN).unwrap();
        // Exhaustive check over several (nt_m, nt_n, GM) configs where GM
        // divides nt_m (the reference formula's assumption).
        for (nt_m, nt_n, gm) in [(8i64, 4i64, 2i64), (8, 8, 4), (4, 6, 2), (6, 3, 3)] {
            let mut bind = Bindings::new();
            bind.insert("nt_m".into(), nt_m);
            bind.insert("nt_n".into(), nt_n);
            bind.insert("GM".into(), gm);
            for pid in 0..nt_m * nt_n {
                bind.insert("pid".into(), pid);
                let (rm, rn) = reference_pids(pid, nt_m, nt_n, gm);
                assert_eq!(
                    eval(&k.pid_m, &bind).unwrap(),
                    rm,
                    "pid_m at pid={pid} ({nt_m},{nt_n},{gm})"
                );
                assert_eq!(
                    eval(&k.pid_n, &bind).unwrap(),
                    rn,
                    "pid_n at pid={pid} ({nt_m},{nt_n},{gm})"
                );
            }
        }
    }

    #[test]
    fn a_offset_is_row_major_tile() {
        // Fig. 10: a_ptrs = BK*k + K*(BM*pid_m + arange_BM) + arange_BK.
        let k = generate(MatmulVariant::NN).unwrap();
        let mut bind = Bindings::new();
        bind.insert("M".into(), 64);
        bind.insert("K".into(), 32);
        bind.insert("BM".into(), 16);
        bind.insert("BK".into(), 8);
        bind.insert("pid_m".into(), 2);
        bind.insert("k".into(), 3);
        // lane (r0, r1) of the 2-D tile:
        for (r0, r1) in [(0i64, 0i64), (5, 3), (15, 7)] {
            let v = eval_lane(&k.a_off, &bind, &|axis| if axis == 0 { r0 } else { r1 }).unwrap();
            let want = 32 * (16 * 2 + r0) + (8 * 3 + r1);
            assert_eq!(v, want, "lane ({r0},{r1})");
        }
    }

    #[test]
    fn transposed_b_offset_is_column_major() {
        let k = generate(MatmulVariant::NT).unwrap();
        let mut bind = Bindings::new();
        bind.insert("K".into(), 32);
        bind.insert("N".into(), 64);
        bind.insert("BK".into(), 8);
        bind.insert("BN".into(), 16);
        bind.insert("k".into(), 1);
        bind.insert("pid_n".into(), 2);
        for (r0, r1) in [(0i64, 0i64), (7, 15), (3, 9)] {
            let v = eval_lane(&k.b_off, &bind, &|axis| if axis == 0 { r0 } else { r1 }).unwrap();
            // Column-major: offset = col*K + row.
            let (row, col) = (8 + r0, 16 * 2 + r1);
            assert_eq!(v, col * 32 + row, "lane ({r0},{r1})");
        }
    }

    #[test]
    fn generated_source_shape() {
        let k = generate(MatmulVariant::NN).unwrap();
        assert!(k.source.contains("@triton.jit"));
        assert!(k.source.contains("tl.arange(0, BM)"));
        assert!(k.source.contains("tl.arange(0, BK)"));
        assert!(k.source.contains("tl.dot(a, b, accumulator)"));
        assert!(
            !k.source.contains("{{"),
            "unfilled placeholder:\n{}",
            k.source
        );
    }

    #[test]
    fn simplified_pids_match_fig10() {
        // The generated program-id expressions must be exactly the
        // Fig. 10 forms (modulo canonical term order), not the raw
        // unflatten chains.
        let k = generate(MatmulVariant::NN).unwrap();
        assert_eq!(
            k.pid_m.to_string(),
            "(pid // (nt_n*min(GM, nt_m)) % max(nt_m // GM, 1))\
             *min(GM, nt_m) + pid % min(GM, nt_m)"
        );
        assert_eq!(
            k.pid_n.to_string(),
            "pid % (nt_n*min(GM, nt_m)) // min(GM, nt_m)"
        );
    }

    #[test]
    fn a_offset_op_count_matches_paper_shape() {
        // Fig. 10's a_ptrs body has 4 arithmetic ops (BK*k + K*(BM*pid_m
        // + r0) + r1). Allow small slack for representation differences.
        let k = generate(MatmulVariant::NN).unwrap();
        assert!(
            lego_expr::Engine::new().op_count(&k.a_off) <= 6,
            "a_off too complex ({} ops): {}",
            lego_expr::Engine::new().op_count(&k.a_off),
            k.a_off
        );
    }

    #[test]
    fn all_variants_generate() {
        for v in MatmulVariant::ALL {
            let k = generate(v).unwrap();
            assert!(!k.source.is_empty());
        }
    }
}
