//! Needleman–Wunsch (Rodinia) CUDA integration (§V-B, Fig. 12a).
//!
//! NW keeps a `(b+1)×(b+1)` scoring buffer in shared memory and updates
//! its anti-diagonals in parallel. With the original row-major buffer the
//! wavefront threads access stride-`b+1` elements — severe bank
//! conflicts. LEGO's fix is a *layout change only*: the buffer is
//! reordered by the anti-diagonal permutation of Fig. 7, making each
//! wavefront contiguous. The paper's integration overloads `operator[]`
//! in a small wrapper class; [`generate`] emits that wrapper with the
//! LEGO-derived index expression.

use lego_core::{perms::antidiag, Layout, LayoutError, OrderBy, Result};
use lego_expr::printer::c;
use lego_expr::{Engine, Expr, RangeEnv};

use crate::template;
use crate::tuning::{NwLayoutChoice, TunedConfig};

/// The generated NW artifacts.
#[derive(Clone, Debug)]
pub struct NwKernel {
    /// CUDA wrapper-class + kernel source.
    pub source: String,
    /// The anti-diagonal index expression `(i, j) → slot`.
    pub idx_expr: Expr,
    /// Buffer side length (`b + 1`).
    pub n: i64,
    /// The baseline row-major buffer layout.
    pub baseline: Layout,
    /// The LEGO anti-diagonal buffer layout.
    pub optimized: Layout,
}

const WRAPPER_TEMPLATE: &str = r#"// LEGO-generated anti-diagonal buffer wrapper for NW (block size {{ b }}).
// Only the layout changed: logical accesses in the original Rodinia code
// are redirected through operator[], exactly two lines modified.
struct AntiDiagBuffer {
    float* data; // shared memory, (b+1)*(b+1) floats

    __device__ __forceinline__ int slot(int i, int j) const {
        return {{ idx_expr }};
    }
    __device__ __forceinline__ float& at(int i, int j) {
        return data[slot(i, j)];
    }
};

__global__ void nw_kernel(float* ref, float* matrix, int cols, int penalty, int blk) {
    __shared__ float buff_raw[({{ n }})*({{ n }})];
    AntiDiagBuffer buff { buff_raw };
    // ... identical to Rodinia needle_cuda_shared_1, with buff.at(i, j)
    // replacing buff[i][j]; each anti-diagonal's elements are now
    // contiguous in shared memory (stride 1, no bank conflicts).
}
"#;

/// The two `(b+1)×(b+1)` buffer layouts for an NW block size `b`:
/// `(baseline row-major, LEGO anti-diagonal)`. Layout construction
/// only — no index expression is lowered or simplified.
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn layouts(b: i64) -> Result<(Layout, Layout)> {
    let n = b + 1;
    let baseline = Layout::identity([n, n])?;
    let optimized = Layout::builder([n, n])
        .order_by(OrderBy::new([antidiag(n)?])?)
        .build()?;
    Ok((baseline, optimized))
}

/// Builds the two buffer layouts ([`layouts`]) and the wrapper source
/// for an NW block size `b` (buffer side `n = b + 1`).
///
/// # Errors
///
/// Propagates layout construction errors.
pub fn generate(b: i64) -> Result<NwKernel> {
    let n = b + 1;
    let (baseline, optimized) = layouts(b)?;

    let mut env = RangeEnv::new();
    env.set_bounds("i", Expr::zero(), Expr::val(n));
    env.set_bounds("j", Expr::zero(), Expr::val(n));
    let raw = optimized.apply_sym(&[Expr::sym("i"), Expr::sym("j")])?;
    let idx_expr = Engine::with_env(env).simplify(&raw);

    let values = template::bindings([
        ("b", b.to_string()),
        ("n", n.to_string()),
        (
            "idx_expr",
            c::print(&idx_expr).expect("antidiag is C-printable"),
        ),
    ]);
    let source = template::render(WRAPPER_TEMPLATE, &values).expect("closed template");
    Ok(NwKernel {
        source,
        idx_expr,
        n,
        baseline,
        optimized,
    })
}

/// An NW kernel instantiated from a tuned configuration: the chosen
/// buffer layout plus the wrapper source when the layout is non-trivial.
#[derive(Clone, Debug)]
pub struct TunedNw {
    /// Block size.
    pub b: i64,
    /// The tuned buffer-layout choice.
    pub choice: NwLayoutChoice,
    /// The shared-buffer layout the kernel indexes through.
    pub layout: Layout,
    /// Generated CUDA source (the anti-diagonal wrapper, or the
    /// baseline kernel comment for row-major).
    pub source: String,
}

/// Instantiates an NW kernel from a tuned configuration.
///
/// # Errors
///
/// Rejects non-NW configs and propagates layout construction errors.
pub fn from_tuned(config: &TunedConfig) -> Result<TunedNw> {
    let TunedConfig::Nw { b, layout: choice } = *config else {
        return Err(LayoutError::Unsupported(
            "from_tuned(nw) requires a TunedConfig::Nw",
        ));
    };
    let k = generate(b)?;
    let header = format!("// lego-tune: {config}\n");
    let (layout, source) = match choice {
        NwLayoutChoice::Antidiag => (k.optimized, header + &k.source),
        NwLayoutChoice::RowMajor => (
            k.baseline,
            header + "// Baseline row-major buffer: original Rodinia needle_cuda_shared_1.\n",
        ),
    };
    Ok(TunedNw {
        b,
        choice,
        layout,
        source,
    })
}

/// The logical shared-memory accesses of one NW wavefront step: on
/// diagonal `d` (0-based, `d < b`), thread `t ∈ 0..=d` reads
/// `(t, d-t)`-ish neighbors and writes `(t+1, d-t+1)`. Returns the
/// *write* coordinates, whose physical spread determines bank conflicts.
pub fn wavefront_writes(b: i64, d: i64) -> Vec<(i64, i64)> {
    (0..=d.min(b - 1))
        .map(|t| (t + 1, d.min(b - 1) - t + 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_source_closed_and_contains_expr() {
        let k = generate(16).unwrap();
        assert!(!k.source.contains("{{"));
        assert!(k.source.contains("int slot(int i, int j)"));
    }

    #[test]
    fn optimized_layout_is_bijective() {
        let k = generate(16).unwrap();
        lego_core::check::check_layout_bijective(&k.optimized).unwrap();
    }

    #[test]
    fn wavefront_is_contiguous_in_optimized_layout() {
        let k = generate(16).unwrap();
        for d in 0..16 {
            let writes = wavefront_writes(16, d);
            let slots: Vec<i64> = writes
                .iter()
                .map(|&(i, j)| k.optimized.apply_c(&[i, j]).unwrap())
                .collect();
            for w in slots.windows(2) {
                assert_eq!((w[0] - w[1]).abs(), 1, "diag {d} not contiguous: {slots:?}");
            }
        }
    }

    #[test]
    fn wavefront_is_strided_in_baseline_layout() {
        let k = generate(16).unwrap();
        let writes = wavefront_writes(16, 15);
        let slots: Vec<i64> = writes
            .iter()
            .map(|&(i, j)| k.baseline.apply_c(&[i, j]).unwrap())
            .collect();
        // Row-major: consecutive wavefront elements differ by n-1 = 16 —
        // a multiple of 16 banks apart for 4-byte words on 32 banks ->
        // 2-way+ conflicts; for Rodinia's b=16 the stride is b+1... the
        // point here is simply: not contiguous.
        for w in slots.windows(2) {
            assert!((w[0] - w[1]).abs() > 1);
        }
    }

    #[test]
    fn from_tuned_picks_the_requested_layout() {
        let opt = from_tuned(&TunedConfig::Nw {
            b: 16,
            layout: NwLayoutChoice::Antidiag,
        })
        .unwrap();
        let base = from_tuned(&TunedConfig::Nw {
            b: 16,
            layout: NwLayoutChoice::RowMajor,
        })
        .unwrap();
        let k = generate(16).unwrap();
        // Anti-diagonal wavefronts contiguous, row-major strided.
        let writes = wavefront_writes(16, 8);
        let slot = |l: &lego_core::Layout, (i, j): (i64, i64)| l.apply_c(&[i, j]).unwrap();
        assert_eq!(slot(&opt.layout, writes[0]), slot(&k.optimized, writes[0]));
        assert_eq!(slot(&base.layout, writes[0]), slot(&k.baseline, writes[0]));
        assert!(opt.source.contains("slot(int i, int j)"));
        assert!(from_tuned(&TunedConfig::Transpose {
            t: 32,
            staging: None
        })
        .is_err());
    }

    #[test]
    fn idx_expr_matches_concrete_layout() {
        use lego_expr::{eval, Bindings};
        let k = generate(8).unwrap();
        let mut bind = Bindings::new();
        for i in 0..9 {
            for j in 0..9 {
                bind.insert("i".into(), i);
                bind.insert("j".into(), j);
                assert_eq!(
                    eval(&k.idx_expr, &bind).unwrap(),
                    k.optimized.apply_c(&[i, j]).unwrap()
                );
            }
        }
    }
}
