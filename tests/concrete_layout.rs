//! Differential test of compiled layouts: for every tuner candidate the
//! cost model prices, the table-driven [`ConcreteLayout`] must agree
//! with the reference interpreter (`Layout::apply_c`/`inv_c`) on every
//! element and every out-of-range probe, its fingerprint must be the
//! FNV-1a hash of the interpreter's enumeration (the traffic-memo and
//! sidecar key format), and wherever the tuner builds symbolic index
//! expressions, their *simplified* forms must evaluate to the table —
//! which ties the concrete, compiled and symbolic layers together and
//! checks simplifier soundness on real layouts.
//!
//! Candidates cover the whole legacy space of every `perfbench` pool
//! shape (all six families) plus a seeded sample of the enlarged
//! spaces. Layouts depend only on the workload and config, never on the
//! device, so one pass covers the a100, h100 and mi300 pools alike.

mod prop_support;

use lego_codegen::tuning::TunedConfig;
use lego_core::shape::unflatten;
use lego_core::{ConcreteLayout, Layout};
use lego_expr::{eval, Bindings, Engine};
use lego_tune::domain::{Domain, SpaceScale};
use lego_tune::space::{build_layout, symbolic_exprs, WorkloadKind};
use prop_support::Rng;

/// The union of the `perfbench` exhaustive and anneal key pools.
const POOL_SHAPES: [&str; 16] = [
    "softmax(m=256,n=1024)",
    "layernorm-fwd(m=256,n=1024)",
    "layernorm-bwd(m=128,n=512)",
    "lud(n=256,bs=16)",
    "lud(n=512,bs=16)",
    "matmul(n=512)",
    "matmul(n=1024)",
    "transpose(n=128)",
    "transpose(n=256)",
    "transpose(n=512)",
    "stencil(star-7pt,n=8)",
    "stencil(cube-27pt,n=8)",
    "stencil(star-7pt,n=16)",
    "nw(n=64,b=16)",
    "nw(n=112,b=16)",
    "nw(n=224,b=16)",
];

/// Enlarged-space candidates sampled per pool shape (16 × 16 = 256).
const ENLARGED_PER_SHAPE: usize = 16;

/// Sampled points per candidate for the symbolic comparison.
const SYMBOLIC_SAMPLES: usize = 64;

fn pool_kinds() -> Vec<WorkloadKind> {
    POOL_SHAPES
        .iter()
        .map(|s| WorkloadKind::parse(s).expect("pool shapes parse"))
        .collect()
}

/// The parent definition of the layout fingerprint: FNV-1a over the
/// interpreter's `apply_c` enumeration, or the view dims alone for a
/// layout without an `OrderBy` chain.
fn interpreted_fingerprint(layout: &Layout, dims: &[i64]) -> String {
    if layout.orders().is_empty() {
        return format!("id{dims:?}");
    }
    let size: i64 = dims.iter().product();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in 0..size {
        let p = layout.apply_c(&unflatten(dims, f).unwrap()).unwrap();
        h ^= p as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("p{dims:?}x{h:016x}")
}

/// Every element, every out-of-range probe and the fingerprint.
fn check_against_interpreter(tag: &str, layout: &Layout, c: &ConcreteLayout) {
    let dims = c.dims().to_vec();
    assert_eq!(dims, layout.view().dims_const().unwrap(), "{tag}: dims");
    let size = c.size();
    for f in 0..size {
        let idx = unflatten(&dims, f).unwrap();
        assert_eq!(c.apply(&idx), layout.apply_c(&idx), "{tag}: apply {idx:?}");
        assert_eq!(c.inv(f), layout.inv_c(f), "{tag}: inv {f}");
    }
    for flat in [-1, size, size + 7, i64::MIN] {
        assert_eq!(c.inv(flat), layout.inv_c(flat), "{tag}: inv({flat})");
    }
    let origin = vec![0i64; dims.len()];
    let mut probes = vec![[origin.clone(), vec![0]].concat(), origin[1..].to_vec()];
    for axis in 0..dims.len() {
        for bad in [-1, dims[axis], dims[axis] + 3] {
            let mut idx = origin.clone();
            idx[axis] = bad;
            probes.push(idx);
        }
    }
    for idx in probes {
        let (got, want) = (c.apply(&idx), layout.apply_c(&idx));
        assert!(want.is_err(), "{tag}: probe {idx:?} must be out of range");
        assert_eq!(got, want, "{tag}: apply {idx:?}");
    }
    assert_eq!(
        c.fingerprint(),
        interpreted_fingerprint(layout, &dims),
        "{tag}: fingerprint"
    );
}

/// Evaluates the tuner's simplified symbolic expressions at sampled
/// points and compares them with the table. Returns whether the
/// candidate had a symbolic form to compare.
fn check_symbolic(
    tag: &str,
    kind: &WorkloadKind,
    config: &TunedConfig,
    c: &ConcreteLayout,
    rng: &mut Rng,
) -> bool {
    let Some((exprs, env)) = symbolic_exprs(kind, config) else {
        return false;
    };
    let eng = Engine::with_env(env);
    let simplified: Vec<_> = exprs.iter().map(|e| eng.simplify(e)).collect();
    let dims = c.dims();
    let pick = |rng: &mut Rng, n: i64| rng.range_i64(0, n);
    for _ in 0..SYMBOLIC_SAMPLES {
        let mut bind = Bindings::new();
        // (expected values, in expression order)
        let want: Vec<i64> = match config {
            TunedConfig::Matmul { .. } => {
                let pid = pick(rng, c.size());
                bind.insert("pid".into(), pid);
                c.inv(pid).unwrap()
            }
            TunedConfig::Transpose { staging: None, .. } => return false,
            TunedConfig::Transpose { t, .. } => {
                let (ty, tx) = (pick(rng, *t), pick(rng, *t));
                bind.insert("ty".into(), ty);
                bind.insert("tx".into(), tx);
                vec![c.apply(&[ty, tx]).unwrap(), c.apply(&[tx, ty]).unwrap()]
            }
            TunedConfig::Rowwise { bs, .. } => {
                let (row, lane) = (pick(rng, 64), pick(rng, *bs));
                bind.insert("row".into(), row);
                bind.insert("lane".into(), lane);
                vec![row * bs + c.apply(&[lane]).unwrap()]
            }
            TunedConfig::Stencil { .. } | TunedConfig::Nw { .. } | TunedConfig::Lud { .. } => {
                let names: &[&str] = match config {
                    TunedConfig::Stencil { .. } => &["x", "y", "z"],
                    TunedConfig::Nw { .. } => &["i", "j"],
                    _ => &["ri", "rj", "ti", "tj"],
                };
                assert_eq!(names.len(), dims.len(), "{tag}: view rank");
                let idx: Vec<i64> = dims.iter().map(|&n| pick(rng, n)).collect();
                for (name, &v) in names.iter().zip(&idx) {
                    bind.insert((*name).into(), v);
                }
                vec![c.apply(&idx).unwrap()]
            }
        };
        let got: Vec<i64> = simplified
            .iter()
            .map(|e| eval(e, &bind).unwrap_or_else(|err| panic!("{tag}: eval {e}: {err:?}")))
            .collect();
        assert_eq!(got, want, "{tag}: simplified expressions at {bind:?}");
    }
    true
}

fn check_candidate(kind: &WorkloadKind, config: &TunedConfig, rng: &mut Rng) -> Option<bool> {
    let tag = format!("{} {config}", kind.name());
    let layout = build_layout(kind, config).ok()?;
    let c = layout
        .compile()
        .unwrap_or_else(|e| panic!("{tag}: compile: {e}"));
    check_against_interpreter(&tag, &layout, &c);
    Some(check_symbolic(&tag, kind, config, &c, rng))
}

#[test]
fn legacy_space_candidates_match_the_interpreter() {
    let mut rng = Rng::new(0x00c0_ffee_1e90);
    let (mut checked, mut symbolic) = (0, 0);
    for kind in pool_kinds() {
        let configs = Domain::new(kind, SpaceScale::Legacy).enumerate();
        assert!(!configs.is_empty(), "{}", kind.name());
        for config in &configs {
            let had_symbolic = check_candidate(&kind, config, &mut rng)
                .unwrap_or_else(|| panic!("legacy candidate {config} must build"));
            checked += 1;
            symbolic += usize::from(had_symbolic);
        }
    }
    assert!(checked >= 100, "only {checked} legacy candidates");
    assert!(
        symbolic >= checked / 2,
        "only {symbolic} of {checked} had symbolic forms"
    );
}

#[test]
fn sampled_enlarged_space_candidates_match_the_interpreter() {
    let mut rng = Rng::new(0x0e1a_e9ed);
    let mut checked = 0;
    for kind in pool_kinds() {
        let configs = Domain::new(kind, SpaceScale::Enlarged).enumerate();
        for _ in 0..ENLARGED_PER_SHAPE {
            let config = *rng.choose(&configs);
            // Unbuildable points are infeasible to the tuner too.
            checked += usize::from(check_candidate(&kind, &config, &mut rng).is_some());
        }
    }
    assert!(checked >= 200, "only {checked} enlarged candidates built");
}
