//! The expression-semantics gate.
//!
//! The interned expression IR must be a pure *representation* change:
//! simplified forms, cost-model annotations, tuner rankings, and
//! printed kernels have to stay bit-identical to the tree-walking
//! implementation they replaced. This test pins all of that against a
//! golden transcript captured from the pre-interning engine:
//!
//! * every legacy-space candidate's `(variant, index_ops)` annotation
//!   for all six workload families,
//! * the exhaustive tuner winner (config + bit-exact naive/tuned
//!   estimates) per workload on a100/h100/mi300,
//! * the seeded Anneal and Genetic winners over the enlarged spaces
//!   (the metaheuristics construct candidates through the memoized
//!   fast path, and their RNG streams must not shift), and
//! * printed simplified index expressions for representative layouts
//!   (canonical n-ary forms reach the printers unchanged).
//!
//! Future IR changes that intentionally alter semantics must regenerate
//! the transcript (`EXPR_GATE_WRITE=1 cargo test --test
//! expr_semantics_gate`) and justify the diff in review; CI runs this
//! test on every push so rankings can never shift silently.

use gpu_sim::{a100, h100, mi300, GpuConfig};
use lego_codegen::cuda::stencil::StencilShape;
use lego_codegen::tuning::RowwiseOp;
use lego_expr::printer::python::{print as py_print, Flavor};
use lego_expr::{Engine, Expr, RangeEnv};
use lego_tune::space::{build_layout, Candidate, WorkloadKind};
use lego_tune::{Budget, Domain, SpaceScale, Strategy, Tuner};

/// The six workload families at gate-sized problems (divisible by every
/// legacy tile/block choice, small enough for exhaustive search).
fn workloads() -> Vec<WorkloadKind> {
    vec![
        WorkloadKind::Matmul { n: 1024 },
        WorkloadKind::Transpose { n: 512 },
        WorkloadKind::Stencil {
            shape: StencilShape::Star(1),
            n: 64,
        },
        WorkloadKind::Nw { n: 448, b: 16 },
        WorkloadKind::Lud { n: 512, bs: 16 },
        WorkloadKind::Rowwise {
            op: RowwiseOp::Softmax,
            m: 256,
            n: 1024,
        },
    ]
}

fn devices() -> Vec<GpuConfig> {
    vec![a100(), h100(), mi300()]
}

/// Bit-exact rendering of an estimate time (hex of the IEEE-754 bits).
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Builds the full transcript the golden file pins.
fn transcript() -> Vec<String> {
    let mut out = Vec::new();

    // Candidate annotations are device-independent (pure expr work).
    for kind in workloads() {
        for config in Domain::new(kind, SpaceScale::Legacy).enumerate() {
            let c = Candidate::annotated(&kind, &config);
            out.push(format!(
                "cand {} {:?} variant={:?} ops={:?}",
                kind.name(),
                c.config,
                c.expr_variant,
                c.index_ops
            ));
        }
    }

    for cfg in devices() {
        for kind in workloads() {
            let r = Tuner::new(cfg.clone())
                .tune(&kind)
                .expect("exhaustive tune");
            out.push(format!(
                "winner {} {} {:?} naive={} tuned={} evaluated={}",
                cfg.name,
                r.workload,
                r.config,
                bits(r.naive.time_s),
                bits(r.tuned.time_s),
                r.evaluated
            ));
            for strategy in [Strategy::Anneal, Strategy::Genetic] {
                let r = Tuner::new(cfg.clone())
                    .with_strategy(strategy)
                    .with_budget(Budget(96))
                    .tune(&kind)
                    .expect("budgeted tune");
                out.push(format!(
                    "search {} {} {} {:?} tuned={} evaluated={}",
                    cfg.name,
                    strategy.name(),
                    r.workload,
                    r.config,
                    bits(r.tuned.time_s),
                    r.evaluated
                ));
            }
        }
    }

    // Printed simplified forms of representative index expressions: the
    // grouped matmul pid decomposition and the transposed smem store.
    let matmul = WorkloadKind::Matmul { n: 1024 };
    let layout =
        build_layout(&matmul, &matmul.default_config()).expect("grouped matmul layout builds");
    let mut env = RangeEnv::new();
    let dims = layout.view().dims_const().expect("const dims");
    env.set_bounds("pid", Expr::zero(), Expr::val(dims[0] * dims[1]));
    for (i, e) in layout
        .inv_sym(&Expr::sym("pid"))
        .expect("symbolic inverse")
        .iter()
        .enumerate()
    {
        let choice = Engine::with_env(env.clone()).pick_cheaper(e);
        out.push(format!(
            "expr matmul-grouped pid{} [{:?}/{} ops] {}",
            i,
            choice.variant,
            choice.unexpanded_ops.min(choice.expanded_ops),
            py_print(&choice.expr, Flavor::Triton).expect("printable")
        ));
    }
    out
}

#[test]
fn expr_semantics_bit_identical_to_golden() {
    let lines = transcript();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/expr_semantics.txt"
    );
    if std::env::var_os("EXPR_GATE_WRITE").is_some() {
        std::fs::write(path, lines.join("\n") + "\n").expect("write golden");
        return;
    }
    let golden = include_str!("golden/expr_semantics.txt");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(
        golden.len(),
        lines.len(),
        "transcript length changed: golden {} vs current {}",
        golden.len(),
        lines.len()
    );
    for (i, (g, l)) in golden.iter().zip(lines.iter()).enumerate() {
        assert_eq!(g, l, "semantics drift at transcript line {}", i + 1);
    }
}
