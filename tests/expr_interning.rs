//! Property tests for the interned expression IR.
//!
//! Three invariants, each checked across the index expressions the
//! tuner actually constructs for all six workload families (every
//! symbolic candidate of the legacy search spaces):
//!
//! 1. **Interning round-trip** — lowering the same candidate twice
//!    yields *pointer-equal* expressions (`ptr_eq`, same [`ExprId`]):
//!    hash-consing is complete for same-thread construction.
//! 2. **Simplify idempotence** — `simplify(simplify(e)) ==
//!    simplify(e)`, and because fixpoints are interned, the re-run is
//!    pointer-equal too.
//! 3. **Eval equivalence** — the original, simplified, and
//!    expanded-then-simplified forms agree on concrete bindings
//!    sampled within the candidate's declared index bounds (the only
//!    region where the Table II side conditions hold).
//!
//! Plus the cross-thread soundness corner: a structurally identical
//! expression interned on another thread gets a different id, and
//! structural equality must still hold.

use lego_expr::{eval, Bindings, Engine, Expr, NumRange, RangeEnv};
use lego_tune::{symbolic_exprs, Domain, SpaceScale, WorkloadKind};

mod prop_kinds {
    use lego_codegen::cuda::stencil::StencilShape;
    use lego_tune::{RowwiseOp, WorkloadKind};

    /// The six workload families at gate-sized problems.
    pub fn all() -> Vec<WorkloadKind> {
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
}

/// Every symbolic candidate expression of a workload's legacy space,
/// with its range environment.
fn candidate_exprs(kind: WorkloadKind) -> Vec<(Vec<Expr>, RangeEnv)> {
    Domain::new(kind, SpaceScale::Legacy)
        .enumerate()
        .iter()
        .filter_map(|c| symbolic_exprs(&kind, c))
        .collect()
}

#[test]
fn interning_round_trip_is_pointer_equal() {
    for kind in prop_kinds::all() {
        let mut symbolic = 0usize;
        for c in &Domain::new(kind, SpaceScale::Legacy).enumerate() {
            let Some((first, _)) = symbolic_exprs(&kind, c) else {
                continue;
            };
            let (second, _) = symbolic_exprs(&kind, c).expect("still symbolic");
            assert_eq!(first.len(), second.len());
            for (a, b) in first.iter().zip(&second) {
                assert!(
                    a.ptr_eq(b),
                    "{}: re-lowering {:?} produced a distinct node for {a}",
                    kind.name(),
                    c
                );
                assert_eq!(a.id(), b.id());
            }
            symbolic += 1;
        }
        assert!(symbolic > 0, "{}: no symbolic candidates", kind.name());
    }
}

#[test]
fn simplify_is_idempotent_on_interned_nodes() {
    for kind in prop_kinds::all() {
        for (exprs, env) in candidate_exprs(kind) {
            let eng = Engine::with_env(env);
            for e in &exprs {
                let once = eng.simplify(e);
                let twice = eng.simplify(&once);
                assert!(
                    once.ptr_eq(&twice),
                    "{}: simplify not idempotent on {e}: {once} vs {twice}",
                    kind.name()
                );
            }
        }
    }
}

/// A tiny deterministic LCG so sampling needs no external crates.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A sample within the (possibly unbounded) numeric range: inside
    /// `[lo, hi]` when both ends are known, defaulting missing ends to
    /// `lo.max(0)` .. `lo + 64`.
    fn in_range(&mut self, r: NumRange) -> i64 {
        let lo = r.lo.unwrap_or(0);
        let hi = r.hi.unwrap_or(lo + 64).max(lo);
        let span = (hi - lo + 1).max(1) as u64;
        lo + (self.next() % span) as i64
    }
}

#[test]
fn eval_equivalence_original_vs_simplified_vs_expanded() {
    let mut rng = Lcg(0x1e60_5eed);
    for kind in prop_kinds::all() {
        for (exprs, env) in candidate_exprs(kind) {
            let eng = Engine::with_env(env);
            for e in &exprs {
                let simplified = eng.simplify(e);
                let expanded = eng.simplify(&eng.expand(e));
                for _ in 0..16 {
                    let mut bind = Bindings::new();
                    for s in e.free_syms() {
                        let r = eng.num_range(&Expr::sym(&*s));
                        bind.insert(s.to_string(), rng.in_range(r));
                    }
                    let want = eval(e, &bind).expect("original evaluates");
                    let got_s = eval(&simplified, &bind).expect("simplified evaluates");
                    let got_x = eval(&expanded, &bind).expect("expanded evaluates");
                    assert_eq!(
                        want,
                        got_s,
                        "{}: simplify changed value of {e} under {bind:?}",
                        kind.name()
                    );
                    assert_eq!(
                        want,
                        got_x,
                        "{}: expand+simplify changed value of {e} under {bind:?}",
                        kind.name()
                    );
                }
            }
        }
    }
}

#[test]
fn cross_thread_duplicates_stay_structurally_equal() {
    let build = || {
        let i = Expr::sym("i");
        let n = Expr::sym("n");
        (&i * &n + Expr::val(3)).floor_div(&Expr::sym("d"))
    };
    let local = build();
    let remote = std::thread::spawn(build).join().expect("thread");
    // Different arenas, different ids — but structural equality, the
    // structural hash, and ordering must all agree.
    assert_ne!(local.id(), remote.id());
    assert_eq!(local, remote);
    assert_eq!(local.cmp(&remote), std::cmp::Ordering::Equal);
    // And the foreign node interoperates: arithmetic over both interns
    // into the local arena and compares equal.
    assert_eq!(&local + Expr::val(1), &remote + Expr::val(1));
}
