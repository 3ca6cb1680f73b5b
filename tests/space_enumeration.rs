//! The search-space enumeration fixture.
//!
//! `tests/golden/space_enumeration.txt` pins, for both scales and a
//! grid of problem sizes, what `Domain::new(kind, scale).enumerate()`
//! returns: the candidate count and an FNV-1a 64 hash of the
//! `{:?}`-rendered configurations in order. Exhaustive searches, the
//! golden expression transcript and the benchmark's deterministic
//! counters all depend on that exact list, so a change to an axis, to
//! the order or to the default's position fails here first.
//!
//! The grid covers every benchmark pool shape, sizes whose default lies
//! off the axes (`matmul(n=1000)`, `transpose(n=48)`), sizes whose axis
//! product is empty (`transpose(n=100)`, `nw(n=100,b=16)`) and sizes
//! whose divisors the power-of-two lists skip (`stencil(n=12)`).

use lego_tune::{Domain, SpaceScale, WorkloadKind};

/// Every workload of the fixture, by wire name.
fn grid() -> Vec<String> {
    let mut names: Vec<String> = [
        // The benchmark's exhaustive and anneal pools.
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
    ]
    .into_iter()
    .map(String::from)
    .collect();
    for n in [64, 128, 192, 384, 768, 1000, 1536, 3072] {
        names.push(format!("matmul(n={n})"));
    }
    for n in [32, 48, 100, 1000] {
        names.push(format!("transpose(n={n})"));
    }
    for n in [12, 40, 48, 56] {
        names.push(format!("stencil(star-7pt,n={n})"));
    }
    for n in [100, 1000] {
        names.push(format!("nw(n={n},b=16)"));
        names.push(format!("lud(n={n},bs=16)"));
    }
    names
}

/// FNV-1a 64 over each configuration's `{:?}` rendering plus a newline.
fn fnv64<T: std::fmt::Debug>(items: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in format!("{item:?}\n").bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The fixture text: one `<scale> <workload> count=<n> fnv=<hex>` line
/// per scale and workload.
fn render() -> String {
    let mut out = String::new();
    for scale in [SpaceScale::Legacy, SpaceScale::Enlarged] {
        for name in grid() {
            let kind = WorkloadKind::parse(&name).expect("grid names parse");
            let configs = Domain::new(kind, scale).enumerate();
            out.push_str(&format!(
                "{} {name} count={} fnv={:016x}\n",
                scale.name(),
                configs.len(),
                fnv64(&configs)
            ));
        }
    }
    out
}

#[test]
fn enumerations_match_the_fixture() {
    let golden = include_str!("golden/space_enumeration.txt");
    let got = render();
    for (want, have) in golden.lines().zip(got.lines()) {
        assert_eq!(have, want, "enumeration changed");
    }
    assert_eq!(got, golden, "fixture line count changed");
}
