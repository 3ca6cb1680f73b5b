//! The `GenFns::name` identity contract over the `GenP` library: equal
//! names on equal tiles denote equal concrete bijections.
//!
//! `Layout::key` renders a `GenP` by its tile and name, and the traffic
//! memo and its sidecar rows are keyed by that rendering, so a library
//! permutation whose name missed a parameter would let one layout be
//! priced by another's trace. This sweep builds every library `GenP`
//! over a grid of parameters and asserts that any two with one name
//! have one tile and one table — which also means different tables
//! always carry different names. Names that declare the identity
//! (`…,identity)`) must tabulate to it.

use std::collections::HashMap;

use lego_core::perms::{
    antidiag, bit_reversal, block_cyclic, block_cyclic_elems, block_cyclic_rows, hilbert, morton,
    reverse_perm, xor_swizzle,
};
use lego_core::{Layout, OrderBy, Perm, Result};

/// Every library `GenP` the parameter grid can build, tagged with the
/// call that built it. Parameter choices a constructor refuses are
/// skipped.
fn library() -> Vec<(String, Perm)> {
    let mut out = Vec::new();
    let mut add = |call: String, perm: Result<Perm>| {
        if let Ok(perm) = perm {
            out.push((call, perm));
        }
    };
    for n in 1..=16 {
        add(format!("morton({n})"), morton(n));
        add(format!("hilbert({n})"), hilbert(n));
        add(format!("antidiag({n})"), antidiag(n));
        add(format!("bit_reversal({n})"), bit_reversal(n));
    }
    for dims in [
        vec![1],
        vec![6],
        vec![1, 6],
        vec![6, 1],
        vec![2, 3],
        vec![3, 2],
        vec![4, 4],
        vec![2, 2, 2],
    ] {
        add(format!("reverse_perm({dims:?})"), reverse_perm(&dims));
    }
    for rows in 1..=8 {
        for cols in 1..=8 {
            add(
                format!("xor_swizzle({rows}, {cols})"),
                xor_swizzle(rows, cols),
            );
        }
    }
    for p in 1..=4 {
        for b in 1..=4 {
            for c in 1..=4 {
                add(
                    format!("block_cyclic({p}, {b}, {c})"),
                    block_cyclic(p, b, c),
                );
            }
        }
    }
    for rows in [1, 2, 4, 6, 8, 12] {
        for cols in [1, 2, 3, 8] {
            for p in [1, 2, 3, 4, 8] {
                for b in [1, 2, 3, 4] {
                    let args = format!("{rows}, {cols}, {p}, {b}");
                    add(
                        format!("block_cyclic_rows({args})"),
                        block_cyclic_rows(rows, cols, p, b),
                    );
                    add(
                        format!("block_cyclic_elems({args})"),
                        block_cyclic_elems(rows, cols, p, b),
                    );
                }
            }
        }
    }
    out
}

/// `perm` tabulated over its own tile: a layout whose view is the tile
/// and whose one `OrderBy` is the permutation.
fn table(perm: &Perm) -> Vec<i64> {
    Layout::builder(perm.tile().clone())
        .order_by(OrderBy::new([perm.clone()]).unwrap())
        .build()
        .unwrap()
        .to_permutation()
        .unwrap()
}

#[test]
fn equal_genp_names_denote_equal_bijections() {
    // name → (first call, its tile, its table)
    let mut seen: HashMap<String, (String, Vec<i64>, Vec<i64>)> = HashMap::new();
    let mut shared = 0;
    for (call, perm) in library() {
        let Perm::Gen { tile, fns } = &perm else {
            panic!("{call} is not a GenP");
        };
        let (tile, map) = (tile.dims_const().unwrap(), table(&perm));
        if fns.name.ends_with(",identity)") {
            let identity: Vec<i64> = (0..map.len() as i64).collect();
            assert_eq!(map, identity, "{call} is named {} but moves", fns.name);
        }
        match seen.get(&fns.name) {
            Some((first, t, m)) => {
                assert_eq!(t, &tile, "{call} and {first} share {} on tiles", fns.name);
                assert!(
                    m == &map,
                    "{call} and {first} share {} but not the map",
                    fns.name
                );
                shared += 1;
            }
            None => {
                seen.insert(fns.name.clone(), (call, tile, map));
            }
        }
    }
    assert!(seen.len() > 200, "only {} distinct names swept", seen.len());
    assert!(shared > 0, "no two parameter choices shared a name");
}
