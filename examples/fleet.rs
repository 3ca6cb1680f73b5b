//! Fleet-scale tuning demo: expand a grid spec into a dozen
//! `(workload, size, device)` keys, tune them cold, then tune them
//! again with frontier transfer — each key seeding from the nearest
//! already-tuned neighbor under the cache-key distance metric — and
//! show the transferred fleet finding the same-quality winners on a
//! fraction of the evaluations.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use lego_tune::fleet::{FleetDriver, FleetSpec};
use lego_tune::{key_distance, Budget, Strategy};

const GRID: &str = "matmul:256..1024x2,softmax:512..2048x2@a100,h100";

fn main() {
    let spec = FleetSpec::parse(GRID).expect("grid spec");
    let grid = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
    println!(
        "fleet grid {spec}: {} keys across {} devices\n",
        grid.len(),
        spec.devices.len()
    );

    // The transfer topology is driven by a distance metric over cache
    // keys: L1 in log2 space over the size parameters, with penalties
    // for crossing shapes or devices.
    let a = grid[0].cache_key();
    println!("key distances from {}:", grid[0].kind.name());
    for req in grid.iter().skip(1).take(3) {
        println!(
            "  -> {:<22} {:?}",
            req.kind.name(),
            key_distance(&a, &req.cache_key())
        );
    }
    println!();

    // Cold: every key is an independent full-budget search.
    let cold = FleetDriver::new(4).with_transfer(false).run(&grid);
    let cc = cold.counters();
    println!(
        "cold:        {:>6.2} keys/s, {} evals total, mean {:.1} evals to winner",
        cold.keys_per_s(),
        cc.evals_total,
        cc.mean_evals_to_winner()
    );

    // Transferred: each key seeds from its nearest earlier neighbor's
    // frontier and runs at a quarter budget.
    let warm = FleetDriver::new(4).run(&grid);
    let wc = warm.counters();
    println!(
        "transferred: {:>6.2} keys/s, {} evals total, mean {:.1} evals to winner \
         ({} transfers, {} evals saved)\n",
        warm.keys_per_s(),
        wc.evals_total,
        wc.mean_evals_to_winner(),
        wc.transfers,
        wc.evals_saved
    );

    println!(
        "{:<22} {:>5} {:>7} {:>7} {:>11}  seeded from",
        "workload", "dev", "cold ev", "xfer ev", "winner (ms)"
    );
    for (c, w) in cold.keys.iter().zip(warm.keys.iter()) {
        let (ct, wt) = (c.result.as_ref().unwrap(), w.result.as_ref().unwrap());
        println!(
            "{:<22} {:>5} {:>7} {:>7} {:>11.4}  {}",
            w.request.kind.name(),
            w.request.device.tag,
            ct.evaluated,
            wt.evaluated,
            wt.tuned.time_s * 1e3,
            w.transferred_from.as_deref().unwrap_or("(cold start)")
        );
        // Transfer soundness: a quarter-budget seeded search must not
        // trail the cold winner beyond the fixed tolerance.
        assert!(
            wt.tuned.time_s <= ct.tuned.time_s * 1.05,
            "{}: transferred winner regressed past tolerance",
            w.cache_key
        );
    }

    let speedup = warm.keys_per_s() / cold.keys_per_s();
    println!(
        "\ntransfer tuned the fleet {:.2}x faster ({} of {} keys seeded from a neighbor)",
        speedup,
        wc.transfers,
        grid.len()
    );
    assert!(
        wc.transfers >= (grid.len() as u64) - 4,
        "most keys should transfer"
    );
}
