//! Fleet-scale tuning demo: expand a grid spec into a dozen
//! `(workload, size, device)` keys and tune them on one thread and on
//! four, each on its own in-process tuning service. A fleet resolves
//! every key as an independent tune, so both runs give identical
//! answers; only the keys/s differ.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use lego_served::TuneService;
use lego_tune::{Budget, FleetSpec, Knobs, Strategy};

const GRID: &str = "matmul:256..1024x2,softmax:512..2048x2@a100,h100";

fn main() {
    let spec = FleetSpec::parse(GRID).expect("grid spec");
    let knobs = Knobs {
        strategy: Strategy::Anneal,
        budget: Budget(64),
        ..Knobs::new(gpu_sim::a100())
    };
    let grid = spec.requests(&knobs);
    println!(
        "fleet grid {spec}: {} keys across {} devices\n",
        grid.len(),
        spec.devices.len()
    );

    // A memory-only service per run, so the second run searches too.
    let run = |threads| TuneService::new(gpu_sim::a100(), None, None).fleet(&grid, threads);
    let (one, four) = (run(1), run(4));
    for (threads, report) in [(1, &one), (4, &four)] {
        let c = report.counters();
        println!(
            "{threads} thread(s): {:>6.2} keys/s, {} evals total",
            report.keys_per_s(),
            c.evals_total
        );
    }

    println!(
        "\n{:<22} {:>5} {:>6} {:>11}",
        "workload", "dev", "evals", "winner (ms)"
    );
    for (a, b) in one.keys.iter().zip(&four.keys) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            ra, rb,
            "{}: answers differ across thread counts",
            a.cache_key
        );
        println!(
            "{:<22} {:>5} {:>6} {:>11.4}",
            a.request.kind.name(),
            a.request.device.tag,
            ra.evaluated,
            ra.tuned.time_s * 1e3
        );
    }
    println!("\nidentical answers on 1 and 4 threads");
}
