//! Fleet-scale tuning demo: expand a grid spec into a dozen
//! `(workload, size, device)` keys and tune them on one thread and on
//! four. A fleet is a parallel map of independent per-key tunes, so
//! both runs give identical answers; only the keys/s differ.
//!
//! ```text
//! cargo run --release --example fleet
//! ```

use lego_tune::fleet::{FleetDriver, FleetSpec};
use lego_tune::{Budget, Strategy};

const GRID: &str = "matmul:256..1024x2,softmax:512..2048x2@a100,h100";

fn main() {
    let spec = FleetSpec::parse(GRID).expect("grid spec");
    let grid = spec.requests(&gpu_sim::a100(), Strategy::Anneal, Budget(64), None);
    println!(
        "fleet grid {spec}: {} keys across {} devices\n",
        grid.len(),
        spec.devices.len()
    );

    let one = FleetDriver::new(1).run(&grid);
    let four = FleetDriver::new(4).run(&grid);
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
