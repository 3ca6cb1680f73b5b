//! Fleet-scale tuning demo: expand a grid spec into a dozen
//! `(workload, size, device)` keys and tune them twice on one
//! in-process tuning service. The first run searches every key; the
//! second answers every key from the service's memory tier with the
//! same winners, evaluating nothing.
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

    // A memory-only service: the second run is served by the first.
    let service = TuneService::new(gpu_sim::a100(), None, None);
    let (cold, warm) = (service.fleet(&grid), service.fleet(&grid));
    for (run, report) in [("cold", &cold), ("warm", &warm)] {
        let c = report.counters();
        println!(
            "{run} run: {:>8.2} keys/s, {} searched, {} hits, {} evals total",
            report.keys_per_s(),
            c.searched,
            c.cache_hits,
            c.evals_total
        );
    }
    assert_eq!(warm.counters().cache_hits, grid.len() as u64);

    println!(
        "\n{:<22} {:>5} {:>6} {:>11}",
        "workload", "dev", "evals", "winner (ms)"
    );
    for (a, b) in cold.keys.iter().zip(&warm.keys) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            (&ra.config, &ra.tuned),
            (&rb.config, &rb.tuned),
            "{}: the memory tier answered differently",
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
    println!("\nidentical answers, the second run all memory hits");
}
