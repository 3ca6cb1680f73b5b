//! The `lego-fleet` command line refuses bad search knobs the way every
//! other front door does: a zero budget and a flag given where a value
//! belongs exit with status 2 before any work, and devices take the
//! spellings the daemon's wire protocol accepts.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh, empty working directory for one run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_fleet_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `lego-fleet` on a one-key grid in `dir` and returns its exit
/// code.
fn fleet(dir: &Path, extra: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_lego-fleet"))
        .current_dir(dir)
        .args(["--grid", "matmul:256", "--threads", "1"])
        .args(extra)
        .output()
        .expect("run lego-fleet")
        .status
        .code()
}

fn entries(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .expect("read scratch dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

#[test]
fn zero_budget_is_refused() {
    let dir = scratch("budget");
    assert_eq!(fleet(&dir, &["--budget", "0"]), Some(2));
    assert!(entries(&dir).is_empty(), "wrote {:?}", entries(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flag_given_as_a_value_is_refused_and_writes_nothing() {
    let dir = scratch("cache");
    assert_eq!(fleet(&dir, &["--cache", "--sidecar"]), Some(2));
    assert!(entries(&dir).is_empty(), "wrote {:?}", entries(&dir));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn device_takes_the_wire_spellings() {
    let dir = scratch("device");
    assert_eq!(fleet(&dir, &["--device", "H100"]), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}
