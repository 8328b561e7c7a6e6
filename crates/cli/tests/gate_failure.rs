//! A replay whose gate fails is a failed run, not a usage error: exit 1
//! with the failing row and gate last on stderr, and no usage text after
//! them. A bad flag still prints the usage.

use std::process::Command;

#[test]
fn a_failed_gate_exits_1_without_the_usage() {
    // With no updater, the row publishes no epoch: its `epochs` gate
    // fails whatever the machine.
    let run = Command::new(env!("CARGO_BIN_EXE_skysr-cli"))
        .args(["replay", "--scenario", "invalidate/zipf", "--update-rate", "0"])
        .args(["--scale", "0.3"])
        .output()
        .expect("skysr-cli runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("row invalidate/zipf: epochs gate failed"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_bad_flag_exits_1_with_the_usage() {
    let run = Command::new(env!("CARGO_BIN_EXE_skysr-cli"))
        .args(["replay", "--queries", "many"])
        .output()
        .expect("skysr-cli runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: bad --queries"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}
