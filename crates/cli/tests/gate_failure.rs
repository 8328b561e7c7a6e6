//! A command that ran and failed is a failed run, not a usage error:
//! exit 1 with the failure last on stderr and no usage text after it — a
//! replay whose gate fails, and a daemon whose socket is taken, which it
//! finds before it builds anything. A bad flag still prints the usage.

use std::net::TcpListener;
use std::process::Command;

#[test]
fn a_failed_gate_exits_1_without_the_usage() {
    // With no update bursts, the row publishes no epoch: its `epochs`
    // gate fails whatever the machine.
    let run = Command::new(env!("CARGO_BIN_EXE_skysr-cli"))
        .args(["replay", "--scenario", "invalidate/zipf", "--update-every", "0"])
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

#[test]
fn a_daemon_whose_port_is_taken_exits_1_without_the_usage() {
    let held = TcpListener::bind("127.0.0.1:0").expect("a loopback port");
    let addr = held.local_addr().expect("a bound port").to_string();
    let skysr_d = |flags: &[&str]| {
        let run = Command::new(env!("CARGO_BIN_EXE_skysr-d"))
            .args(["--addr", &addr, "--preset", "cal-small", "--scale", "0.05"])
            .args(flags)
            .output()
            .expect("skysr-d runs");
        (run.status.code(), String::from_utf8_lossy(&run.stderr).into_owned())
    };
    // The socket is claimed first: a clash fails before any city or
    // landmark table is built.
    let (code, stderr) = skysr_d(&["--repair", "true"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&format!("error: cannot bind {addr}")), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("generating"), "{stderr}");
    assert!(!stderr.contains("landmarks built"), "{stderr}");
    let (code, stderr) = skysr_d(&["--shards", "many"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error: bad --shards"), "{stderr}");
    assert!(stderr.contains("usage:\n  skysr-d [FILE]"), "{stderr}");
    drop(held);
}
