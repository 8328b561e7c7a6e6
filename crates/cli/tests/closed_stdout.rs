//! `skysr-cli` writing into a closed pipe, as under `| head` or `| grep -q`
//! once the reader has what it wanted: the command stops, exits 0 and
//! prints nothing on stderr, instead of panicking in `println!` (exit
//! 101).

use std::path::PathBuf;
use std::process::{Command, Stdio};

use skysr_data::codec;
use skysr_data::dataset::{DatasetSpec, Preset};

/// A tiny city written to a file of this test's own.
fn tiny_city() -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("skysr-closed-stdout-{}.skysr", std::process::id()));
    let city = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(5).generate();
    codec::save_dataset(&city, &path).expect("the temp dir is writable");
    path
}

#[test]
fn info_and_query_exit_cleanly_into_a_closed_pipe() {
    let path = tiny_city();
    let city = path.to_str().expect("a UTF-8 temp path");
    let dataset = codec::load_dataset(&path).expect("the city just written");
    // Two categories that have PoIs, so the query prints routes.
    let mut hist = dataset.pois.category_histogram();
    hist.retain(|&(_, n)| n > 0);
    let categories =
        format!("{},{}", dataset.forest.name(hist[0].0), dataset.forest.name(hist[1].0));
    let commands: [&[&str]; 2] =
        [&["info", city], &["query", city, "--start", "0", "--categories", &categories]];
    for args in commands {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_skysr-cli"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("skysr-cli runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(run.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    std::fs::remove_file(&path).expect("the city file exists");
}
