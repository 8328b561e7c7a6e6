//! `skysr-cli query --mode unordered` refuses a query that names more
//! categories than the unordered search takes: exit 1 with the limit in
//! the message, not a panic (exit 101).

use std::process::Command;

use skysr_core::variants::unordered::MAX_CATEGORIES;
use skysr_data::codec;
use skysr_data::dataset::{DatasetSpec, Preset};

#[test]
fn an_unordered_query_over_the_category_limit_exits_1() {
    let path =
        std::env::temp_dir().join(format!("skysr-unordered-limit-{}.skysr", std::process::id()));
    let city = DatasetSpec::preset(Preset::CalSmall).scale(0.05).seed(5).generate();
    codec::save_dataset(&city, &path).expect("the temp dir is writable");
    let names: Vec<&str> = city
        .pois
        .category_histogram()
        .into_iter()
        .take(MAX_CATEGORIES + 1)
        .map(|(c, _)| city.forest.name(c))
        .collect();
    assert_eq!(names.len(), MAX_CATEGORIES + 1, "the city has enough categories");
    let run = Command::new(env!("CARGO_BIN_EXE_skysr-cli"))
        .args(["query", path.to_str().expect("a UTF-8 temp path"), "--start", "0"])
        .args(["--categories", &names.join(","), "--mode", "unordered"])
        .output()
        .expect("skysr-cli runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&format!("at most {MAX_CATEGORIES} categories")), "{stderr}");
    std::fs::remove_file(&path).expect("the city file exists");
}
