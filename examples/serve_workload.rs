//! Serve a skewed query workload through the concurrent engine.
//!
//! ```console
//! cargo run --release --example serve_workload
//! ```

use skysr::prelude::*;

fn main() {
    let dataset = DatasetSpec::preset(Preset::CalSmall).scale(0.3).seed(3).generate();
    let spec = ReplaySpec { total: 500, distinct: 80, verify: true, ..Default::default() };
    let report = replay(dataset, &spec);
    println!("{report}");
}
