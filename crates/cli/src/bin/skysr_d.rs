//! `skysr-d` — the standalone SkySR network daemon.
//!
//! A thin shell over the same serve loop as `skysr-cli serve`: identical
//! flags, identical wire protocol. See [`skysr_cli::serve`].

use std::process::ExitCode;

use skysr_cli::args::Args;
use skysr_cli::{exit, serve, Failure};

fn main() -> ExitCode {
    // The daemon takes no command word; reuse the CLI parser by
    // synthesizing the one it would have seen as `skysr-cli serve`.
    let argv: Vec<String> =
        std::iter::once("serve".to_owned()).chain(std::env::args().skip(1)).collect();
    let ended =
        Args::parse(argv).map_err(Failure::from).and_then(|mut args| serve::run_serve(&mut args));
    exit(ended, &serve::usage())
}
