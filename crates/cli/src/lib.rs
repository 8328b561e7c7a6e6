//! Shared plumbing of the `skysr-cli` and `skysr-d` binaries: argument
//! parsing, dataset selection, the daemon serve loop and how a failed
//! command is reported.
//!
//! The two binaries are thin shells over this library — `skysr-d` is
//! exactly `skysr-cli serve` under its own name, so deployments that want
//! only the daemon need not carry the query/replay tooling in their entry
//! point.

use std::io;
use std::process::ExitCode;

pub mod args;
pub mod city;
pub mod serve;

/// Why a command failed.
#[derive(Debug)]
pub enum Failure {
    /// A bad argument or input: reported with the usage.
    Usage(String),
    /// A command that ran and failed — a gate, a verification, a socket or
    /// a file write: reported alone, so the failure is what the log ends
    /// with.
    Run(String),
    /// Writing to stdout failed.
    Output(io::Error),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Usage(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Usage(e.to_owned())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Failure {
        Failure::Output(e)
    }
}

/// Reports how a command ended on stderr and gives the process its exit
/// code: a usage error is followed by `usage`, a run failure stands
/// alone, and a stdout the reader closed (`| head`, `| grep -q`) is a
/// success, since the reader has all it wanted.
pub fn exit(ended: Result<(), Failure>, usage: &str) -> ExitCode {
    match ended {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Output(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Usage(e)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{usage}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
