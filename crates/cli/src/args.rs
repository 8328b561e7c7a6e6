//! Tiny dependency-free argument parser for the CLI.
//!
//! Supports one leading command word, one optional positional argument,
//! and `--flag value` pairs. Unknown or leftover flags are reported.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    /// The command word (first argument).
    pub command: String,
    positional: Option<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: Vec<String>) -> Result<Args, String> {
        let mut it = argv.into_iter();
        let command = it.next().ok_or("missing command")?;
        let mut positional = None;
        let mut flags = BTreeMap::new();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                if flags.insert(name.to_owned(), value).is_some() {
                    return Err(format!("--{name} given twice"));
                }
            } else if positional.is_none() {
                positional = Some(a);
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(Args { command, positional, flags })
    }

    /// The positional argument (e.g. a dataset file).
    pub fn positional(&self) -> Result<String, String> {
        self.positional.clone().ok_or_else(|| "missing dataset file argument".to_owned())
    }

    /// The positional argument if one was given (commands where it is
    /// optional, e.g. `replay` generating a city when no file is named).
    pub fn positional_opt(&self) -> Option<String> {
        self.positional.clone()
    }

    /// Takes a required flag.
    pub fn require(&mut self, name: &str) -> Result<String, String> {
        self.flags.remove(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// Takes an optional flag.
    pub fn optional(&mut self, name: &str) -> Option<String> {
        self.flags.remove(name)
    }

    /// Fails if unconsumed flags remain.
    pub fn finish(&self) -> Result<(), String> {
        match self.flags.keys().next() {
            Some(k) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_and_positional() {
        let mut a = Args::parse(sv(&["query", "city.txt", "--start", "5"])).unwrap();
        assert_eq!(a.command, "query");
        assert_eq!(a.positional().unwrap(), "city.txt");
        assert_eq!(a.require("start").unwrap(), "5");
        a.finish().unwrap();
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Args::parse(sv(&["x", "--flag"])).is_err());
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(Args::parse(sv(&["x", "--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn leftover_flags_detected() {
        let a = Args::parse(sv(&["x", "--oops", "1"])).unwrap();
        assert!(a.finish().is_err());
    }

    #[test]
    fn extra_positional_rejected() {
        assert!(Args::parse(sv(&["x", "a", "b"])).is_err());
    }

    #[test]
    fn missing_command_rejected() {
        assert!(Args::parse(vec![]).is_err());
    }

    #[test]
    fn optional_positional() {
        let a = Args::parse(sv(&["replay", "--workers", "4"])).unwrap();
        assert_eq!(a.positional_opt(), None);
        assert!(a.positional().is_err());
        let b = Args::parse(sv(&["replay", "city.txt"])).unwrap();
        assert_eq!(b.positional_opt().as_deref(), Some("city.txt"));
    }
}
