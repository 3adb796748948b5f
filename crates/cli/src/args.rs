//! Minimal `--flag value` argument parsing (the sanctioned dependency set
//! has no CLI parser; the surface here is small enough not to need one).

use std::collections::HashMap;

/// Parsed `--key value` flags.
#[derive(Debug)]
pub struct Flags {
    values: HashMap<String, String>,
    /// The flags the command reads, separated by whitespace.
    known: &'static str,
}

impl Flags {
    /// Parse a flat `--key value` list for a command that reads the
    /// whitespace-separated flags in `known`; positional or dangling
    /// arguments and any flag outside `known` (a typo would otherwise fall
    /// back to its default silently) are errors.
    pub fn parse(argv: &[String], known: &'static str) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {:?}", argv[i]))?;
            if !is_known(known, key) {
                let takes: Vec<&str> = known.split_whitespace().collect();
                return Err(format!(
                    "unknown flag --{key} (this command takes --{})",
                    takes.join(", --")
                ));
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value.clone());
            i += 2;
        }
        Ok(Self { values, known })
    }

    /// A required flag.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            is_known(self.known, key),
            "--{key} is read but missing from the command's flag list"
        );
        self.values.get(key).map(String::as_str)
    }

    /// An optional flag parsed into `T`.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} has invalid value {v:?}")),
        }
    }
}

fn is_known(known: &str, key: &str) -> bool {
    known.split_whitespace().any(|k| k == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    const KNOWN: &str = "a b c n missing absent";

    #[test]
    fn parses_flag_pairs() {
        let f = Flags::parse(&argv(&["--a", "1", "--b", "two"]), KNOWN).unwrap();
        assert_eq!(f.require("a").unwrap(), "1");
        assert_eq!(f.get("b"), Some("two"));
        assert_eq!(f.get("c"), None);
        assert_eq!(f.get_parsed("a", 0u32).unwrap(), 1);
        assert_eq!(f.get_parsed("missing", 9u32).unwrap(), 9);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Flags::parse(&argv(&["positional"]), KNOWN).is_err());
        assert!(Flags::parse(&argv(&["--a"]), KNOWN).is_err());
        let f = Flags::parse(&argv(&["--n", "abc"]), KNOWN).unwrap();
        assert!(f.get_parsed("n", 0u32).is_err());
        assert!(f.require("absent").is_err());
        // A flag the command does not read, e.g. a typo.
        let err = Flags::parse(&argv(&["--a", "1", "--max-conn", "8"]), KNOWN).unwrap_err();
        assert!(err.contains("unknown flag --max-conn"), "{err}");
        assert!(err.contains("--a, --b"), "{err}");
    }
}
