//! The correctness gate: a fingerprint of every command's outputs, checked
//! on every iteration against the one recorded for the input's seed (or,
//! for seeds without a record, against the run's first iteration).

use serde_json::Value;
use std::path::Path;

/// The fingerprints recorded at full size, keyed by [`key`].
const RECORDED: &str = include_str!("../fingerprints.json");

/// A canonical text rendering of a command's outputs, one `label: value`
/// line per fact, compared through its hash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    text: String,
}

impl Fingerprint {
    pub fn push(&mut self, label: &str, value: impl AsRef<str>) {
        self.text.push_str(label);
        self.text.push_str(": ");
        self.text.push_str(value.as_ref());
        self.text.push('\n');
    }

    /// 64-bit FNV-1a of the text, in hex.
    pub fn hash(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.text.bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    pub fn text(&self) -> &str {
        &self.text
    }
}

/// The record key of an input: everything that determines the outputs.
/// The thread count is deliberately absent — results must not depend on it.
pub fn key(workload: &str, seed: u64, txs: usize) -> String {
    format!("{workload} seed={seed} txs={txs}")
}

/// A set of recorded fingerprints.
pub struct Store {
    entries: Vec<(String, Value)>,
}

impl Store {
    /// The store compiled into the binary, or the file at `path`.
    pub fn load(path: Option<&Path>) -> Result<Store, String> {
        let text = match path {
            Some(p) if p.exists() => {
                std::fs::read_to_string(p).map_err(|e| format!("reading {}: {e}", p.display()))?
            }
            Some(_) => "{}".to_string(),
            None => RECORDED.to_string(),
        };
        match serde_json::value_from_str(&text) {
            Ok(Value::Object(entries)) => Ok(Store { entries }),
            Ok(other) => Err(format!(
                "fingerprint store: expected an object, got {}",
                other.kind()
            )),
            Err(e) => Err(format!("fingerprint store: {e}")),
        }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.iter().find_map(|(k, v)| match v {
            Value::Str(s) if k == key => Some(s.as_str()),
            _ => None,
        })
    }

    /// Insert or replace `key` and write the store to `path`, keys sorted.
    pub fn record(mut self, path: &Path, key: &str, hash: &str) -> Result<(), String> {
        self.entries.retain(|(k, _)| k != key);
        self.entries
            .push((key.to_string(), Value::Str(hash.to_string())));
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        let text = Value::Object(self.entries).render(true) + "\n";
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_hash_tracks_every_fact() {
        let mut a = Fingerprint::default();
        a.push("x", "1");
        let mut b = a.clone();
        assert_eq!(a.hash(), b.hash());
        b.push("y", "2");
        assert_ne!(a.hash(), b.hash());
        assert_eq!(Fingerprint::default().hash(), "cbf29ce484222325");
    }

    #[test]
    fn compiled_store_parses() {
        Store::load(None).expect("fingerprints.json is a JSON object");
    }
}
