//! The persisted knob table: deterministic `TUNED.json` serialization,
//! process-wide cached loading, and the per-knob resolution order
//! **env override → table → frozen constant**.

use exa_telemetry::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// File name consumers look for in the working directory (the tier-1
/// flow runs every binary from the repo root, so the repo-root table is
/// what production runs consult; unit tests run from their crate
/// directory and therefore stay on the frozen constants).
pub const TUNED_FILE: &str = "TUNED.json";

/// A persisted knob table. Keys are sorted (`BTreeMap`) and the writer
/// is hand-rolled, so serialization is a pure function of the contents:
/// the determinism proptests compare tables byte for byte.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TunedTable {
    /// Seed the tuner ran with (recorded for provenance).
    pub seed: u64,
    /// Machine the table was tuned for.
    pub machine: String,
    /// Sorted knob → winner map.
    pub knobs: BTreeMap<String, i64>,
}

impl TunedTable {
    /// Empty table (every lookup falls back to the frozen constant).
    pub fn new(seed: u64, machine: &str) -> Self {
        TunedTable {
            seed,
            machine: machine.to_string(),
            knobs: BTreeMap::new(),
        }
    }

    /// Record a winner.
    pub fn set(&mut self, key: &str, value: i64) {
        self.knobs.insert(key.to_string(), value);
    }

    /// Look a knob up.
    pub fn get(&self, key: &str) -> Option<i64> {
        self.knobs.get(key).copied()
    }

    /// Deterministic JSON: fixed field order, sorted keys, fixed
    /// indentation — byte-identical for equal contents.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"version\": 1,\n  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"machine\": \"{}\",\n  \"knobs\": {{\n",
            self.machine
        ));
        let last = self.knobs.len();
        for (i, (k, v)) in self.knobs.iter().enumerate() {
            let comma = if i + 1 == last { "" } else { "," };
            out.push_str(&format!("    \"{k}\": {v}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parse a table document. Anything malformed is an error naming
    /// the offending field: a corrupt table must never pass for the
    /// frozen constants.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = parse_json(text)?;
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(1) => {}
            _ => return Err("\"version\" must be 1".to_string()),
        }
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .filter(|&s| s <= MAX_EXACT)
            .ok_or("\"seed\" must be an integer in [0, 2^53]")?;
        let machine = doc
            .get("machine")
            .and_then(JsonValue::as_str)
            .ok_or("\"machine\" must be a string")?;
        let Some(JsonValue::Obj(entries)) = doc.get("knobs") else {
            return Err("\"knobs\" must be an object".to_string());
        };
        let mut table = TunedTable::new(seed, machine);
        for (key, value) in entries {
            let v = value
                .as_f64()
                .filter(|x| x.fract() == 0.0 && x.abs() <= MAX_EXACT as f64)
                .ok_or_else(|| format!("knob \"{key}\" must be an integer"))?;
            table.set(key, v as i64);
        }
        Ok(table)
    }
}

/// JSON numbers are doubles: integers round-trip exactly up to 2^53.
const MAX_EXACT: u64 = 1 << 53;

/// Load the table at `path`. With `required` unset a missing file is the
/// empty table (the frozen constants); every other failure — an
/// unreadable file, a malformed document — is an error naming the path.
fn load(path: &str, required: bool) -> Result<TunedTable, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => TunedTable::from_json(&text).map_err(|e| format!("{path}: {e}")),
        Err(e) if !required && e.kind() == std::io::ErrorKind::NotFound => {
            Ok(TunedTable::default())
        }
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// The process-wide table, loaded once: the file `EXA_TUNED` names
/// (which must exist), else `./TUNED.json` if present, else the empty
/// table.
///
/// # Panics
///
/// If `EXA_TUNED` names a missing file, or the table file is unreadable
/// or malformed.
pub fn tuned() -> &'static TunedTable {
    static TABLE: OnceLock<TunedTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let loaded = match std::env::var("EXA_TUNED") {
            Ok(path) => load(&path, true),
            Err(_) => load(TUNED_FILE, false),
        };
        loaded.unwrap_or_else(|e| panic!("{e}"))
    })
}

/// Resolve a knob: `EXA_TUNE_<KEY>` env override (dots become
/// underscores, uppercased — `fft.overlap_k` → `EXA_TUNE_FFT_OVERLAP_K`),
/// then the loaded table, then the frozen constant.
///
/// # Panics
///
/// If the override is set but is not an integer, or the table cannot be
/// loaded.
pub fn knob_i64(key: &str, frozen: i64) -> i64 {
    let var = format!("EXA_TUNE_{}", key.replace('.', "_").to_ascii_uppercase());
    if let Ok(v) = std::env::var(&var) {
        return v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{var} = {v:?}: expected an integer"));
    }
    tuned().get(key).unwrap_or(frozen)
}

/// [`knob_i64`] for the common non-negative `usize` knobs.
///
/// # Panics
///
/// As [`knob_i64`], and if the resolved value is negative.
pub fn knob(key: &str, frozen: usize) -> usize {
    let v = knob_i64(key, frozen as i64);
    usize::try_from(v).unwrap_or_else(|_| panic!("{key} = {v}: expected a non-negative value"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_byte_identically() {
        let mut t = TunedTable::new(42, "frontier");
        t.set("fft.overlap_k", 8);
        t.set("demo.width", 64);
        let json = t.to_json();
        let back = TunedTable::from_json(&json).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.to_json(), json, "round trip must be byte-identical");
    }

    #[test]
    fn empty_table_serializes_and_parses() {
        let t = TunedTable::new(7, "aurora");
        let back = TunedTable::from_json(&t.to_json()).expect("parses");
        assert_eq!(back, t);
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn corrupt_table_is_an_error_naming_the_key() {
        let table = |value: &str| {
            format!("{{\"version\": 1, \"seed\": 0, \"machine\": \"m\", \"knobs\": {{\"a\": {value}}}}}")
        };
        for bad in ["\"what\"", "1.5", "null"] {
            let err = TunedTable::from_json(&table(bad)).unwrap_err();
            assert!(err.contains("\"a\""), "{bad}: {err}");
        }
        assert_eq!(
            TunedTable::from_json(&table("-3")).unwrap().get("a"),
            Some(-3)
        );
        let truncated = "{\n  \"knobs\": {\n    \"a\": what\n  }\n}\n";
        assert!(TunedTable::from_json(truncated).is_err());
    }

    #[test]
    fn malformed_file_is_an_error_naming_the_path() {
        let path = std::env::temp_dir().join(format!("exa_tune_bad_{}.json", std::process::id()));
        std::fs::write(&path, "{\"version\": 1,").unwrap();
        let path = path.to_str().unwrap().to_string();
        for required in [false, true] {
            let err = load(&path, required).unwrap_err();
            assert!(err.contains(&path), "{err}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_unless_required() {
        let path = "no_such_dir/TUNED.json";
        assert_eq!(load(path, false), Ok(TunedTable::default()));
        assert!(load(path, true).unwrap_err().contains(path));
    }

    #[test]
    fn keys_serialize_sorted() {
        let mut t = TunedTable::new(0, "m");
        t.set("z.last", 1);
        t.set("a.first", 2);
        let json = t.to_json();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
    }

    #[test]
    fn env_override_beats_frozen() {
        // Process-global env: use a key no other test reads.
        std::env::set_var("EXA_TUNE_TEST_ONLY_KNOB", "99");
        assert_eq!(knob("test.only_knob", 3), 99);
        std::env::remove_var("EXA_TUNE_TEST_ONLY_KNOB");
        assert_eq!(knob("test.only_knob", 3), 3);
    }
}
