//! Canonical forms of outputs, so a digest stays the same from run to
//! run.
//!
//! Every run mints fresh random UUIDs (MISP events and attributes,
//! STIX ids derived from them, TAXII collections) and stamps wall-clock
//! times (event and attribute timestamps, TAXII `added_at`, parse-time
//! stamps on plaintext records). The canonical form drops every object
//! key that carries either, and replaces any remaining string that
//! embeds a UUID with a placeholder.

/// Object keys whose values are random ids or wall-clock stamps.
const VOLATILE_KEYS: &[&str] = &[
    "id",
    "uuid",
    "timestamp",
    "date",
    "created",
    "modified",
    "valid_from",
    "added_at",
    "seen_at",
    "first_seen",
    "last_seen",
    "enriched_at",
    "publish_timestamp",
    "object_refs",
    "next",
];

/// `value` with volatile keys removed and embedded UUIDs masked.
pub fn canonical(value: &serde_json::Value) -> serde_json::Value {
    use serde_json::Value;
    match value {
        Value::Object(map) => {
            let mut out = serde_json::Map::new();
            for (key, v) in map.iter() {
                if !VOLATILE_KEYS.contains(&key.as_str()) {
                    out.insert(key.clone(), canonical(v));
                }
            }
            Value::Object(out)
        }
        Value::Array(items) => Value::Array(items.iter().map(canonical).collect()),
        Value::String(s) => Value::String(mask_uuids(s)),
        other => other.clone(),
    }
}

/// Replaces every 8-4-4-4-12 hex UUID inside `s` with `<uuid>`.
pub fn mask_uuids(s: &str) -> String {
    const SHAPE: [usize; 5] = [8, 4, 4, 4, 12];
    const LEN: usize = 36;
    let bytes = s.as_bytes();
    let is_uuid_at = |at: usize| -> bool {
        if at + LEN > bytes.len() {
            return false;
        }
        let mut pos = at;
        for (i, &run) in SHAPE.iter().enumerate() {
            if !bytes[pos..pos + run].iter().all(u8::is_ascii_hexdigit) {
                return false;
            }
            pos += run;
            if i < SHAPE.len() - 1 {
                if bytes[pos] != b'-' {
                    return false;
                }
                pos += 1;
            }
        }
        true
    };
    let mut out = String::with_capacity(s.len());
    let mut at = 0;
    let mut copied = 0;
    while at < bytes.len() {
        if is_uuid_at(at) {
            out.push_str(&s[copied..at]);
            out.push_str("<uuid>");
            at += LEN;
            copied = at;
        } else {
            at += 1;
        }
    }
    out.push_str(&s[copied..]);
    out
}

/// A running FNV-1a 64 digest over canonical values.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ["ab","c"] and ["a","bc"] differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    /// Folds in the canonical form of a JSON value.
    pub fn value(&mut self, value: &serde_json::Value) {
        self.bytes(canonical(value).to_string().as_bytes());
    }

    /// Folds in a number.
    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_uuids_inside_strings() {
        let s = "indicator--0f8c6a3e-1b2d-4c5e-8f90-a1b2c3d4e5f6 refs misp-event:0f8c6a3e-1b2d-4c5e-8f90-a1b2c3d4e5f6";
        assert_eq!(mask_uuids(s), "indicator--<uuid> refs misp-event:<uuid>");
        assert_eq!(mask_uuids("no ids here"), "no ids here");
        assert_eq!(mask_uuids("0f8c6a3e-1b2d"), "0f8c6a3e-1b2d");
    }

    #[test]
    fn canonical_drops_volatile_keys_recursively() {
        let a = serde_json::json!({
            "id": "x", "type": "indicator", "created": "2026-01-01T00:00:00Z",
            "pattern": "[domain-name:value = 'a.example']",
            "labels": [{"uuid": "u", "name": "tlp:white"}],
        });
        let b = serde_json::json!({
            "id": "y", "type": "indicator", "created": "2027-01-01T00:00:00Z",
            "pattern": "[domain-name:value = 'a.example']",
            "labels": [{"uuid": "v", "name": "tlp:white"}],
        });
        assert_eq!(canonical(&a), canonical(&b));
        let mut da = Digest::default();
        let mut db = Digest::default();
        da.value(&a);
        db.value(&b);
        assert_eq!(da.hex(), db.hex());
    }
}
