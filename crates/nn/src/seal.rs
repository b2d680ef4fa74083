//! One seal for every persisted artifact: the search and train
//! checkpoints, the swap snapshot, and the serve and fleet reports.
//!
//! The sealed form of a [`Sealed`] value is pretty JSON that leads with
//! `schema` and `fingerprint`: the FNV-1a hash of that same text with the
//! fingerprint digits zeroed, so the check covers exactly the bytes on
//! disk. [`write`] is atomic; [`load`] checks the schema, then the
//! fingerprint, before it parses. DESIGN.md, "Sealed artifacts", has the
//! reasons.

use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// A type persisted through the seal; it must serialize `schema` then
/// `fingerprint` as its first two fields.
pub trait Sealed: Serialize + Deserialize {
    /// The layout version this build writes and accepts.
    const SCHEMA: u32;
    /// What the artifact is, for error messages.
    const NAME: &'static str;
}

/// A sealed artifact could not be written, read, or verified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealError(String);

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SealError {}

impl From<serde_json::Error> for SealError {
    fn from(e: serde_json::Error) -> Self {
        SealError(e.to_string())
    }
}

const SCHEMA_KEY: &str = "{\n  \"schema\": ";
const FINGERPRINT_KEY: &str = ",\n  \"fingerprint\": ";
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit over raw bytes: the workspace's stable content
/// fingerprint (`DefaultHasher` is not stable across Rust releases).
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn split_digits(text: &str) -> (&str, &str) {
    text.split_at(text.bytes().take_while(u8::is_ascii_digit).count())
}

/// Splits a sealed text into its schema digits, its fingerprint digits
/// and the rest.
fn header(json: &str) -> Option<(&str, &str, &str)> {
    let (schema, tail) = split_digits(json.strip_prefix(SCHEMA_KEY)?);
    let (fingerprint, rest) = split_digits(tail.strip_prefix(FINGERPRINT_KEY)?);
    (!schema.is_empty() && !fingerprint.is_empty()).then_some((schema, fingerprint, rest))
}

/// The hash of a sealed text with schema digits `schema`, zeroed
/// fingerprint digits, and `rest` after them.
fn content_fingerprint(schema: &str, rest: &str) -> u64 {
    [SCHEMA_KEY, schema, FINGERPRINT_KEY, "0", rest]
        .iter()
        .fold(FNV_OFFSET, |hash, part| fnv1a(hash, part.as_bytes()))
}

fn unsealed<T: Sealed>() -> SealError {
    SealError(format!("{} does not start with a seal header", T::NAME))
}

/// Checks the schema, read on its own so that a file from before a
/// schema bump is refused by name, then the fingerprint.
fn verify_text<T: Sealed>(json: &str) -> Result<(), SealError> {
    let found = json.strip_prefix(SCHEMA_KEY).map_or("", |tail| split_digits(tail).0);
    if !found.is_empty() && found != T::SCHEMA.to_string() {
        let (name, schema) = (T::NAME, T::SCHEMA);
        return Err(SealError(format!("{name} schema {found} unsupported (expected {schema})")));
    }
    let (schema, fingerprint, rest) = header(json).ok_or_else(unsealed::<T>)?;
    let expected = content_fingerprint(schema, rest);
    if fingerprint != expected.to_string() {
        let name = T::NAME;
        return Err(SealError(format!(
            "{name} fingerprint {fingerprint} does not match its content ({expected})"
        )));
    }
    Ok(())
}

/// Serializes `value` and fingerprints its sealed form, whatever its
/// header holds: the text, the length of its header, and the fingerprint.
fn seal_text<T: Sealed>(value: &T) -> Result<(String, usize, u64), SealError> {
    let json = serde_json::to_string_pretty(value)?;
    let (_, _, rest) = header(&json).ok_or_else(unsealed::<T>)?;
    let (head, fingerprint) =
        (json.len() - rest.len(), content_fingerprint(&T::SCHEMA.to_string(), rest));
    Ok((json, head, fingerprint))
}

/// The sealed text of `value`: the current schema and the fingerprint
/// stamped into its header.
fn stamp<T: Sealed>(value: &T) -> Result<String, SealError> {
    let (mut json, head, fingerprint) = seal_text(value)?;
    json.replace_range(..head, &format!("{SCHEMA_KEY}{}{FINGERPRINT_KEY}{fingerprint}", T::SCHEMA));
    Ok(json)
}

/// The sealed form of `value`: pretty JSON with the current schema and
/// the content fingerprint stamped into its header.
///
/// # Errors
///
/// Fails if `value` does not serialize with the seal header.
pub fn to_json<T: Sealed>(value: &T) -> Result<String, serde_json::Error> {
    stamp(value).map_err(|e| serde::DeError::custom(e).into())
}

/// The fingerprint [`to_json`] stamps on `value`, for sealing a value
/// that stays in memory and is checked later with [`verify`].
///
/// # Errors
///
/// As [`to_json`].
pub fn fingerprint<T: Sealed>(value: &T) -> Result<u64, SealError> {
    seal_text(value).map(|(_, _, fingerprint)| fingerprint)
}

/// Checks an in-memory sealed value's schema, then its fingerprint.
///
/// # Errors
///
/// Returns a [`SealError`] naming the `schema` or `fingerprint` mismatch.
pub fn verify<T: Sealed>(value: &T) -> Result<(), SealError> {
    verify_text::<T>(&serde_json::to_string_pretty(value)?)
}

/// Parses a sealed text after checking its schema, then its fingerprint.
///
/// # Errors
///
/// Returns a [`SealError`] for a missing seal header, a stale schema, a
/// fingerprint mismatch, or unparsable content.
pub fn from_json<T: Sealed>(json: &str) -> Result<T, SealError> {
    verify_text::<T>(json)?;
    serde_json::from_str(json).map_err(|e| SealError(format!("parse {}: {e}", T::NAME)))
}

/// Atomically writes `value`'s sealed form to `path`.
///
/// # Errors
///
/// Returns a [`SealError`] on serialization or I/O failure.
pub fn write<T: Sealed>(path: &Path, value: &T) -> Result<(), SealError> {
    write_atomic(path, stamp(value)?.as_bytes())
}

/// Reads a sealed artifact through [`from_json`].
///
/// # Errors
///
/// Returns a [`SealError`] for an unreadable file or a [`from_json`]
/// refusal.
pub fn load<T: Sealed>(path: &Path) -> Result<T, SealError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| SealError(format!("read {}: {e}", path.display())))?;
    from_json(&json).map_err(|e| SealError(format!("{}: {e}", path.display())))
}

/// Writes `bytes` to `path` atomically: create the parent directory,
/// write and sync `<path>.tmp`, then rename it over `path`.
///
/// # Errors
///
/// Returns a [`SealError`] naming the path of the failed step.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SealError> {
    let failed = |step: &str, at: &Path, e: std::io::Error| {
        SealError(format!("{step} {}: {e}", at.display()))
    };
    if let Some(dir) = path.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| failed("create", dir, e))?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_all()))
        .map_err(|e| failed("write", &tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| failed("rename onto", path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Serialize, Deserialize)]
    struct Artifact {
        schema: u32,
        fingerprint: u64,
        served: u64,
        ratio: f64,
    }

    impl Sealed for Artifact {
        const SCHEMA: u32 = 3;
        const NAME: &'static str = "test artifact";
    }

    fn artifact() -> Artifact {
        Artifact { schema: 0, fingerprint: 0, served: 780, ratio: 0.1 }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("hadas-seal-{tag}-{}", std::process::id()))
            .join("artifact.json")
    }

    #[test]
    fn fingerprint64_is_the_reference_fnv1a() {
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fingerprint64(b"ab"), fingerprint64(b"ba"), "order must matter");
    }

    #[test]
    fn the_fingerprint_hashes_the_text_with_its_digits_zeroed() {
        let json = to_json(&artifact()).expect("artifacts serialize");
        let sealed: Artifact = from_json(&json).expect("a stamped artifact restores");
        assert_eq!(sealed.schema, Artifact::SCHEMA, "to_json stamps the current schema");
        let zeroed = json.replacen(
            &format!("\"fingerprint\": {}", sealed.fingerprint),
            "\"fingerprint\": 0",
            1,
        );
        assert_eq!(sealed.fingerprint, fingerprint64(zeroed.as_bytes()));
        assert_eq!(fingerprint(&artifact()).expect("artifacts serialize"), sealed.fingerprint);
        verify(&sealed).expect("a restored artifact verifies in memory");
        assert_eq!(to_json(&sealed).expect("artifacts serialize"), json, "re-sealing is stable");
    }

    #[test]
    fn stale_unsealed_and_mutated_values_are_refused() {
        let json = to_json(&artifact()).expect("artifacts serialize");
        let stale = json.replace("\"schema\": 3", "\"schema\": 4");
        let pre_seal = "{\n  \"schema\": 2,\n  \"served\": 780\n}";
        for (old, refusal) in [(stale.as_str(), "schema 4"), (pre_seal, "schema 2")] {
            let err = from_json::<Artifact>(old).expect_err("stale schemas must be refused");
            assert!(err.to_string().contains(refusal), "{err}");
        }

        for unsealed in ["{not json", "{}", "{\n  \"schema\": 3,\n  \"fingerprint\": x}"] {
            let err = from_json::<Artifact>(unsealed).expect_err("unsealed text must be refused");
            assert!(err.to_string().contains("seal header"), "{err}");
        }

        let mut in_memory: Artifact = from_json(&json).expect("a stamped artifact restores");
        in_memory.served += 1;
        let err = verify(&in_memory).expect_err("a mutated value must be refused");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        in_memory.served -= 1;
        in_memory.schema += 1;
        let err = verify(&in_memory).expect_err("a stale in-memory schema must be refused");
        assert!(err.to_string().contains("schema"), "{err}");
    }

    #[test]
    fn write_and_load_are_atomic_and_gated() {
        let path = scratch("roundtrip");
        let dir = path.parent().expect("scratch paths have a parent").to_path_buf();
        std::fs::remove_dir_all(&dir).ok();

        write(&path, &artifact()).expect("write creates the directory and the file");
        assert!(!dir.join("artifact.json.tmp").exists(), "the temp file must be renamed away");
        let on_disk = std::fs::read_to_string(&path).expect("the file reads");
        assert_eq!(on_disk, to_json(&artifact()).expect("artifacts serialize"));
        let loaded: Artifact = load(&path).expect("a written artifact loads");
        assert_eq!(loaded.served, 780);

        std::fs::write(&path, on_disk.replace("\"served\": 780", "\"served\": 781"))
            .expect("tamper write");
        let err = load::<Artifact>(&path).expect_err("a tampered file must be refused");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        std::fs::write(&path, "{not json").expect("corrupt write");
        assert!(load::<Artifact>(&path).is_err(), "a corrupt file must be refused");
        let err = load::<Artifact>(&dir.join("missing.json")).expect_err("missing files fail");
        assert!(err.to_string().contains("missing.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
