//! The JSONL wire form of a trace: a flat-object reader and the per-type
//! field codecs that the `trace_kinds!` table in [`super`] builds every
//! kind's writer and parser from (DESIGN.md §16).
//!
//! The workspace deliberately carries no JSON dependency, so the reader
//! here is hand-rolled and accepts exactly what the writers produce: one
//! flat object per line with unsigned-integer, bool and escape-free string
//! values. It rejects rather than reinterprets: a duplicate key, an
//! out-of-range integer or an out-of-domain flag is an error, never a
//! silently different event.

use crate::ids::{FnId, JobId};
use crate::strategy::RecoveryTarget;
use canary_cluster::{NodeId, StorageTier};
use canary_container::ContainerId;
use canary_sim::SimDuration;
use std::fmt::Write as _;

/// A flat JSON value (all the exporters emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Val<'a> {
    /// An unsigned integer.
    U64(u64),
    /// `true` / `false`.
    Bool(bool),
    /// A string without escapes.
    Str(&'a str),
}

/// One parsed flat JSON object: its fields in line order, keys unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatObject<'a> {
    fields: Vec<(&'a str, Val<'a>)>,
}

impl<'a> FlatObject<'a> {
    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<Val<'a>> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// A required unsigned-integer field.
    pub(super) fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Val::U64(v)) => Ok(v),
            _ => Err(format!("missing/invalid field {key:?}")),
        }
    }

    /// An optional unsigned-integer field (present with another type is
    /// an error, not an absence).
    pub(super) fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Val::U64(v)) => Ok(Some(v)),
            Some(_) => Err(format!("invalid field {key:?}")),
        }
    }

    /// A required string field.
    pub(super) fn str(&self, key: &str) -> Result<&'a str, String> {
        match self.get(key) {
            Some(Val::Str(s)) => Ok(s),
            _ => Err(format!("missing/invalid field {key:?}")),
        }
    }
}

/// Parse one flat JSON object (string/unsigned-integer/bool values, no
/// nesting, no escapes — exactly what the writers produce).
pub fn parse_flat_json(line: &str) -> Result<FlatObject<'_>, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or("not an object")?;
    let mut fields = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        rest = rest
            .strip_prefix('"')
            .ok_or("expected quoted key")?
            .trim_start();
        let end = rest.find('"').ok_or("unterminated key")?;
        let key = &rest[..end];
        if fields.iter().any(|&(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        rest = rest[end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or("expected ':'")?
            .trim_start();
        let (val, tail) = if let Some(r) = rest.strip_prefix('"') {
            let end = r.find('"').ok_or("unterminated string")?;
            if r[..end].contains('\\') {
                return Err("escapes unsupported".into());
            }
            (Val::Str(&r[..end]), &r[end + 1..])
        } else if let Some(r) = rest.strip_prefix("true") {
            (Val::Bool(true), r)
        } else if let Some(r) = rest.strip_prefix("false") {
            (Val::Bool(false), r)
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            if end == 0 {
                return Err(format!("bad value near {rest:.12?}"));
            }
            let n: u64 = rest[..end]
                .parse()
                .map_err(|e| format!("bad number: {e}"))?;
            (Val::U64(n), &rest[end..])
        };
        fields.push((key, val));
        rest = tail.trim_start();
        match rest.strip_prefix(',') {
            Some(r) => rest = r.trim_start(),
            None if rest.is_empty() => break,
            None => return Err("expected ',' between fields".into()),
        }
    }
    Ok(FlatObject { fields })
}

/// How one field travels on a JSONL line. Every field type encodes
/// itself; a table row may name a quirk codec ([`ZeroOne`],
/// [`OmitZero`]) instead.
pub(super) trait Codec<T> {
    /// Append `,"key":value` for `v` (or nothing, for an omitted field).
    fn put(v: T, key: &str, out: &mut String);
    /// Read the field back from a parsed line.
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<T, String>;
}

/// Append `,"key":`.
fn put_key(key: &str, out: &mut String) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

/// Append `,"key":v`.
pub(super) fn put_u64(v: u64, key: &str, out: &mut String) {
    put_key(key, out);
    let _ = write!(out, "{v}");
}

impl Codec<u64> for u64 {
    fn put(v: u64, key: &str, out: &mut String) {
        put_u64(v, key, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<u64, String> {
        obj.u64(key)
    }
}

impl Codec<u32> for u32 {
    fn put(v: u32, key: &str, out: &mut String) {
        put_u64(v.into(), key, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<u32, String> {
        let v = obj.u64(key)?;
        u32::try_from(v).map_err(|_| format!("field {key:?} out of range: {v}"))
    }
}

impl Codec<bool> for bool {
    fn put(v: bool, key: &str, out: &mut String) {
        put_key(key, out);
        out.push_str(if v { "true" } else { "false" });
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<bool, String> {
        match obj.get(key) {
            Some(Val::Bool(b)) => Ok(b),
            _ => Err(format!("missing/invalid field {key:?}")),
        }
    }
}

/// Identifier newtypes travel as their integer.
macro_rules! id_codecs {
    ($($id:ident($int:ty)),*) => {$(
        impl Codec<$id> for $id {
            fn put(v: $id, key: &str, out: &mut String) {
                <$int as Codec<$int>>::put(v.0, key, out);
            }
            fn take(obj: &FlatObject<'_>, key: &str) -> Result<$id, String> {
                <$int as Codec<$int>>::take(obj, key).map($id)
            }
        }
    )*};
}

id_codecs!(FnId(u64), JobId(u32), NodeId(u32), ContainerId(u64));

impl Codec<SimDuration> for SimDuration {
    fn put(v: SimDuration, key: &str, out: &mut String) {
        put_u64(v.as_micros(), key, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<SimDuration, String> {
        obj.u64(key).map(SimDuration::from_micros)
    }
}

/// Wire labels of the storage tiers.
const TIER_LABELS: [(StorageTier, &str); 5] = [
    (StorageTier::KvStore, "kv_store"),
    (StorageTier::Ramdisk, "ramdisk"),
    (StorageTier::Pmem, "pmem"),
    (StorageTier::Nfs, "nfs"),
    (StorageTier::ObjectStore, "object_store"),
];

impl Codec<StorageTier> for StorageTier {
    fn put(v: StorageTier, key: &str, out: &mut String) {
        let (_, label) = TIER_LABELS
            .iter()
            .find(|(t, _)| *t == v)
            .expect("every tier has a label");
        put_key(key, out);
        out.push('"');
        out.push_str(label);
        out.push('"');
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<StorageTier, String> {
        let label = obj.str(key)?;
        TIER_LABELS
            .iter()
            .find(|(_, l)| *l == label)
            .map(|&(t, _)| t)
            .ok_or_else(|| format!("unknown tier {label:?}"))
    }
}

/// `"fresh"`, or `"warm"` followed by the warm container's own field.
impl Codec<RecoveryTarget> for RecoveryTarget {
    fn put(v: RecoveryTarget, key: &str, out: &mut String) {
        put_key(key, out);
        match v {
            RecoveryTarget::FreshContainer => out.push_str("\"fresh\""),
            RecoveryTarget::WarmContainer(c) => {
                out.push_str("\"warm\"");
                ContainerId::put(c, "container", out);
            }
        }
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<RecoveryTarget, String> {
        match obj.str(key)? {
            "fresh" => Ok(RecoveryTarget::FreshContainer),
            "warm" => ContainerId::take(obj, "container").map(RecoveryTarget::WarmContainer),
            other => Err(format!("unknown target {other:?}")),
        }
    }
}

/// Quirk codec: a flag written as `0`/`1` rather than `false`/`true`
/// (`controller_recovered.torn`). Any other integer is rejected.
pub(super) struct ZeroOne;

impl Codec<bool> for ZeroOne {
    fn put(v: bool, key: &str, out: &mut String) {
        put_u64(v.into(), key, out);
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<bool, String> {
        match obj.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("field {key:?} must be 0 or 1, got {v}")),
        }
    }
}

/// Quirk codec: a duration left off the line when zero and read back as
/// zero when absent (`checkpoint_written.cost_us`, recorded only under
/// causal observation, so causal-off lines keep their historical bytes).
pub(super) struct OmitZero;

impl Codec<SimDuration> for OmitZero {
    fn put(v: SimDuration, key: &str, out: &mut String) {
        if v > SimDuration::ZERO {
            SimDuration::put(v, key, out);
        }
    }
    fn take(obj: &FlatObject<'_>, key: &str) -> Result<SimDuration, String> {
        Ok(SimDuration::from_micros(obj.opt_u64(key)?.unwrap_or(0)))
    }
}
