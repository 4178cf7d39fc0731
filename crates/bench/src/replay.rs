//! Lossless journal encoding for sweep-point results.
//!
//! A resumable sweep ([`crate::sweep`], `QSM_RESUME=1`) must rebuild
//! a completed point's result from its journal record and have every
//! downstream artifact — CSV, text table, metrics — come out
//! *byte-identical* to an uninterrupted run. [`Replay`] is the
//! contract that makes that possible: a result type flattens itself
//! into a sequence of string fields and rebuilds from them
//! bit-exactly.
//!
//! Exactness is the whole point, so floats are encoded with Rust's
//! shortest-roundtrip formatting (`{:?}`), which parses back to the
//! identical bits for every finite value (and ±infinity); formatted
//! CSV cells derived from a replayed value are therefore
//! byte-identical to the original run's. Integers and strings are
//! trivially exact.
//!
//! Implementations exist for exactly what the figures' sweeps return:
//! `u64`, `f64`, `String`, `Option<T>`, `Vec<T>` and tuples of 2, 3
//! and 7; a figure introducing a result struct declares it through
//! `replay_struct!`, which implements the two methods by field order.
//!
//! Decoding is total-or-nothing: [`Replay::decode_fields`] rejects
//! both truncated and over-long field lists, so a record written by
//! an older schema quietly fails to replay (the point is simply
//! re-run) instead of reconstructing a wrong value.

/// A sweep-point result that can round-trip through the run journal
/// losslessly. See the module docs for the exactness contract.
pub trait Replay: Sized {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<String>);

    /// Rebuild a value by consuming fields from `it`. Returns `None`
    /// on exhausted or malformed input (never panics).
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self>;

    /// Encode into a fresh field vector.
    fn encode_fields(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode from a complete field vector, rejecting trailing
    /// fields (a schema-drift guard: half-understood records must
    /// not replay).
    fn decode_fields(fields: &[String]) -> Option<Self> {
        let mut it = fields.iter();
        let v = Self::decode(&mut it)?;
        it.next().is_none().then_some(v)
    }
}

/// Declare a sweep-point result struct together with its [`Replay`]
/// by field order, so a crashed sweep resumes (`QSM_RESUME=1`) with
/// replayed rows bit-exact.
macro_rules! replay_struct {
    ($(#[$attr:meta])* struct $name:ident { $($field:ident: $ty:ty,)+ }) => {
        $(#[$attr])*
        struct $name {
            $($field: $ty,)+
        }

        impl $crate::replay::Replay for $name {
            fn encode(&self, out: &mut Vec<String>) {
                $($crate::replay::Replay::encode(&self.$field, out);)+
            }
            fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
                Some($name { $($field: <$ty as $crate::replay::Replay>::decode(it)?,)+ })
            }
        }
    };
}
pub(crate) use replay_struct;

impl Replay for u64 {
    fn encode(&self, out: &mut Vec<String>) {
        out.push(self.to_string());
    }
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
        it.next()?.parse().ok()
    }
}

impl Replay for f64 {
    fn encode(&self, out: &mut Vec<String>) {
        // `{:?}` is the shortest string that parses back to the
        // identical bits (Rust's float formatting guarantee) — the
        // exactness the CSV oracle needs.
        out.push(format!("{self:?}"));
    }
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
        it.next()?.parse().ok()
    }
}

impl Replay for String {
    fn encode(&self, out: &mut Vec<String>) {
        out.push(self.clone());
    }
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
        it.next().cloned()
    }
}

impl<T: Replay> Replay for Option<T> {
    fn encode(&self, out: &mut Vec<String>) {
        match self {
            Some(v) => {
                out.push("some".into());
                v.encode(out);
            }
            None => out.push("none".into()),
        }
    }
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
        match it.next()?.as_str() {
            "some" => Some(Some(T::decode(it)?)),
            "none" => Some(None),
            _ => None,
        }
    }
}

impl<T: Replay> Replay for Vec<T> {
    fn encode(&self, out: &mut Vec<String>) {
        out.push(self.len().to_string());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
        let len: usize = it.next()?.parse().ok()?;
        // An element encodes to ≥ 1 field, so a length beyond the
        // remaining fields is malformed (and must not pre-allocate).
        if len > it.len() {
            return None;
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(it)?);
        }
        Some(out)
    }
}

macro_rules! replay_tuple {
    ($($name:ident)+) => {
        impl<$($name: Replay),+> Replay for ($($name,)+) {
            fn encode(&self, out: &mut Vec<String>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            fn decode(it: &mut std::slice::Iter<'_, String>) -> Option<Self> {
                Some(($($name::decode(it)?,)+))
            }
        }
    };
}
replay_tuple!(A B);
replay_tuple!(A B C);
replay_tuple!(A B C D E F G);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Replay + PartialEq + std::fmt::Debug>(v: T) {
        let fields = v.encode_fields();
        assert_eq!(T::decode_fields(&fields), Some(v), "fields: {fields:?}");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u64);
        roundtrip(u64::MAX);
        roundtrip("hello, \"journal\"\nline".to_string());
    }

    #[test]
    fn floats_roundtrip_bit_exactly() {
        for v in [
            0.0f64,
            -0.0,
            1.0 / 3.0,
            2f64.powi(-1074), // smallest subnormal
            1.23456789e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            123456.789_f64,
        ] {
            let fields = v.encode_fields();
            let back = f64::decode_fields(&fields).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} reencoded as {fields:?}");
        }
        // sanity: -0.0 really kept its sign above (to_bits differs).
        assert_ne!((-0.0f64).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip(Some(3.5f64));
        roundtrip(None::<f64>);
        roundtrip(vec!["a".to_string(), String::new(), "c".to_string()]);
        roundtrip(vec![vec![1u64, 2], vec![], vec![3]]);
        roundtrip((1.5f64, Some(2.5f64)));
        roundtrip((0.1f64, 0.2f64, 0.3f64, 0.4f64, 0.5f64, 7u64, 9u64));
    }

    #[test]
    fn trailing_and_truncated_fields_are_rejected() {
        let mut fields = (1u64, 2u64).encode_fields();
        fields.push("extra".into());
        assert_eq!(<(u64, u64)>::decode_fields(&fields), None);
        assert_eq!(<(u64, u64)>::decode_fields(&fields[..1]), None);
        assert_eq!(f64::decode_fields(&["not-a-number".to_string()]), None);
    }

    #[test]
    fn oversized_vec_length_is_rejected_not_allocated() {
        let fields = vec![usize::MAX.to_string()];
        assert_eq!(Vec::<u64>::decode_fields(&fields), None);
    }
}
