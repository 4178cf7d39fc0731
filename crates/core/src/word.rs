//! Element types storable in QSM shared arrays.
//!
//! Shared-array storage is **packed at the element width**: a segment,
//! a put payload and a get result are each a `Vec<u64>` allocation (so
//! one buffer pool serves every element type, and every buffer is
//! 8-byte aligned) that holds `len × BYTES` bytes of
//! elements in native layout. A `u32` array therefore occupies and
//! moves 4 bytes an element, the paper's accounting word, and a local
//! window is borrowed as `&[T]` rather than decoded element by element.
//!
//! The two casts below are the only place that reinterprets storage.
//! They are sound for the [`Word`] types and no others, which is why
//! the trait is sealed: each is a primitive with no padding and no
//! invalid bit pattern, no wider and no more aligned than a `u64`.
//! Cost accounting converts element counts into the paper's 4-byte
//! word units via [`Word::BYTES`].
//!
//! The exchange stage knows an array's width
//! ([`ArrayInfo::elem_bytes`](crate::shmem::ArrayInfo::elem_bytes)),
//! not its type, and copies element ranges through the 4- or the
//! 8-byte lane (`copy_packed`); a range may start mid-word and end on
//! another owner (`tests/packed_exchange.rs` holds random programs over
//! all five types, on both machines, to a plain `Vec<T>`). Array ids
//! restart in every run, so each typed access checks the handle's
//! width against the array's and panics rather than reinterpret. Host
//! copies are never charged, so none of this moves a simulated number.

mod sealed {
    pub trait Sealed {}
}

/// An element type usable in a [`crate::shmem::SharedArray`]: `u32`,
/// `i32`, `u64`, `i64` or `f64`. Sealed — the runtime reinterprets
/// storage as `[Self]`, which is only sound for these.
pub trait Word:
    sealed::Sealed + Copy + Send + Sync + Default + PartialEq + std::fmt::Debug + 'static
{
    /// Size of one element in bytes: what it occupies in storage and
    /// on the wire (what the gap is charged on).
    const BYTES: u64;

    /// Number of 4-byte accounting words one element occupies
    /// (rounded up).
    fn words() -> u64 {
        Self::BYTES.div_ceil(4)
    }
}

macro_rules! impl_word {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl Word for $t {
            const BYTES: u64 = std::mem::size_of::<$t>() as u64;
        }
    )*};
}
impl_word!(u32, i32, u64, i64, f64);

/// `u64` storage words that hold `len` elements of `elem_bytes` each.
pub(crate) fn storage_words(len: usize, elem_bytes: u64) -> usize {
    // Checked: the casts' length test is only as good as this product.
    len.checked_mul(elem_bytes as usize).expect("array byte size overflows usize").div_ceil(8)
}

/// What both casts require of `T` and of the storage: `T` is as wide
/// as it claims and fits a `u64`'s alignment, and `raw` holds `len`
/// elements. Panics otherwise; the first two fold to nothing.
fn check<T: Word>(raw_words: usize, len: usize) {
    assert!(std::mem::size_of::<T>() as u64 == T::BYTES);
    assert!(std::mem::align_of::<T>() <= std::mem::align_of::<u64>());
    assert!(
        storage_words(len, T::BYTES) <= raw_words,
        "{len} elements of {} bytes do not fit {raw_words} storage words",
        T::BYTES
    );
}

/// The first `len` elements packed in `raw`.
pub(crate) fn elems<T: Word>(raw: &[u64], len: usize) -> &[T] {
    check::<T>(raw.len(), len);
    // SAFETY: `T` is a sealed primitive (`u32`, `i32`, `u64`, `i64`,
    // `f64`): no padding, every bit pattern valid, so initialized `u64`
    // memory is initialized `T` memory. `check` established that `T`'s
    // alignment divides the pointer's (8) and that `len` elements end
    // inside `raw`. The result borrows `raw`, so it cannot outlive or
    // alias a mutation of it.
    unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<T>(), len) }
}

/// The first `len` elements packed in `raw`, mutably.
pub(crate) fn elems_mut<T: Word>(raw: &mut [u64], len: usize) -> &mut [T] {
    check::<T>(raw.len(), len);
    // SAFETY: as `elems`; in addition every `T` written is a valid bit
    // pattern of the `u64` it lands in, and the exclusive borrow of
    // `raw` is handed on whole.
    unsafe { std::slice::from_raw_parts_mut(raw.as_mut_ptr().cast::<T>(), len) }
}

/// Copy `n` elements of `elem_bytes` each from element `from` of `src`
/// to element `to` of `dst`. This is how the exchange stage, which
/// knows an array's width but not its type, moves a range that starts
/// at any element: through the 4-byte or the 8-byte lane.
pub(crate) fn copy_packed(
    elem_bytes: u64,
    src: &[u64],
    from: usize,
    dst: &mut [u64],
    to: usize,
    n: usize,
) {
    fn lane<T: Word>(src: &[u64], from: usize, dst: &mut [u64], to: usize, n: usize) {
        elems_mut::<T>(dst, to + n)[to..].copy_from_slice(&elems::<T>(src, from + n)[from..]);
    }
    match elem_bytes {
        4 => lane::<u32>(src, from, dst, to, n),
        8 => lane::<u64>(src, from, dst, to, n),
        w => unreachable!("no Word is {w} bytes wide"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_units() {
        assert_eq!((u32::BYTES, i32::BYTES), (4, 4));
        assert_eq!((u64::BYTES, i64::BYTES, f64::BYTES), (8, 8, 8));
        assert_eq!(u32::words(), 1);
        assert_eq!(u64::words(), 2);
        assert_eq!(f64::words(), 2);
    }

    #[test]
    fn storage_is_packed() {
        assert_eq!(storage_words(0, 4), 0);
        assert_eq!(storage_words(1, 4), 1);
        assert_eq!(storage_words(2, 4), 1);
        assert_eq!(storage_words(3, 4), 2);
        assert_eq!(storage_words(3, 8), 3);
    }

    #[test]
    fn four_byte_elements_share_a_storage_word() {
        let mut raw = vec![0u64; 2];
        elems_mut::<u32>(&mut raw, 3).copy_from_slice(&[1, 2, 3]);
        assert_eq!(elems::<u32>(&raw, 3), [1, 2, 3]);
        // Native layout: the same bytes a `[u32; 4]` would hold.
        let mut want = [0u8; 16];
        for (k, v) in [1u32, 2, 3, 0].iter().enumerate() {
            want[4 * k..4 * k + 4].copy_from_slice(&v.to_ne_bytes());
        }
        let got: Vec<u8> = raw.iter().flat_map(|w| w.to_ne_bytes()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn values_keep_their_bits() {
        let mut raw = vec![0u64; 2];
        elems_mut::<i32>(&mut raw, 2).copy_from_slice(&[-1, i32::MIN]);
        assert_eq!(elems::<i32>(&raw, 2), [-1, i32::MIN]);
        // A negative `i32` stays inside its four bytes.
        assert_eq!(elems::<u32>(&raw, 2), [u32::MAX, 1 << 31]);
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        elems_mut::<f64>(&mut raw, 2).copy_from_slice(&[nan, -0.0]);
        let back = elems::<f64>(&raw, 2);
        assert_eq!(back[0].to_bits(), nan.to_bits());
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
        elems_mut::<i64>(&mut raw, 2).copy_from_slice(&[-1, i64::MIN]);
        assert_eq!(elems::<u64>(&raw, 2), [u64::MAX, 1 << 63]);
    }

    #[test]
    fn packed_copies_start_at_any_element() {
        let mut src = vec![0u64; 3];
        elems_mut::<u32>(&mut src, 5).copy_from_slice(&[10, 11, 12, 13, 14]);
        let mut dst = vec![0u64; 2];
        copy_packed(4, &src, 1, &mut dst, 1, 3);
        assert_eq!(elems::<u32>(&dst, 4), [0, 11, 12, 13]);
        let wide = [7u64, 8, 9];
        let mut dst = vec![0u64; 3];
        copy_packed(8, &wide, 1, &mut dst, 0, 2);
        assert_eq!(dst, [8, 9, 0]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_packed_copy_past_its_destination_panics() {
        copy_packed(4, &[0; 4], 0, &mut [0; 1], 1, 2);
    }

    #[test]
    fn an_empty_view_needs_no_storage() {
        assert!(elems::<u64>(&[], 0).is_empty());
        assert!(elems_mut::<u32>(&mut [], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_view_longer_than_its_storage_panics() {
        let raw = vec![0u64; 2];
        let _ = elems::<u32>(&raw, 5);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn a_wide_view_of_narrow_storage_panics() {
        // Three `u32`s take two words; three `u64`s would take three.
        let mut raw = vec![0u64; storage_words(3, 4)];
        let _ = elems_mut::<u64>(&mut raw, 3);
    }
}
