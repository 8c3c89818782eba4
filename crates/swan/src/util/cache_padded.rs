use core::fmt;
use core::ops::{Deref, DerefMut};

/// Pads and aligns a value to the size of a cache line (conservatively two
/// lines, 128 bytes, to defeat adjacent-line prefetching on x86).
///
/// Used to keep producer-side and consumer-side indices of the SPSC queue
/// segments on distinct cache lines so that the
/// single-producer/single-consumer fast paths do not false-share.
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in a cache-line-aligned cell.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the padding wrapper, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_is_at_least_128() {
        assert!(core::mem::align_of::<CachePadded<u8>>() >= 128);
        assert!(core::mem::align_of::<CachePadded<[u64; 32]>>() >= 128);
    }

    #[test]
    fn deref_roundtrip() {
        let mut c = CachePadded::new(41u64);
        *c += 1;
        assert_eq!(*c, 42);
        assert_eq!(c.into_inner(), 42);
    }

    #[test]
    fn adjacent_elements_do_not_share_lines() {
        let v = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &v[0] as *const _ as usize;
        let b = &v[1] as *const _ as usize;
        assert!(b - a >= 128);
    }
}
