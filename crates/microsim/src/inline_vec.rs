//! A small vector that stores its first `N` elements inline.
//!
//! Job activation frames are pushed and popped on every RPC hop, and every
//! bundled application's paths fit [`Job`](crate::job::Job)'s inline
//! capacity — so frame storage never touches the allocator in the steady
//! state. Deeper paths spill to a heap `Vec` transparently.

use std::ops::{Index, IndexMut};

/// A `Vec`-like container holding up to `N` elements inline.
///
/// Only the operations the kernel needs are provided: push, pop, length and
/// indexing. `T: Copy + Default` keeps the inline buffer trivially
/// initialisable.
#[derive(Debug, Clone)]
pub(crate) struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    inline: [T; N],
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [T::default(); N],
            spill: Vec::new(), // simlint: allow(hot-path-alloc) — capacity 0, allocation-free
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = value;
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Removes and returns the last element, or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.len < N {
            Some(self.inline[self.len])
        } else {
            self.spill.pop()
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Index<usize> for InlineVec<T, N> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i < N {
            &self.inline[i]
        } else {
            &self.spill[i - N]
        }
    }
}

impl<T: Copy + Default, const N: usize> IndexMut<usize> for InlineVec<T, N> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        if i < N {
            &mut self.inline[i]
        } else {
            &mut self.spill[i - N]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_within_inline_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert_eq!(v.len(), 0);
        for i in 0..4 {
            v.push(i);
        }
        assert_eq!(v.len(), 4);
        assert_eq!(v[0], 0);
        assert_eq!(v[3], 3);
        assert_eq!(v.pop(), Some(3));
        assert_eq!(v.len(), 3);
        v[1] = 99;
        assert_eq!(v[1], 99);
    }

    #[test]
    fn spills_past_inline_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..6 {
            v.push(i);
        }
        assert_eq!(v.len(), 6);
        assert_eq!((v[0], v[1], v[2], v[5]), (0, 1, 2, 5));
        for expect in (0..6).rev() {
            assert_eq!(v.pop(), Some(expect));
        }
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn crossing_the_boundary_both_ways() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        v.push(1);
        v.push(2);
        v.push(3); // spills
        assert_eq!(v.pop(), Some(3)); // back to inline-only
        v.push(4); // spills again
        assert_eq!(v[2], 4);
        assert_eq!(v.pop(), Some(4));
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.pop(), Some(1));
        assert_eq!(v.pop(), None);
    }
}
