//! String interning for trace identity.
//!
//! Every trace record names its emitting component and event kind, and both
//! are drawn from a tiny fixed vocabulary (`"rms"`, `"invoke"`, …). Storing
//! them as owned `String`s made [`crate::trace::TraceBus::record_fields`]
//! allocate twice per event — pure waste on the hottest observability path in the
//! workspace. An [`Interner`] maps each distinct name to a [`Symbol`] (a
//! dense `u32` id) exactly once; afterwards identity is a copy, comparison
//! is an integer compare, and the `(component, event)` query index can key
//! on a pair of `u32`s.
//!
//! Symbols are meaningful only relative to the interner that issued them —
//! each [`crate::trace::TraceBus`] owns its own table (a per-simulation
//! string table), and a bus read back with
//! [`crate::trace::TraceBus::from_json_str`] re-interns every name. Symbol
//! ids are assigned in
//! first-intern order, which is deterministic for a deterministic
//! simulation; serialization always resolves symbols back to their strings,
//! so no id ever leaks into a trace artifact.
//!
//! The module also provides [`FastHasher`], a deterministic FxHash-style
//! multiply-rotate hasher. `std`'s default `RandomState` both seeds itself
//! per process (hostile to reproducible perf numbers) and runs SipHash
//! (overkill for 3–12 byte keys); every interner and trace-index map in the
//! crate uses this instead.
//!
//! # Examples
//! ```
//! use mcs_simcore::intern::Interner;
//!
//! let mut interner = Interner::new();
//! let faas = interner.intern("faas");
//! assert_eq!(interner.intern("faas"), faas); // idempotent, no realloc
//! assert_eq!(interner.resolve(faas), "faas");
//! assert_eq!(interner.lookup("rms"), None); // never interned
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A dense id for an interned string, valid only with its issuing
/// [`Interner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw dense index of this symbol in its interner's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A deterministic FxHash-style hasher: multiply-rotate over 8-byte chunks.
///
/// Not cryptographic and not DoS-resistant — trace vocabularies are
/// program-controlled, never attacker-controlled.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// The odd multiplier FxHash uses (2^64 / φ rounded to odd).
const FAST_HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FAST_HASH_SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" cannot collide trivially.
            self.mix(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.mix(word as u64);
    }
}

/// A `HashMap` with the deterministic [`FastHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` with the deterministic [`FastHasher`].
pub type FastHashSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// An append-only string table: each distinct string is stored once and
/// addressed by a [`Symbol`].
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: Vec<Box<str>>,
    ids: FastHashMap<Box<str>, Symbol>,
}

/// Equality is table content (in id order); the lookup map is derived state.
impl PartialEq for Interner {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Interner::default()
    }

    /// The symbol for `name`, interning it on first sight. Only the first
    /// call for a given string allocates; lookups borrow `name`.
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.ids.get(name) {
            return sym;
        }
        let sym = Symbol(u32::try_from(self.names.len()).expect("interner overflow"));
        let owned: Box<str> = name.into();
        self.names.push(owned.clone());
        self.ids.insert(owned, sym);
        sym
    }

    /// The symbol for `name` if it was ever interned; never allocates.
    pub fn lookup(&self, name: &str) -> Option<Symbol> {
        self.ids.get(name).copied()
    }

    /// The string behind `sym`.
    ///
    /// # Panics
    /// Panics if `sym` came from a different interner and is out of range
    /// here (out-of-range is the only cross-interner misuse that can be
    /// detected).
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned strings, in symbol-id order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(AsRef::as_ref)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = Interner::new();
        let a = t.intern("faas");
        let b = t.intern("rms");
        assert_ne!(a, b);
        assert_eq!(t.intern("faas"), a);
        assert_eq!(t.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(t.resolve(a), "faas");
        assert_eq!(t.resolve(b), "rms");
    }

    #[test]
    fn lookup_never_interns() {
        let mut t = Interner::new();
        assert_eq!(t.lookup("x"), None);
        let x = t.intern("x");
        assert_eq!(t.lookup("x"), Some(x));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn names_iterate_in_id_order() {
        let mut t = Interner::new();
        for name in ["c", "a", "b", "a"] {
            t.intern(name);
        }
        let names: Vec<&str> = t.names().collect();
        assert_eq!(names, vec!["c", "a", "b"]);
    }

    #[test]
    fn equality_ignores_derived_map_state() {
        let mut a = Interner::new();
        let mut b = Interner::new();
        for name in ["x", "y"] {
            a.intern(name);
            b.intern(name);
        }
        assert_eq!(a, b);
        b.intern("z");
        assert_ne!(a, b);
    }

    #[test]
    fn fast_hasher_is_deterministic_and_length_aware() {
        fn hash(bytes: &[u8]) -> u64 {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        }
        assert_eq!(hash(b"faas"), hash(b"faas"));
        assert_ne!(hash(b"faas"), hash(b"rms"));
        assert_ne!(hash(b"ab"), hash(b"ab\0"));
        // Long keys exercise the chunked path.
        assert_ne!(hash(b"a-rather-long-component-name"), hash(b"a-rather-long-component-nbme"));
    }
}
