//! A single fine-grained memory access to an object in a shared array.
//!
//! The applications in this study access individual particles, molecules or mesh nodes
//! — objects of 32–680 bytes — so the natural unit of a trace entry is "processor `p`
//! read/wrote object `i`".  Translating object indices into cache lines or pages is done
//! later, by the consumer, via [`crate::ObjectLayout`]; that keeps traces independent of
//! the consistency granularity and lets one recorded run feed the hardware simulator
//! (128-byte lines, 16 KB TLB pages) and the DSM simulators (4/8 KB pages) alike.

/// Whether an access reads or writes the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The processor only reads the object.
    Read,
    /// The processor writes (or reads and then writes) the object.
    Write,
}

/// One access to one object by one (virtual) processor.
///
/// Packed into **four** bytes: the read/write kind lives in the top bit of the object
/// index.  Traces of the paper-sized workloads contain tens of millions of accesses,
/// so halving the entry size halves the materialized-trace footprint (and doubles how
/// many accesses fit in a cache line during replay).  Object indices are therefore
/// limited to `2^31 - 1` — far above the 65 536-object paper maximum.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Access {
    bits: u32,
}

/// Top bit of [`Access::bits`]: set for writes, clear for reads.
const WRITE_BIT: u32 = 1 << 31;

impl Access {
    /// Largest representable object index.
    pub const MAX_OBJECT: usize = (WRITE_BIT - 1) as usize;

    /// A read of object `object`.
    ///
    /// # Panics
    /// Panics if `object` exceeds [`Access::MAX_OBJECT`] — a silent truncation would
    /// alias another object (and flip the kind bit), corrupting every counter built
    /// from the trace.  The check is a perfectly predicted compare on the
    /// trace-generation side, not the replay hot path.
    #[inline]
    pub fn read(object: usize) -> Self {
        assert!(object <= Self::MAX_OBJECT, "object index {object} exceeds 31 bits");
        Access { bits: object as u32 }
    }

    /// A write of object `object`.
    ///
    /// # Panics
    /// Panics if `object` exceeds [`Access::MAX_OBJECT`] (see [`Access::read`]).
    #[inline]
    pub fn write(object: usize) -> Self {
        assert!(object <= Self::MAX_OBJECT, "object index {object} exceeds 31 bits");
        Access { bits: object as u32 | WRITE_BIT }
    }

    /// An access of object `object` with the given kind.
    #[inline]
    pub fn new(object: usize, kind: AccessKind) -> Self {
        match kind {
            AccessKind::Read => Access::read(object),
            AccessKind::Write => Access::write(object),
        }
    }

    /// The accessed object index as a `usize`.
    #[inline]
    pub fn object(&self) -> usize {
        (self.bits & !WRITE_BIT) as usize
    }

    /// The accessed object index as the `u32` the trace stores.
    #[inline]
    pub fn object_u32(&self) -> u32 {
        self.bits & !WRITE_BIT
    }

    /// Whether this access is a write.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.bits & WRITE_BIT != 0
    }

    /// Read or write.
    #[inline]
    pub fn kind(&self) -> AccessKind {
        if self.is_write() {
            AccessKind::Write
        } else {
            AccessKind::Read
        }
    }
}

impl std::fmt::Debug for Access {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Access")
            .field("object", &self.object())
            .field("kind", &self.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert_eq!(Access::read(7).kind(), AccessKind::Read);
        assert_eq!(Access::write(7).kind(), AccessKind::Write);
        assert!(Access::write(7).is_write());
        assert!(!Access::read(7).is_write());
        assert_eq!(Access::read(123).object(), 123);
        assert_eq!(Access::write(123).object(), 123);
        assert_eq!(Access::new(9, AccessKind::Write), Access::write(9));
        assert_eq!(Access::new(9, AccessKind::Read), Access::read(9));
    }

    #[test]
    fn access_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Access>(), 4);
    }

    #[test]
    fn packing_round_trips_at_the_extremes() {
        for object in [0usize, 1, 1 << 20, Access::MAX_OBJECT] {
            let r = Access::read(object);
            let w = Access::write(object);
            assert_eq!(r.object(), object);
            assert_eq!(w.object(), object);
            assert_eq!(r.object_u32() as usize, object);
            assert!(!r.is_write());
            assert!(w.is_write());
            assert_ne!(r, w, "kind must be part of the packed value");
        }
    }

    #[test]
    fn debug_formatting_unpacks_the_fields() {
        let s = format!("{:?}", Access::write(42));
        assert!(s.contains("42") && s.contains("Write"), "unhelpful Debug output: {s}");
    }
}
