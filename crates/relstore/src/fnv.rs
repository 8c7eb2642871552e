//! FNV-1a, 64-bit: the one stable hash of the workspace's fingerprints (an
//! AIG's, a catalog schema's, the plan options') and of the string
//! coordinates of the seeded fault streams. Unlike `std`'s hashers its
//! value is fixed across processes and releases, so it can key caches and
//! seed reproducible streams.

use std::fmt;

/// An FNV-1a state. Bytes go in through [`Fnv64::bytes`], or as text
/// through its [`fmt::Write`] impl, so a rendering is hashed as it is
/// produced without being collected into a `String`; [`Fnv64::finish`]
/// reads the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// The empty input's state (the FNV offset basis).
    pub const fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv64 {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The hash of everything hashed in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }

    /// The hash of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        Fnv64::new().bytes(bytes).finish()
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write;

    /// The published FNV-1a 64 test vectors, and text hashed as its bytes.
    #[test]
    fn known_vectors_and_text_agree() {
        assert_eq!(Fnv64::of(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv64::of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut text = Fnv64::new();
        let foo = ["f", "oo"].concat();
        write!(text, "{foo}").unwrap();
        text.bytes(b"bar");
        assert_eq!(text.finish(), Fnv64::of(b"foobar"));
    }
}
