//! The architectural register file saved/restored by process persistence.

/// Number of general-purpose registers (x86-64).
pub const GPR_COUNT: usize = 16;

/// CPU state that must be part of a process's saved execution context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegisterFile {
    /// General-purpose registers rax..r15.
    pub gpr: [u64; GPR_COUNT],
    /// Instruction pointer.
    pub rip: u64,
    /// Flags register.
    pub rflags: u64,
}

impl RegisterFile {
    /// Fresh register file (all zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialized size in bytes when checkpointed (`gpr + rip + rflags`).
    pub const BYTES: usize = (GPR_COUNT + 2) * 8;

    /// Encodes into a fixed-size little-endian byte array.
    pub fn to_bytes(&self) -> [u8; Self::BYTES] {
        let mut out = [0u8; Self::BYTES];
        for (i, r) in self.gpr.iter().enumerate() {
            out[i * 8..(i + 1) * 8].copy_from_slice(&r.to_le_bytes());
        }
        out[GPR_COUNT * 8..GPR_COUNT * 8 + 8].copy_from_slice(&self.rip.to_le_bytes());
        out[(GPR_COUNT + 1) * 8..].copy_from_slice(&self.rflags.to_le_bytes());
        out
    }

    /// Decodes from the layout produced by [`RegisterFile::to_bytes`].
    pub fn from_bytes(bytes: &[u8; Self::BYTES]) -> Self {
        let mut rf = RegisterFile::default();
        for i in 0..GPR_COUNT {
            rf.gpr[i] = u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
        }
        rf.rip = u64::from_le_bytes(
            bytes[GPR_COUNT * 8..GPR_COUNT * 8 + 8].try_into().expect("8 bytes"),
        );
        rf.rflags = u64::from_le_bytes(bytes[(GPR_COUNT + 1) * 8..].try_into().expect("8 bytes"));
        rf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let mut rf = RegisterFile::new();
        for (i, r) in rf.gpr.iter_mut().enumerate() {
            *r = 0x1111_0000 + i as u64;
        }
        rf.rip = 0xdead_beef;
        rf.rflags = 0x246;
        let bytes = rf.to_bytes();
        assert_eq!(RegisterFile::from_bytes(&bytes), rf);
    }

    #[test]
    fn size_is_18_words() {
        assert_eq!(RegisterFile::BYTES, 144);
    }
}
