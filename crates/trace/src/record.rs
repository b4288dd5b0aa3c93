//! The trace record: `(period, offset, operation, size, area)`.

use kindle_types::AccessKind;

/// Index into the trace's area table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AreaId(pub u16);

/// One memory operation of the traced application, exactly the tuple the
/// paper's image generator emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Time of the access in the original execution (ns from start).
    pub period: u64,
    /// Byte offset within the named area.
    pub offset: u64,
    /// Read or write.
    pub op: AccessKind,
    /// Access size in bytes.
    pub size: u32,
    /// Which heap/stack area is accessed.
    pub area: AreaId,
}

impl TraceRecord {
    /// Serialized size in the disk image.
    pub const BYTES: usize = 24;

    /// Packs into the fixed on-disk layout.
    pub fn to_bytes(&self) -> [u8; Self::BYTES] {
        let mut b = [0u8; Self::BYTES];
        b[0..8].copy_from_slice(&self.period.to_le_bytes());
        b[8..16].copy_from_slice(&self.offset.to_le_bytes());
        b[16..20].copy_from_slice(&self.size.to_le_bytes());
        b[20] = matches!(self.op, AccessKind::Write) as u8;
        b[21..23].copy_from_slice(&self.area.0.to_le_bytes());
        b
    }

    /// Unpacks from the on-disk layout.
    pub fn from_bytes(b: &[u8; Self::BYTES]) -> Self {
        TraceRecord {
            period: u64::from_le_bytes(b[0..8].try_into().expect("8 bytes")),
            offset: u64::from_le_bytes(b[8..16].try_into().expect("8 bytes")),
            size: u32::from_le_bytes(b[16..20].try_into().expect("4 bytes")),
            op: if b[20] == 1 { AccessKind::Write } else { AccessKind::Read },
            area: AreaId(u16::from_le_bytes(b[21..23].try_into().expect("2 bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        let r = TraceRecord {
            period: 123_456_789,
            offset: 0xdead_beef,
            op: AccessKind::Write,
            size: 64,
            area: AreaId(3),
        };
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()), r);
        let r2 = TraceRecord { op: AccessKind::Read, ..r };
        assert_eq!(TraceRecord::from_bytes(&r2.to_bytes()), r2);
    }
}
