//! The on-disk trace format: a compact, versioned binary encoding with a
//! streaming reader/writer and typed errors.
//!
//! Layout (version 1, little-endian):
//!
//! ```text
//! magic      "ICTR"                               4 bytes
//! version    u8  = 1
//! flags      u8  = 0 (reserved; nonzero rejects)
//! name_len   u16, then `name_len` bytes of UTF-8
//! horizon_us u64 (trace horizon in microseconds)
//! tenants    u16 (declared tenant universe, >= 1)
//! record*                                         until EOF
//!   tag      u8: bit 0 = op (0 GET, 1 PUT); bits 1–7 reserved, must be 0
//!   dt_us    varint u64: microseconds since the previous record
//!   tenant   varint, must fit u16 and be < `tenants`
//!   object   varint, must fit u32
//!   size     varint u64 (object bytes)
//! ```
//!
//! Timestamps are delta-encoded and therefore monotone by construction on
//! the wire; the writer refuses out-of-order input
//! ([`TraceError::NonMonotonic`]) instead of silently reordering. Every
//! decode failure is a typed [`TraceError`] — truncated files, wrong
//! magic, future versions, overlong varints, reserved bits — never a
//! panic, so a loader fed garbage degrades into an error the caller can
//! report.

use std::io::{self, Read, Write};

use ic_common::{ObjectKey, SimTime};

/// The 4-byte file magic.
pub const MAGIC: [u8; 4] = *b"ICTR";
/// The current (and only) format version.
pub const VERSION: u8 = 1;
/// Longest accepted trace name, a sanity bound against garbage headers.
pub const MAX_NAME_LEN: usize = 4096;

/// What a record does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceOp {
    /// Read the object (miss semantics are the replayer's choice).
    Get,
    /// Store the object.
    Put,
}

/// One trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Absolute request time (decoded from the wire deltas).
    pub at: SimTime,
    /// Operation.
    pub op: TraceOp,
    /// Tenant the request belongs to (0 in single-tenant traces).
    pub tenant: u16,
    /// Object identifier within the tenant.
    pub object: u32,
    /// Object size in bytes.
    pub size: u64,
}

impl TraceRecord {
    /// The cache key this record addresses: tenant 0 is named
    /// `o{object:08}`; other tenants are prefixed.
    pub fn key(&self) -> ObjectKey {
        key_for(self.tenant, self.object)
    }
}

/// The key-naming scheme shared by every replayer (see
/// [`TraceRecord::key`]).
pub fn key_for(tenant: u16, object: u32) -> ObjectKey {
    if tenant == 0 {
        ObjectKey::new(format!("o{object:08}"))
    } else {
        ObjectKey::new(format!("t{tenant}-o{object:08}"))
    }
}

/// Trace-level metadata, written before the records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceHeader {
    /// Human-readable trace name (workload profile, generation note).
    pub name: String,
    /// Trace horizon; replays run to this plus a drain window.
    pub horizon: SimTime,
    /// Declared tenant universe (>= 1); every record's tenant is below it.
    pub tenants: u16,
}

/// Every way a trace file can fail to decode (or a record to encode).
#[derive(Debug)]
pub enum TraceError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The file declares a version this build does not speak.
    UnsupportedVersion(u8),
    /// The input ended mid-header or mid-record.
    Truncated {
        /// Zero-based index of the record being decoded (0 can also mean
        /// the header itself).
        record: u64,
    },
    /// The input violates the format (reserved bits, overlong varints,
    /// out-of-range fields, bogus header lengths).
    Corrupt {
        /// Zero-based index of the offending record.
        record: u64,
        /// What was wrong.
        what: String,
    },
    /// A record's timestamp went backwards (writer-side check; on the
    /// wire timestamps are deltas and cannot regress).
    NonMonotonic {
        /// Zero-based index of the offending record.
        record: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "not a trace file (magic {m:02x?})"),
            TraceError::UnsupportedVersion(v) => {
                write!(f, "trace format version {v} not supported (max {VERSION})")
            }
            TraceError::Truncated { record } => {
                write!(f, "trace truncated inside record {record}")
            }
            TraceError::Corrupt { record, what } => {
                write!(f, "trace corrupt at record {record}: {what}")
            }
            TraceError::NonMonotonic { record } => {
                write!(f, "record {record} goes back in time")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------

/// Maximum bytes of an LEB128-encoded u64; longer encodings are rejected
/// as overlong (a canonical-form rule that keeps round-trips byte-exact).
const MAX_VARINT_BYTES: u32 = 10;

fn write_varint(out: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return out.write_all(&[byte]);
        }
        out.write_all(&[byte | 0x80])?;
    }
}

/// Reads one LEB128 u64. `record` only labels errors.
fn read_varint(input: &mut impl Read, record: u64) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_u8(input, record)?;
        if shift >= 7 * MAX_VARINT_BYTES || (shift == 63 && byte > 1) {
            return Err(TraceError::Corrupt {
                record,
                what: "overlong varint".into(),
            });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads exactly one byte; EOF here is a truncation.
fn read_u8(input: &mut impl Read, record: u64) -> Result<u8, TraceError> {
    let mut b = [0u8; 1];
    read_exact(input, &mut b, record)?;
    Ok(b[0])
}

/// `read_exact` with EOF mapped to [`TraceError::Truncated`].
fn read_exact(input: &mut impl Read, buf: &mut [u8], record: u64) -> Result<(), TraceError> {
    input.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            TraceError::Truncated { record }
        } else {
            TraceError::Io(e)
        }
    })
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Streams records to a writer. Construction writes the header; each
/// [`TraceWriter::write`] appends one delta-encoded record.
pub struct TraceWriter<W: Write> {
    out: W,
    tenants: u16,
    last_at: SimTime,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Writes the header and readies the record stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on write failure; [`TraceError::Corrupt`] when
    /// the header itself is malformed (empty tenant universe, oversized
    /// name).
    pub fn new(mut out: W, header: &TraceHeader) -> Result<Self, TraceError> {
        if header.tenants == 0 {
            return Err(TraceError::Corrupt {
                record: 0,
                what: "tenant universe must be at least 1".into(),
            });
        }
        if header.name.len() > MAX_NAME_LEN {
            return Err(TraceError::Corrupt {
                record: 0,
                what: format!("trace name longer than {MAX_NAME_LEN} bytes"),
            });
        }
        out.write_all(&MAGIC)?;
        out.write_all(&[VERSION, 0])?;
        out.write_all(&(header.name.len() as u16).to_le_bytes())?;
        out.write_all(header.name.as_bytes())?;
        out.write_all(&header.horizon.as_micros().to_le_bytes())?;
        out.write_all(&header.tenants.to_le_bytes())?;
        Ok(TraceWriter {
            out,
            tenants: header.tenants,
            last_at: SimTime::ZERO,
            written: 0,
        })
    }

    /// Appends one record.
    ///
    /// # Errors
    ///
    /// [`TraceError::NonMonotonic`] when `r.at` precedes the previous
    /// record, [`TraceError::Corrupt`] when `r.tenant` is outside the
    /// declared universe, [`TraceError::Io`] on write failure.
    pub fn write(&mut self, r: &TraceRecord) -> Result<(), TraceError> {
        if r.at < self.last_at {
            return Err(TraceError::NonMonotonic {
                record: self.written,
            });
        }
        if r.tenant >= self.tenants {
            return Err(TraceError::Corrupt {
                record: self.written,
                what: format!("tenant {} outside universe {}", r.tenant, self.tenants),
            });
        }
        let tag = match r.op {
            TraceOp::Get => 0u8,
            TraceOp::Put => 1u8,
        };
        self.out.write_all(&[tag])?;
        write_varint(&mut self.out, r.at.as_micros() - self.last_at.as_micros())?;
        write_varint(&mut self.out, u64::from(r.tenant))?;
        write_varint(&mut self.out, u64::from(r.object))?;
        write_varint(&mut self.out, r.size)?;
        self.last_at = r.at;
        self.written += 1;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] on flush failure.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.out.flush()?;
        Ok(self.out)
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Streams records from a reader. The header is decoded eagerly in
/// [`TraceReader::new`]; records come out of the [`Iterator`] impl, which
/// fuses after the first error.
pub struct TraceReader<R: Read> {
    input: R,
    header: TraceHeader,
    at: SimTime,
    next_record: u64,
    done: bool,
}

impl<R: Read> TraceReader<R> {
    /// Decodes the header and readies the record stream.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] / [`TraceError::UnsupportedVersion`] /
    /// [`TraceError::Truncated`] / [`TraceError::Corrupt`] /
    /// [`TraceError::Io`] for the corresponding malformed inputs.
    pub fn new(mut input: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        read_exact(&mut input, &mut magic, 0)?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic(magic));
        }
        let version = read_u8(&mut input, 0)?;
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let flags = read_u8(&mut input, 0)?;
        if flags != 0 {
            return Err(TraceError::Corrupt {
                record: 0,
                what: format!("reserved header flags 0x{flags:02x}"),
            });
        }
        let mut len = [0u8; 2];
        read_exact(&mut input, &mut len, 0)?;
        let name_len = u16::from_le_bytes(len) as usize;
        if name_len > MAX_NAME_LEN {
            return Err(TraceError::Corrupt {
                record: 0,
                what: format!("trace name length {name_len} exceeds {MAX_NAME_LEN}"),
            });
        }
        let mut name = vec![0u8; name_len];
        read_exact(&mut input, &mut name, 0)?;
        let name = String::from_utf8(name).map_err(|_| TraceError::Corrupt {
            record: 0,
            what: "trace name is not UTF-8".into(),
        })?;
        let mut horizon = [0u8; 8];
        read_exact(&mut input, &mut horizon, 0)?;
        let mut tenants = [0u8; 2];
        read_exact(&mut input, &mut tenants, 0)?;
        let tenants = u16::from_le_bytes(tenants);
        if tenants == 0 {
            return Err(TraceError::Corrupt {
                record: 0,
                what: "tenant universe must be at least 1".into(),
            });
        }
        Ok(TraceReader {
            input,
            header: TraceHeader {
                name,
                horizon: SimTime::from_micros(u64::from_le_bytes(horizon)),
                tenants,
            },
            at: SimTime::ZERO,
            next_record: 0,
            done: false,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    fn read_record(&mut self) -> Result<Option<TraceRecord>, TraceError> {
        let idx = self.next_record;
        // EOF exactly between records is the clean end of the stream.
        let mut tag = [0u8; 1];
        match self.input.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(TraceError::Io(e)),
        }
        let op = match tag[0] {
            0 => TraceOp::Get,
            1 => TraceOp::Put,
            t => {
                return Err(TraceError::Corrupt {
                    record: idx,
                    what: format!("reserved tag bits 0x{t:02x}"),
                })
            }
        };
        let dt = read_varint(&mut self.input, idx)?;
        let at_us = self
            .at
            .as_micros()
            .checked_add(dt)
            .ok_or_else(|| TraceError::Corrupt {
                record: idx,
                what: "timestamp overflows u64 microseconds".into(),
            })?;
        let tenant = read_varint(&mut self.input, idx)?;
        let tenant = u16::try_from(tenant).map_err(|_| TraceError::Corrupt {
            record: idx,
            what: format!("tenant {tenant} does not fit u16"),
        })?;
        if tenant >= self.header.tenants {
            return Err(TraceError::Corrupt {
                record: idx,
                what: format!("tenant {tenant} outside universe {}", self.header.tenants),
            });
        }
        let object = read_varint(&mut self.input, idx)?;
        let object = u32::try_from(object).map_err(|_| TraceError::Corrupt {
            record: idx,
            what: format!("object id {object} does not fit u32"),
        })?;
        let size = read_varint(&mut self.input, idx)?;
        self.at = SimTime::from_micros(at_us);
        self.next_record += 1;
        Ok(Some(TraceRecord {
            at: self.at,
            op,
            tenant,
            object,
            size,
        }))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_record() {
            Ok(Some(r)) => Some(Ok(r)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

// ---------------------------------------------------------------------
// In-memory trace
// ---------------------------------------------------------------------

/// A fully-decoded trace: header plus records, the unit the generator
/// produces and the replayers consume. Small traces (tests, the committed
/// sample) live comfortably in memory; bulk pipelines can stay on the
/// streaming [`TraceReader`]/[`TraceWriter`] pair instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceData {
    /// Trace name (from the header).
    pub name: String,
    /// Trace horizon.
    pub horizon: SimTime,
    /// Declared tenant universe.
    pub tenants: u16,
    /// Records in timestamp order.
    pub records: Vec<TraceRecord>,
}

impl TraceData {
    /// Encodes the whole trace to bytes.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceWriter`] errors (non-monotonic records,
    /// out-of-universe tenants).
    pub fn to_bytes(&self) -> Result<Vec<u8>, TraceError> {
        let header = TraceHeader {
            name: self.name.clone(),
            horizon: self.horizon,
            tenants: self.tenants,
        };
        let mut w = TraceWriter::new(Vec::new(), &header)?;
        for r in &self.records {
            w.write(r)?;
        }
        w.finish()
    }

    /// Decodes a whole trace from bytes.
    ///
    /// # Errors
    ///
    /// Any [`TraceError`] the streaming reader reports.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceData, TraceError> {
        let mut reader = TraceReader::new(bytes)?;
        let header = reader.header().clone();
        let mut records = Vec::new();
        for r in reader.by_ref() {
            records.push(r?);
        }
        Ok(TraceData {
            name: header.name,
            horizon: header.horizon,
            tenants: header.tenants,
            records,
        })
    }

    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be read, otherwise any
    /// decode error.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<TraceData, TraceError> {
        let bytes = std::fs::read(path)?;
        TraceData::from_bytes(&bytes)
    }

    /// Writes the trace to a file.
    ///
    /// # Errors
    ///
    /// Encode errors, or [`TraceError::Io`] when the file cannot be
    /// written.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), TraceError> {
        std::fs::write(path, self.to_bytes()?).map_err(TraceError::Io)
    }

    /// Number of GET records.
    pub fn gets(&self) -> usize {
        self.records.iter().filter(|r| r.op == TraceOp::Get).count()
    }

    /// Number of PUT records.
    pub fn puts(&self) -> usize {
        self.records.len() - self.gets()
    }

    /// Bytes of the distinct objects touched (last size wins per object).
    pub fn working_set_bytes(&self) -> u64 {
        let mut sizes = std::collections::BTreeMap::new();
        for r in &self.records {
            sizes.insert((r.tenant, r.object), r.size);
        }
        sizes.values().sum()
    }

    /// Horizon in whole hours, rounded up (at least 1).
    pub fn hours(&self) -> usize {
        ((self.horizon.as_secs_f64() / 3600.0).ceil() as usize).max(1)
    }

    /// Keeps only the first `n` records (the chaos harness replays a
    /// prefix).
    pub fn prefix(&self, n: usize) -> TraceData {
        TraceData {
            name: format!("{}[..{n}]", self.name),
            horizon: self.horizon,
            tenants: self.tenants,
            records: self.records.iter().take(n).copied().collect(),
        }
    }

    /// Keeps only the records of objects strictly larger than `threshold`
    /// bytes — the paper's "large object only" setting uses
    /// [`LARGE_OBJECT_BYTES`](crate::LARGE_OBJECT_BYTES).
    pub fn filter_large(&self, threshold: u64) -> TraceData {
        TraceData {
            name: format!("{}-large", self.name),
            horizon: self.horizon,
            tenants: self.tenants,
            records: self
                .records
                .iter()
                .filter(|r| r.size > threshold)
                .copied()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceData {
        TraceData {
            name: "unit".into(),
            horizon: SimTime::from_secs(3600),
            tenants: 3,
            records: vec![
                TraceRecord {
                    at: SimTime::from_millis(5),
                    op: TraceOp::Put,
                    tenant: 0,
                    object: 7,
                    size: 1234,
                },
                TraceRecord {
                    at: SimTime::from_millis(5),
                    op: TraceOp::Get,
                    tenant: 2,
                    object: 7,
                    size: 1234,
                },
                TraceRecord {
                    at: SimTime::from_secs(1800),
                    op: TraceOp::Get,
                    tenant: 0,
                    object: 0,
                    size: 5_000_000_000,
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_exactly() {
        let t = sample();
        let bytes = t.to_bytes().unwrap();
        let back = TraceData::from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
        // Canonical form: re-encoding the decoded trace is byte-identical.
        assert_eq!(bytes, back.to_bytes().unwrap());
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceData {
            name: String::new(),
            horizon: SimTime::ZERO,
            tenants: 1,
            records: Vec::new(),
        };
        let back = TraceData::from_bytes(&t.to_bytes().unwrap()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn writer_rejects_time_regression() {
        let mut t = sample();
        t.records.swap(1, 2);
        match t.to_bytes() {
            Err(TraceError::NonMonotonic { record: 2 }) => {}
            other => panic!("expected NonMonotonic at record 2, got {other:?}"),
        }
    }

    #[test]
    fn writer_rejects_out_of_universe_tenant() {
        let mut t = sample();
        t.tenants = 1;
        assert!(matches!(
            t.to_bytes(),
            Err(TraceError::Corrupt { record: 1, .. })
        ));
    }

    #[test]
    fn reader_rejects_bad_magic_and_version() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(TraceError::BadMagic(_))
        ));
        let mut bytes = sample().to_bytes().unwrap();
        bytes[4] = 9;
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn reader_reports_truncation_not_panic() {
        let bytes = sample().to_bytes().unwrap();
        // Mid-record cut: the last record's varints are severed.
        let cut = &bytes[..bytes.len() - 2];
        match TraceData::from_bytes(cut) {
            Err(TraceError::Truncated { record: 2 }) => {}
            other => panic!("expected Truncated at record 2, got {other:?}"),
        }
    }

    #[test]
    fn reader_rejects_reserved_tag_bits() {
        let t = TraceData {
            records: sample().records[..1].to_vec(),
            ..sample()
        };
        let mut bytes = t.to_bytes().unwrap();
        let header_len = TraceData {
            records: Vec::new(),
            ..t.clone()
        }
        .to_bytes()
        .unwrap()
        .len();
        let record_start = header_len;
        bytes[record_start] = 0x82;
        assert!(matches!(
            TraceData::from_bytes(&bytes),
            Err(TraceError::Corrupt { record: 0, .. })
        ));
    }

    #[test]
    fn keys_match_workload_naming() {
        assert_eq!(key_for(0, 42).as_str(), "o00000042");
        assert_eq!(key_for(3, 42).as_str(), "t3-o00000042");
    }

    #[test]
    fn prefix_and_counters() {
        let t = sample();
        assert_eq!(t.gets(), 2);
        assert_eq!(t.puts(), 1);
        let p = t.prefix(1);
        assert_eq!(p.records.len(), 1);
        assert_eq!(p.tenants, t.tenants);
        // Three objects: (0,7) and (2,7) are distinct tenants, plus (0,0).
        assert_eq!(t.working_set_bytes(), 1234 + 1234 + 5_000_000_000);
    }
}
