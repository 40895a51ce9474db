//! Crash-safe file I/O: atomic writes, the CRC-framed record format of
//! weights, checkpoints and loop state, and the two hashes (CRC-32,
//! FNV-1a) behind them.
//!
//! [`atomic_write`] is the one sanctioned way to persist state in this
//! workspace (stgnn-sound's L006 flags raw `File::create` on persistence
//! paths). It guarantees a reader — including a process that comes back
//! after a crash — observes either the complete previous file or the
//! complete new one, never a prefix, by writing to a temp sibling,
//! fsyncing, and renaming over the destination (rename within a directory
//! is atomic on POSIX filesystems).
//!
//! The helper is itself instrumented with failpoints
//! (`atomic_write::create` / `::write` / `::fsync` / `::rename`) so chaos
//! tests can script a torn write at any stage and assert the destination
//! survives intact.
//!
//! ## Records
//!
//! Training checkpoints (`stgnn-ckpt v2`), model weights (`stgnn-params
//! v2`) and the online loop's state (`stgnn-online v1`) are one format:
//!
//! ```text
//! <family> v<version>\n
//! crc32 <8 hex> len <payload bytes>\n
//! <payload>
//! ```
//!
//! [`frame`] writes it and [`unframe`] checks it. Every defect is a typed
//! [`RecordError`]: a payload shorter than `len` is truncated, one longer
//! is malformed, a wrong CRC-32 is a checksum mismatch, and another version
//! of the same family is version skew. The payload is `key value` lines,
//! read back in the order they were written through [`Fields`]; floats are
//! stored as IEEE-754 bit patterns in hex, so nothing is lost to decimal.

use std::fmt::{self, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Writes a file atomically: `fill` streams the content into a buffered
/// temp sibling, which is fsynced and renamed over `path`. On any error
/// the temp file is removed and the previous `path` content (if any) is
/// left untouched.
pub fn atomic_write<P, F>(path: P, fill: F) -> io::Result<()>
where
    P: AsRef<Path>,
    F: FnOnce(&mut dyn Write) -> io::Result<()>,
{
    let path = path.as_ref();
    let tmp = temp_sibling(path);
    let result = (|| -> io::Result<()> {
        crate::failpoint!("atomic_write::create", io);
        // sound: allow(L006): ATOMIC-WRITER-ITSELF — this is the atomic writer.
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        crate::failpoint!("atomic_write::write", io);
        fill(&mut writer)?;
        writer.flush()?;
        crate::failpoint!("atomic_write::fsync", io);
        writer.get_ref().sync_all()?;
        drop(writer);
        crate::failpoint!("atomic_write::rename", io);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// A temp path in the same directory as `path` (rename is only atomic
/// within a filesystem), unique per process and per call so concurrent
/// writers of different files never collide.
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy())
        .unwrap_or_default();
    path.with_file_name(format!(".{name}.tmp.{pid}.{n}"))
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the same
/// checksum as gzip/zlib, table-built at compile time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The 64-bit FNV-1a offset basis: the state a new hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the 64-bit FNV-1a `state` (start at [`FNV_OFFSET`]).
/// Ring placements and graph fingerprints depend on it bit for bit, so it
/// must stay the classic function on every platform and build.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Why a persisted record could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The file ends before the payload length the header promises.
    Truncated {
        /// Payload bytes the header declared.
        expected: usize,
        /// Payload bytes present.
        actual: usize,
    },
    /// The payload does not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC the header declared.
        expected: u32,
        /// CRC of the payload present.
        actual: u32,
    },
    /// The first line names another version of the same format family.
    VersionSkew {
        /// The first line found.
        found: String,
    },
    /// Anything else: another format, a bad header, bytes after the
    /// payload, or a payload that does not parse.
    Malformed(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated { expected, actual } => write!(
                f,
                "truncated: header promises {expected} payload bytes, found {actual}"
            ),
            RecordError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: header says {expected:08x}, payload hashes to {actual:08x}"
            ),
            RecordError::VersionSkew { found } => {
                write!(f, "version skew: unsupported format {found:?}")
            }
            RecordError::Malformed(msg) => write!(f, "malformed: {msg}"),
        }
    }
}

impl std::error::Error for RecordError {}

fn malformed(msg: impl Into<String>) -> RecordError {
    RecordError::Malformed(msg.into())
}

/// Writes one record: the `magic` line, the `crc32 … len …` header, then
/// `payload`, which goes to `w` as it is, without a framed copy.
pub fn frame(w: &mut dyn Write, magic: &str, payload: &[u8]) -> io::Result<()> {
    let crc = crc32(payload);
    write!(w, "{magic}\ncrc32 {crc:08x} len {}\n", payload.len())?;
    w.write_all(payload)
}

/// Checks one record written by [`frame`] with the same `magic` — the
/// length first, then the CRC-32 — and returns a reader over its payload.
pub fn unframe<'a>(bytes: &'a [u8], magic: &str) -> Result<Fields<'a>, RecordError> {
    let (first, rest) = split_line(bytes).ok_or_else(|| malformed("no magic line"))?;
    if first != magic.as_bytes() {
        let found = String::from_utf8_lossy(first).into_owned();
        let family = magic.rsplit_once(' ').map_or(magic, |(family, _)| family);
        return Err(match found.strip_prefix(family) {
            Some(version) if version.starts_with(' ') => RecordError::VersionSkew { found },
            _ => malformed(format!("not a {family} record (first line {found:?})")),
        });
    }
    let (header, payload) = split_line(rest).ok_or_else(|| malformed("no crc32 header line"))?;
    let header = String::from_utf8_lossy(header);
    let parsed = match header.split_whitespace().collect::<Vec<_>>()[..] {
        ["crc32", crc, "len", len] => u32::from_str_radix(crc, 16).ok().zip(decimal(len)),
        _ => None,
    };
    let (expected, len): (u32, usize) =
        parsed.ok_or_else(|| malformed(format!("bad crc32 header {header:?}")))?;
    if payload.len() < len {
        return Err(RecordError::Truncated {
            expected: len,
            actual: payload.len(),
        });
    }
    if payload.len() > len {
        return Err(malformed(format!(
            "{} bytes after the {len}-byte payload",
            payload.len() - len
        )));
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(RecordError::ChecksumMismatch { expected, actual });
    }
    let text = std::str::from_utf8(payload).map_err(|_| malformed("payload is not UTF-8"))?;
    Ok(Fields {
        lines: text.lines(),
    })
}

fn split_line(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    Some((bytes.get(..nl)?, bytes.get(nl + 1..)?))
}

/// Appends a count-prefixed list line, `key n v1 … vn`.
pub fn push_list<T: fmt::Display>(
    out: &mut String,
    key: &str,
    values: impl ExactSizeIterator<Item = T>,
) {
    let _ = write!(out, "{key} {}", values.len());
    for v in values {
        let _ = write!(out, " {v}");
    }
    out.push('\n');
}

/// An `f32` written as its bit pattern in 8 hex digits ([`f32_bits`]
/// reads it back).
pub struct Bits(pub f32);

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", self.0.to_bits())
    }
}

/// Appends an RNG state line, `key` and four words of 16 hex digits.
pub fn push_rng(out: &mut String, key: &str, [a, b, c, d]: [u64; 4]) {
    let _ = writeln!(out, "{key} {a:016x} {b:016x} {c:016x} {d:016x}");
}

/// Parses a decimal value.
pub fn decimal<T: FromStr>(word: &str) -> Option<T> {
    word.parse().ok()
}

/// Parses an `f32` from its bit pattern in hex.
pub fn f32_bits(word: &str) -> Option<f32> {
    u32::from_str_radix(word, 16).ok().map(f32::from_bits)
}

/// Parses an `f64` from its bit pattern in hex.
pub fn f64_bits(word: &str) -> Option<f64> {
    u64::from_str_radix(word, 16).ok().map(f64::from_bits)
}

/// Parses the four hex words [`push_rng`] writes.
pub fn rng_words(value: &str) -> Option<[u64; 4]> {
    let words: Vec<u64> = value
        .split_whitespace()
        .map(|w| u64::from_str_radix(w, 16).ok())
        .collect::<Option<_>>()?;
    words.try_into().ok()
}

/// Reads a record payload's lines in the order they were written (see
/// [`unframe`]). Nothing is sized from a count in the payload: a hostile
/// count runs into the end of the payload instead.
pub struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Fields<'a> {
    /// The next line; `what` names it if the payload has ended.
    pub fn next_line(&mut self, what: &str) -> Result<&'a str, RecordError> {
        self.lines
            .next()
            .ok_or_else(|| malformed(format!("payload ends before {what}")))
    }

    /// The value of the next line, which must read `key value`.
    pub fn field(&mut self, key: &str) -> Result<&'a str, RecordError> {
        let line = self.next_line(key)?;
        line.strip_prefix(key)
            .and_then(|v| v.strip_prefix(' '))
            .ok_or_else(|| malformed(format!("expected a {key} line, found {line:?}")))
    }

    /// The next `key value` line's value, read by `parse`.
    pub fn value<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, RecordError> {
        let value = self.field(key)?;
        parse(value).ok_or_else(|| malformed(format!("bad {key} value {value:?}")))
    }

    /// The next count-prefixed list line ([`push_list`]), each value read
    /// by `parse`; the count must match the values present.
    pub fn list<T>(
        &mut self,
        key: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, RecordError> {
        self.value(key, |value| {
            let mut words = value.split_whitespace();
            let n: usize = decimal(words.next()?)?;
            let values: Vec<T> = words.map(parse).collect::<Option<_>>()?;
            (values.len() == n).then_some(values)
        })
    }

    /// Succeeds only if every line has been read.
    pub fn finish(mut self) -> Result<(), RecordError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(malformed(format!(
                "unexpected line {line:?} after the last field"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scoped, FaultPlan, FaultSpec, Trigger};

    fn tmp_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("stgnn-faults-fsio-{}-{label}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Reference values from the IEEE CRC-32 check ("123456789") and zlib.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    const MAGIC: &str = "test-record v1";

    fn framed(payload: &str) -> Vec<u8> {
        let mut bytes = Vec::new();
        frame(&mut bytes, MAGIC, payload.as_bytes()).unwrap();
        bytes
    }

    #[test]
    fn frame_round_trips_and_every_defect_is_typed() {
        let bytes = framed("a 7\nb 2 3 4\n");
        assert_eq!(
            bytes,
            format!(
                "{MAGIC}\ncrc32 {:08x} len 12\na 7\nb 2 3 4\n",
                crc32(b"a 7\nb 2 3 4\n")
            )
            .as_bytes()
        );
        let mut r = unframe(&bytes, MAGIC).unwrap();
        assert_eq!(r.value("a", decimal::<u32>), Ok(7));
        assert_eq!(r.list("b", decimal::<u32>), Ok(vec![3, 4]));
        assert_eq!(r.finish(), Ok(()));

        let n = bytes.len();
        let defect = |bytes: &[u8], magic: &str| unframe(bytes, magic).err().unwrap();
        assert_eq!(
            defect(&bytes[..n - 1], MAGIC),
            RecordError::Truncated {
                expected: 12,
                actual: 11
            }
        );
        let mut longer = bytes.clone();
        longer.push(b'\n');
        assert!(matches!(defect(&longer, MAGIC), RecordError::Malformed(_)));
        let mut flipped = bytes.clone();
        flipped[n - 2] ^= 0x01;
        assert!(matches!(
            defect(&flipped, MAGIC),
            RecordError::ChecksumMismatch { .. }
        ));
        assert_eq!(
            defect(&bytes, "test-record v2"),
            RecordError::VersionSkew {
                found: MAGIC.into()
            }
        );
        for (bytes, magic) in [
            (&bytes[..], "other-record v1"),
            (&bytes[..], "test-recordx v1"),
            (&bytes[..5], MAGIC),
            (b"test-record v1\ncrc32 00000000 len\n", MAGIC),
            (b"test-record v1\ncrc32 00000000 len 0 0\n", MAGIC),
            (b"test-record v1\ncrc32 00000000 len 0\n\xff", MAGIC),
        ] {
            assert!(
                matches!(defect(bytes, magic), RecordError::Malformed(_)),
                "{bytes:?}"
            );
        }
        assert_eq!(
            defect(b"test-record v1\ncrc32 00000000 len 5\n", MAGIC),
            RecordError::Truncated {
                expected: 5,
                actual: 0
            }
        );
    }

    #[test]
    fn fields_must_come_in_order_with_their_counts() {
        let bytes = framed("a 7\nb 3 1 2\nc\nd 0\n");
        let mut r = unframe(&bytes, MAGIC).unwrap();
        assert!(r.value("b", decimal::<u32>).is_err(), "a read as b");
        assert!(
            r.list("b", decimal::<u32>).is_err(),
            "3 values promised, 2 present"
        );
        assert!(r.field("c").is_err(), "no value");
        assert!(r.finish().is_err(), "a line left unread");
        let mut r = unframe(&bytes, MAGIC).unwrap();
        for key in ["a", "b", "c", "d"] {
            r.next_line(key).unwrap();
        }
        assert!(r.next_line("e").is_err());
        let rng = [1, u64::MAX, 0xdead_beef, 42];
        let mut out = String::new();
        push_rng(&mut out, "rng", rng);
        push_list(
            &mut out,
            "bits",
            [Bits(-0.0), Bits(f32::from_bits(0x7fc0_0001))].into_iter(),
        );
        let bytes = framed(&out);
        let mut r = unframe(&bytes, MAGIC).unwrap();
        assert_eq!(r.value("rng", rng_words), Ok(rng));
        let bits = r.list("bits", f32_bits).unwrap();
        assert_eq!(
            bits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            [0x8000_0000, 0x7fc0_0001]
        );
    }

    #[test]
    fn fnv_vectors_are_pinned() {
        // Classic FNV-1a reference vectors: placements must survive any
        // refactor of the hash, so the constants are pinned bit-for-bit.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_replaces_content() {
        // Every test here crosses the `atomic_write::*` sites, which
        // `failed_write_leaves_previous_file_and_no_temp` arms process-wide:
        // hold the registry guard (an empty plan injects nothing).
        let _quiet = scoped(FaultPlan::new());
        let path = tmp_dir("replace").join("replace.txt");
        atomic_write(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, |w| w.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
    }

    #[test]
    fn failed_write_leaves_previous_file_and_no_temp() {
        let dir = tmp_dir("torn");
        let path = dir.join("torn.txt");
        atomic_write(&path, |w| w.write_all(b"intact")).unwrap();

        for site in [
            "atomic_write::create",
            "atomic_write::write",
            "atomic_write::fsync",
            "atomic_write::rename",
        ] {
            let _s = scoped(FaultPlan::new().with(site, FaultSpec::io(Trigger::EveryHit)));
            let err = atomic_write(&path, |w| w.write_all(b"torn!!")).unwrap_err();
            assert!(err.to_string().contains(site), "{err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                b"intact",
                "previous content must survive a fault at {site}"
            );
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    #[test]
    fn fill_error_propagates_and_cleans_up() {
        let _quiet = scoped(FaultPlan::new());
        let path = tmp_dir("fill-err").join("fill-err.txt");
        let err = atomic_write(&path, |_| Err(io::Error::other("fill failed"))).unwrap_err();
        assert!(err.to_string().contains("fill failed"));
        assert!(!path.exists());
    }
}
