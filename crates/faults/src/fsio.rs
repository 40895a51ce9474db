//! Crash-safe file I/O: atomic writes and CRC32 checksums.
//!
//! [`atomic_write`] is the one sanctioned way to persist state in this
//! workspace (stgnn-lint L006 flags raw `File::create` on persistence
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

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
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
        // lint: allow(L006) — this is the atomic writer itself.
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
