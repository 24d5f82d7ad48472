//! Crash-safe file creation: write through a staging sibling, fsync, atomically rename.
//!
//! A cache entry whose writer dies mid-write (crash, OOM kill, ^C) must never leave
//! a half-written file at the *final* path, where a later lookup would read it.
//! [`AtomicFile`] gives the writer the standard durability discipline:
//!
//! 1. All bytes go to a staging file in the destination directory (same filesystem,
//!    so the rename in step 3 is atomic).
//! 2. [`AtomicFile::commit`] flushes, `fsync`s the file, then
//! 3. renames the staging file onto the final path and `fsync`s the parent
//!    directory so the rename itself survives a power cut.
//!
//! If the process dies before `commit`, the final path is untouched and the staging
//! file is left behind, where no lookup reads it.  Dropping an uncommitted
//! `AtomicFile` deletes the staging file, so error paths that unwind do not litter
//! the directory.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A [`Write`] implementation with rename-on-commit durability (see module docs).
///
/// Buffered with a 1 MiB window, so an entry of a few MB is written in a handful of
/// syscalls rather than one per 8 KB.
#[derive(Debug)]
pub struct AtomicFile {
    /// `None` only transiently inside [`AtomicFile::commit`].
    inner: Option<BufWriter<File>>,
    tmp: PathBuf,
    dest: PathBuf,
    committed: bool,
}

impl AtomicFile {
    /// Start writing `dest` through the staging file `tmp` (created truncating), which
    /// must sit in `dest`'s directory.  Writers that may race on one destination each
    /// pass a unique `tmp`, so none truncates or renames another's staged bytes.
    pub fn create_staged(dest: &Path, tmp: PathBuf) -> io::Result<AtomicFile> {
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            inner: Some(BufWriter::with_capacity(1 << 20, file)),
            tmp,
            dest: dest.to_path_buf(),
            committed: false,
        })
    }

    /// Flush and `fsync` the staged bytes, atomically rename them onto the final
    /// path, and `fsync` the parent directory.  On error the temp file is removed
    /// and the final path is left untouched.
    pub fn commit(mut self) -> io::Result<()> {
        failpoint::point!("durable/commit", |msg: String| Err(io::Error::other(msg)));
        let writer = self.inner.take().expect("writer present until commit");
        let file = writer.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        fs::rename(&self.tmp, &self.dest)?;
        self.committed = true;
        if let Some(dir) = self.dest.parent().filter(|d| !d.as_os_str().is_empty()) {
            sync_dir(dir)?;
        }
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.as_mut().expect("writer present until commit").write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.as_mut().expect("writer present until commit").flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        if !self.committed {
            // Release the buffered handle first so the unlink happens on a closed
            // file; ignore errors — drop cleanup is best-effort by construction
            // (a SIGKILL skips it entirely, leaving a staging file nothing reads).
            self.inner.take();
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Durability for the rename itself: `fsync` the directory on Unix (directory
/// handles are not fsync-able on other platforms; the file data is still synced).
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xp-durable-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn create(dest: &Path) -> AtomicFile {
        let mut name = dest.file_name().unwrap().to_os_string();
        name.push(".tmp");
        AtomicFile::create_staged(dest, dest.with_file_name(name)).unwrap()
    }

    #[test]
    fn commit_publishes_exactly_the_written_bytes() {
        let dir = temp_dir("commit");
        let dest = dir.join("out.bin");
        let mut file = create(&dest);
        file.write_all(b"hello cell").unwrap();
        assert!(!dest.exists(), "nothing at the final path before commit");
        file.commit().unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"hello cell");
        assert!(!dest.with_file_name("out.bin.tmp").exists(), "temp renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_uncommitted_removes_the_temp_and_leaves_dest_alone() {
        let dir = temp_dir("drop");
        let dest = dir.join("out.bin");
        fs::write(&dest, b"previous run").unwrap();
        {
            let mut file = create(&dest);
            file.write_all(b"half a cell").unwrap();
        }
        assert_eq!(fs::read(&dest).unwrap(), b"previous run", "final path untouched");
        assert!(!dir.join("out.bin.tmp").exists(), "temp cleaned up on drop");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_replaces_an_existing_destination() {
        let dir = temp_dir("replace");
        let dest = dir.join("out.bin");
        fs::write(&dest, b"old").unwrap();
        let mut file = create(&dest);
        file.write_all(b"new").unwrap();
        file.commit().unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"new");
        fs::remove_dir_all(&dir).unwrap();
    }
}
