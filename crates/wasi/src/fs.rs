//! The virtual filesystem: preopened directory roots with per-directory
//! rights, backed either by host directories or by a shared in-memory
//! store.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::errno::Errno;

/// Rights attached to a preopened directory (a coarse rendering of the
/// WASI rights bitsets, which is all the embedder's `-d`/`-d-ro` flags
/// need).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rights {
    pub read: bool,
    pub write: bool,
}

impl Rights {
    pub const READ_ONLY: Rights = Rights { read: true, write: false };
    pub const READ_WRITE: Rights = Rights { read: true, write: true };
}

/// An in-memory file shared between all handles that open it.
pub type MemFile = Arc<RwLock<Vec<u8>>>;

/// Directory backend.
pub enum DirBackend {
    /// Shared in-memory directory: file name → contents. Used by tests,
    /// the IOR guest, and any run that should not touch the host disk.
    Memory(Mutex<HashMap<String, MemFile>>),
    /// A host directory. Guest paths resolve strictly beneath it.
    Host(PathBuf),
}

impl std::fmt::Debug for DirBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirBackend::Memory(m) => write!(f, "Memory({} files)", m.lock().len()),
            DirBackend::Host(p) => write!(f, "Host({})", p.display()),
        }
    }
}

/// One preopened directory: the guest-visible name (always a direct child
/// of the virtual root, hiding the host path per §3.4), its rights, and
/// its backend.
#[derive(Debug)]
pub struct Preopen {
    pub guest_name: String,
    pub rights: Rights,
    pub backend: DirBackend,
}

/// The filesystem shared by every rank of a job. Cloning shares state.
#[derive(Clone, Debug)]
pub struct SharedFs {
    preopens: Arc<Vec<Preopen>>,
}

/// An opened file handle.
pub enum FileHandle {
    Mem(MemFile),
    Host(std::fs::File),
}

impl std::fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileHandle::Mem(_) => write!(f, "FileHandle::Mem"),
            FileHandle::Host(_) => write!(f, "FileHandle::Host"),
        }
    }
}

impl SharedFs {
    /// Build a filesystem from preopens. Guest names are sanitized to
    /// simple path components.
    pub fn new(preopens: Vec<Preopen>) -> SharedFs {
        SharedFs { preopens: Arc::new(preopens) }
    }

    /// Convenience: one writable in-memory preopen named `/data`.
    pub fn memory() -> SharedFs {
        SharedFs::new(vec![Preopen {
            guest_name: "data".into(),
            rights: Rights::READ_WRITE,
            backend: DirBackend::Memory(Mutex::new(HashMap::new())),
        }])
    }

    /// Convenience: preopen a host directory under a virtual name
    /// (the embedder's `-d` flag).
    pub fn host_dir(guest_name: &str, host_path: impl Into<PathBuf>, rights: Rights) -> SharedFs {
        SharedFs::new(vec![Preopen {
            guest_name: guest_name.trim_matches('/').to_string(),
            rights,
            backend: DirBackend::Host(host_path.into()),
        }])
    }

    pub fn preopens(&self) -> &[Preopen] {
        &self.preopens
    }

    /// Validate a guest-relative path: plain components only; `..`,
    /// absolute paths, and empty components are rejected — this is the
    /// escape-prevention check.
    fn sanitize(path: &str) -> Result<Vec<&str>, Errno> {
        if path.starts_with('/') {
            return Err(Errno::Notcapable);
        }
        let mut parts = Vec::new();
        for comp in path.split('/') {
            match comp {
                "" | "." => continue,
                ".." => return Err(Errno::Notcapable),
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            return Err(Errno::Inval);
        }
        Ok(parts)
    }

    /// Open `path` relative to preopen index `dir`, honoring rights.
    /// `create` requires write rights; `trunc` empties an existing file.
    pub fn open(
        &self,
        dir: usize,
        path: &str,
        create: bool,
        trunc: bool,
        write: bool,
    ) -> Result<FileHandle, Errno> {
        let preopen = self.preopens.get(dir).ok_or(Errno::Badf)?;
        if write && !preopen.rights.write {
            return Err(Errno::Notcapable);
        }
        if !write && !preopen.rights.read {
            return Err(Errno::Notcapable);
        }
        if (create || trunc) && !preopen.rights.write {
            return Err(Errno::Notcapable);
        }
        let parts = Self::sanitize(path)?;
        match &preopen.backend {
            DirBackend::Memory(files) => {
                // The in-memory backend is flat; nested paths are joined.
                let key = parts.join("/");
                let mut files = files.lock();
                match files.get(&key) {
                    Some(f) => {
                        if trunc {
                            f.write().clear();
                        }
                        Ok(FileHandle::Mem(Arc::clone(f)))
                    }
                    None if create => {
                        let f: MemFile = Arc::new(RwLock::new(Vec::new()));
                        files.insert(key, Arc::clone(&f));
                        Ok(FileHandle::Mem(f))
                    }
                    None => Err(Errno::Noent),
                }
            }
            DirBackend::Host(root) => {
                let mut full = root.clone();
                for p in &parts {
                    full.push(p);
                }
                // Defense in depth: the joined path must stay under root.
                if !full.starts_with(root) {
                    return Err(Errno::Notcapable);
                }
                let mut opts = std::fs::OpenOptions::new();
                opts.read(true);
                if write {
                    opts.write(true);
                }
                if create {
                    opts.create(true);
                }
                if trunc {
                    opts.truncate(true);
                }
                opts.open(&full).map(FileHandle::Host).map_err(|e| match e.kind() {
                    std::io::ErrorKind::NotFound => Errno::Noent,
                    std::io::ErrorKind::PermissionDenied => Errno::Acces,
                    _ => Errno::Io,
                })
            }
        }
    }

    /// Look up a preopen by guest name.
    pub fn preopen_index(&self, guest_name: &str) -> Option<usize> {
        let name = guest_name.trim_matches('/');
        self.preopens.iter().position(|p| p.guest_name == name)
    }

    /// Total bytes stored in in-memory backends (diagnostics, IOR checks).
    pub fn memory_usage(&self) -> usize {
        self.preopens
            .iter()
            .map(|p| match &p.backend {
                DirBackend::Memory(files) => {
                    files.lock().values().map(|f| f.read().len()).sum()
                }
                DirBackend::Host(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_rejects_escapes() {
        assert!(SharedFs::sanitize("/etc/passwd").is_err());
        assert!(SharedFs::sanitize("../secret").is_err());
        assert!(SharedFs::sanitize("a/../../b").is_err());
        assert!(SharedFs::sanitize("").is_err());
        assert_eq!(SharedFs::sanitize("a/./b//c").unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn memory_create_write_reopen() {
        let fs = SharedFs::memory();
        let f = fs.open(0, "out.dat", true, false, true).unwrap();
        match f {
            FileHandle::Mem(m) => m.write().extend_from_slice(b"hello"),
            _ => unreachable!(),
        }
        // Reopen without create sees the same bytes.
        match fs.open(0, "out.dat", false, false, false).unwrap() {
            FileHandle::Mem(m) => assert_eq!(&*m.read(), b"hello"),
            _ => unreachable!(),
        }
        assert_eq!(fs.memory_usage(), 5);
    }

    #[test]
    fn missing_file_without_create_is_noent() {
        let fs = SharedFs::memory();
        assert_eq!(fs.open(0, "nope", false, false, false).unwrap_err(), Errno::Noent);
    }

    #[test]
    fn truncate_clears_contents() {
        let fs = SharedFs::memory();
        if let FileHandle::Mem(m) = fs.open(0, "f", true, false, true).unwrap() {
            m.write().extend_from_slice(b"data");
        }
        fs.open(0, "f", false, true, true).unwrap();
        if let FileHandle::Mem(m) = fs.open(0, "f", false, false, false).unwrap() {
            assert!(m.read().is_empty());
        }
    }

    #[test]
    fn read_only_preopen_blocks_writes() {
        let fs = SharedFs::new(vec![Preopen {
            guest_name: "ro".into(),
            rights: Rights::READ_ONLY,
            backend: DirBackend::Memory(Mutex::new(HashMap::new())),
        }]);
        assert_eq!(fs.open(0, "f", true, false, true).unwrap_err(), Errno::Notcapable);
        // Creating via read path is also rejected.
        assert_eq!(fs.open(0, "f", true, false, false).unwrap_err(), Errno::Notcapable);
    }

    #[test]
    fn bad_preopen_index_is_badf() {
        let fs = SharedFs::memory();
        assert_eq!(fs.open(7, "f", true, false, true).unwrap_err(), Errno::Badf);
    }

    #[test]
    fn host_backend_respects_root() {
        let dir = std::env::temp_dir().join(format!("wasi-fs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("inside.txt"), b"ok").unwrap();
        let fs = SharedFs::host_dir("data", &dir, Rights::READ_WRITE);
        assert!(fs.open(0, "inside.txt", false, false, false).is_ok());
        assert_eq!(fs.open(0, "../outside", false, false, false).unwrap_err(), Errno::Notcapable);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn preopen_lookup_by_name() {
        let fs = SharedFs::memory();
        assert_eq!(fs.preopen_index("data"), Some(0));
        assert_eq!(fs.preopen_index("/data"), Some(0));
        assert_eq!(fs.preopen_index("other"), None);
    }

    #[test]
    fn shared_between_clones() {
        let fs = SharedFs::memory();
        let fs2 = fs.clone();
        if let FileHandle::Mem(m) = fs.open(0, "shared", true, false, true).unwrap() {
            m.write().push(42);
        }
        if let FileHandle::Mem(m) = fs2.open(0, "shared", false, false, false).unwrap() {
            assert_eq!(&*m.read(), &[42]);
        }
    }
}
