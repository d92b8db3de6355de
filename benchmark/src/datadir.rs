//! Scratch directories under `benchmark/out/`: one per use, removed on exit
//! and on panic, with leftovers of killed runs swept at start.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

const PREFIX: &str = "spindle-benchmark-";

/// `benchmark/out/`, the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory that removes itself when dropped.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// Creates `out/spindle-benchmark-<pid>-<n>-<tag>`.
    pub fn create(tag: &str) -> io::Result<DataDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{PREFIX}{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes held by the files under the directory.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(rd) = std::fs::read_dir(dir) else {
                return 0;
            };
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.path)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes scratch directories whose owning process no longer exists.
pub fn sweep_stale() {
    let Ok(rd) = std::fs::read_dir(out_dir()) else {
        return;
    };
    for entry in rd.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(PREFIX)) else {
            continue;
        };
        let owner_alive = rest
            .split('-')
            .next()
            .and_then(|pid| pid.parse::<u32>().ok())
            .is_some_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
        if !owner_alive {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}
