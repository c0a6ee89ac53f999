//! The host record every output carries: CPU count, commit and a digest
//! of the simulator's sources.

use std::path::{Path, PathBuf};

use crate::check::Fnv;

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

/// Host CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git;
/// `"none"` outside a git checkout.
pub fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "none".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of every file under `crates/`, in path order: identifies
/// the measured code where no commit is recorded.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let crates = root.join("crates");
    let mut files = Vec::new();
    walk(&crates, &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        let rel = f.strip_prefix(&crates).unwrap_or(&f);
        h.bytes(rel.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.hex()
}
