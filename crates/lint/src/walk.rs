//! Workspace walker: every `.rs` file we own, workspace-relative paths.

use std::fs;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, vendored
/// third-party code (not ours to lint), VCS metadata, and the
/// stand-alone `benchmark/` workspace — the yardstick measures the
/// product from outside, with its own clocks, threads and files by
/// design, and is frozen between the PRs it judges.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", ".git", "node_modules", "benchmark"];

/// Collects all `.rs` files under `root`, sorted, as `/`-separated
/// workspace-relative path strings paired with absolute paths.
pub fn rust_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        // wsd-lint: allow(raw-file-io): the walker enumerates the source tree
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_own_sources_and_skips_vendor() {
        // CARGO_MANIFEST_DIR = crates/lint; workspace root is two up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .parent()
            .unwrap();
        let files = rust_files(root).unwrap();
        assert!(files.iter().any(|(rel, _)| rel == "crates/lint/src/walk.rs"));
        assert!(files.iter().all(|(rel, _)| !rel.starts_with("vendor/")));
        assert!(files.iter().all(|(rel, _)| !rel.starts_with("benchmark/")));
        assert!(files.iter().all(|(rel, _)| !rel.contains("/target/")));
    }
}
