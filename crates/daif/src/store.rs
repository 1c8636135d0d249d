//! The in-memory file store: a flat namespace of `/`-separated paths,
//! standing in for a grid file system.

use dais_util::sync::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileStoreError {
    NotFound(String),
    InvalidPath(String),
}

impl std::fmt::Display for FileStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FileStoreError::NotFound(p) => write!(f, "no such file: {p}"),
            FileStoreError::InvalidPath(p) => write!(f, "invalid path: {p}"),
        }
    }
}

impl std::error::Error for FileStoreError {}

/// A thread-safe in-memory file store. Paths are `/`-separated, relative
/// (no leading slash), and sorted for deterministic listings.
#[derive(Clone, Default)]
pub struct FileStore {
    files: Arc<RwLock<BTreeMap<String, Vec<u8>>>>,
}

fn valid_path(path: &str) -> bool {
    !path.is_empty()
        && !path.starts_with('/')
        && !path.ends_with('/')
        && !path.contains("//")
        && !path.contains("..")
        && path.trim() == path
}

impl FileStore {
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Create or overwrite a file. Returns the new size.
    pub fn write(&self, path: &str, contents: Vec<u8>) -> Result<usize, FileStoreError> {
        if !valid_path(path) {
            return Err(FileStoreError::InvalidPath(path.to_string()));
        }
        let size = contents.len();
        self.files.write().insert(path.to_string(), contents);
        Ok(size)
    }

    pub fn read(&self, path: &str) -> Result<Vec<u8>, FileStoreError> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| FileStoreError::NotFound(path.to_string()))
    }

    pub fn delete(&self, path: &str) -> Result<(), FileStoreError> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| FileStoreError::NotFound(path.to_string()))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }

    /// `(path, size)` of every file whose path matches a glob pattern
    /// (`*` = any run within a segment, `**` not supported, `?` = one
    /// character). An empty pattern lists everything.
    pub fn select(&self, pattern: &str) -> Vec<(String, usize)> {
        self.files
            .read()
            .iter()
            .filter(|(p, _)| pattern.is_empty() || glob_match(pattern, p))
            .map(|(p, c)| (p.clone(), c.len()))
            .collect()
    }
}

/// Simple glob matching: `*` matches any run of non-`/` characters,
/// `?` matches one non-`/` character; all else literal.
///
/// The iterative two-pointer match: on a mismatch only the latest `*`
/// takes one more character (never a `/`), so the cost is O(pattern ×
/// path), not exponential in the number of `*`s.
pub fn glob_match(pattern: &str, path: &str) -> bool {
    let p: Vec<char> = pattern.chars().collect();
    let s: Vec<char> = path.chars().collect();
    let (mut pi, mut si) = (0, 0);
    // The latest `*` and the path position its run currently ends at.
    let mut backtrack: Option<(usize, usize)> = None;
    while si < s.len() {
        match p.get(pi) {
            Some('*') => {
                backtrack = Some((pi, si));
                pi += 1;
            }
            Some(&c) if c == s[si] || (c == '?' && s[si] != '/') => {
                pi += 1;
                si += 1;
            }
            _ => match backtrack.as_mut() {
                Some((star, end)) if s[*end] != '/' => {
                    *end += 1;
                    (pi, si) = (*star + 1, *end);
                }
                _ => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == '*')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_delete() {
        let fs = FileStore::new();
        assert_eq!(fs.write("a/b.txt", b"hello".to_vec()).unwrap(), 5);
        assert_eq!(fs.read("a/b.txt").unwrap(), b"hello");
        assert!(fs.exists("a/b.txt"));
        fs.write("a/b.txt", b"bye".to_vec()).unwrap(); // overwrite
        assert_eq!(fs.read("a/b.txt").unwrap(), b"bye");
        fs.delete("a/b.txt").unwrap();
        assert_eq!(fs.read("a/b.txt"), Err(FileStoreError::NotFound("a/b.txt".into())));
        assert_eq!(fs.delete("a/b.txt"), Err(FileStoreError::NotFound("a/b.txt".into())));
    }

    #[test]
    fn path_validation() {
        let fs = FileStore::new();
        for bad in ["", "/abs", "trail/", "a//b", "a/../b", " pad"] {
            assert!(matches!(fs.write(bad, vec![]), Err(FileStoreError::InvalidPath(_))), "{bad}");
        }
    }

    #[test]
    fn glob_selection() {
        let fs = FileStore::new();
        for p in ["data/a.csv", "data/b.csv", "data/a.json", "logs/x.csv"] {
            fs.write(p, vec![0; 3]).unwrap();
        }
        let csvs = fs.select("data/*.csv");
        assert_eq!(csvs.len(), 2);
        assert_eq!(csvs[0].0, "data/a.csv"); // sorted
        assert_eq!(fs.select("*/a.*").len(), 2);
        assert_eq!(fs.select("data/?.csv").len(), 2);
        assert_eq!(fs.select("").len(), 4);
        // '*' does not cross '/'.
        assert_eq!(fs.select("*.csv").len(), 0);
    }

    #[test]
    fn glob_edge_cases() {
        assert!(glob_match("a*c", "abc"));
        assert!(glob_match("a*c", "ac"));
        assert!(!glob_match("a*c", "a/c"));
        assert!(glob_match("*", "abc"));
        assert!(!glob_match("*", "a/b"));
        assert!(glob_match("a/*/c", "a/b/c"));
        assert!(!glob_match("?", ""));
    }

    /// The recursive matcher `glob_match` replaced: exponential in the
    /// number of `*`s, but plainly the definition.
    fn glob_reference(p: &[char], s: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('*') => {
                let mut i = 0;
                loop {
                    if glob_reference(&p[1..], &s[i..]) {
                        return true;
                    }
                    if i >= s.len() || s[i] == '/' {
                        return false;
                    }
                    i += 1;
                }
            }
            Some('?') => !s.is_empty() && s[0] != '/' && glob_reference(&p[1..], &s[1..]),
            Some(&c) => s.first() == Some(&c) && glob_reference(&p[1..], &s[1..]),
        }
    }

    #[test]
    fn glob_match_agrees_with_the_recursive_reference() {
        dais_util::prop::run_cases("glob_match", 4000, 0x610B, |g| {
            let path = g.string_from("ab/", 0, 8);
            let pattern = g.string_from("ab/*?", 0, 7);
            let p: Vec<char> = pattern.chars().collect();
            let s: Vec<char> = path.chars().collect();
            assert_eq!(
                glob_match(&pattern, &path),
                glob_reference(&p, &s),
                "{pattern:?} ~ {path:?}"
            );
        });
    }

    /// Ten `*a` then `*b` against forty `a`s: the recursive matcher tried
    /// every split point of every `*` and took seconds; this is one short
    /// scan.
    #[test]
    fn many_wildcards_match_in_polynomial_time() {
        let fs = FileStore::new();
        fs.write(&"a".repeat(40), b"x".to_vec()).unwrap();
        let pattern = format!("{}*b", "*a".repeat(10));
        let started = std::time::Instant::now();
        assert!(fs.select(&pattern).is_empty());
        assert!(started.elapsed() < std::time::Duration::from_secs(1), "{:?}", started.elapsed());
    }
}
