//! Normalized absolute paths for the DFS namespace.

use std::fmt;

use crate::error::{FsError, FsResult};

/// An absolute, normalized path in a DFS namespace: starts with `/`, no
/// empty/`.`/`..` components, no trailing slash (except the root itself).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DfsPath {
    // Invariant: "/" or "/a/b/c" with validated components.
    repr: String,
}

impl DfsPath {
    /// The root directory `/`.
    pub fn root() -> DfsPath {
        DfsPath { repr: "/".into() }
    }

    /// Parse and normalize. Rejects relative paths, empty components and
    /// `.`/`..` segments.
    pub fn new(s: &str) -> FsResult<DfsPath> {
        if !s.starts_with('/') {
            return Err(FsError::InvalidPath {
                path: s.to_string(),
                reason: "path must be absolute".into(),
            });
        }
        let mut parts = Vec::new();
        for comp in s.split('/') {
            match comp {
                "" => {} // collapse duplicate slashes / leading slash
                "." | ".." => {
                    return Err(FsError::InvalidPath {
                        path: s.to_string(),
                        reason: "'.' and '..' components are not allowed".into(),
                    })
                }
                c => parts.push(c),
            }
        }
        let repr = if parts.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", parts.join("/"))
        };
        Ok(DfsPath { repr })
    }

    /// Child path `self/name`.
    pub fn child(&self, name: &str) -> FsResult<DfsPath> {
        if name.is_empty() || name.contains('/') || name == "." || name == ".." {
            return Err(FsError::InvalidPath {
                path: name.to_string(),
                reason: "invalid child component".into(),
            });
        }
        Ok(if self.is_root() {
            DfsPath {
                repr: format!("/{name}"),
            }
        } else {
            DfsPath {
                repr: format!("{}/{name}", self.repr),
            }
        })
    }

    /// Parent directory; `None` for the root.
    #[expect(
        clippy::unreachable,
        reason = "repr is absolute by construction: every constructor normalizes to a leading '/', so rfind finds one"
    )]
    pub(crate) fn parent(&self) -> Option<DfsPath> {
        if self.is_root() {
            return None;
        }
        match self.repr.rfind('/') {
            Some(0) => Some(DfsPath::root()),
            Some(i) => Some(DfsPath {
                repr: self.repr[..i].to_string(),
            }),
            None => unreachable!("invariant: absolute"),
        }
    }

    /// Final component; `None` for the root.
    pub fn name(&self) -> Option<&str> {
        if self.is_root() {
            None
        } else {
            self.repr.rsplit('/').next()
        }
    }

    /// True for `/`.
    pub(crate) fn is_root(&self) -> bool {
        self.repr == "/"
    }

    /// Path components, root yields an empty iterator.
    pub(crate) fn components(&self) -> impl Iterator<Item = &str> {
        self.repr.split('/').filter(|c| !c.is_empty())
    }

    /// True when `self` equals `other` or lies underneath it.
    pub(crate) fn starts_with(&self, other: &DfsPath) -> bool {
        if other.is_root() {
            return true;
        }
        self.repr == other.repr
            || (self.repr.starts_with(&other.repr)
                && self.repr.as_bytes().get(other.repr.len()) == Some(&b'/'))
    }

    /// String form.
    pub fn as_str(&self) -> &str {
        &self.repr
    }

    /// Rebase `self` from prefix `from` onto prefix `to` (used by rename of
    /// directories).
    pub(crate) fn rebase(&self, from: &DfsPath, to: &DfsPath) -> FsResult<DfsPath> {
        if !self.starts_with(from) {
            return Err(FsError::InvalidPath {
                path: self.repr.clone(),
                reason: format!("does not start with {from}"),
            });
        }
        let suffix = &self.repr[from.repr.len()..];
        DfsPath::new(&format!("{}{}", to.repr, suffix))
    }
}

impl fmt::Display for DfsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.repr)
    }
}

impl std::str::FromStr for DfsPath {
    type Err = FsError;
    fn from_str(s: &str) -> FsResult<DfsPath> {
        DfsPath::new(s)
    }
}

/// Convenience: `path!("/a/b")` panics on malformed literals.
#[macro_export]
macro_rules! path {
    ($s:expr) => {
        $crate::DfsPath::new($s).expect("malformed path literal")
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(DfsPath::new("/a//b/").unwrap().as_str(), "/a/b");
        assert_eq!(DfsPath::new("/").unwrap().as_str(), "/");
        assert_eq!(DfsPath::new("///").unwrap().as_str(), "/");
        assert!(DfsPath::new("relative/x").is_err());
        assert!(DfsPath::new("/a/../b").is_err());
        assert!(DfsPath::new("/a/./b").is_err());
    }

    #[test]
    fn family_relations() {
        let p = DfsPath::new("/data/out/part-0").unwrap();
        assert_eq!(p.name(), Some("part-0"));
        assert_eq!(p.parent().unwrap().as_str(), "/data/out");
        assert_eq!(
            DfsPath::new("/x").unwrap().parent().unwrap(),
            DfsPath::root()
        );
        assert!(DfsPath::root().parent().is_none());
        assert_eq!(
            p.components().collect::<Vec<_>>(),
            vec!["data", "out", "part-0"]
        );
    }

    #[test]
    fn prefix_checks_respect_boundaries() {
        let dir = DfsPath::new("/data/out").unwrap();
        assert!(DfsPath::new("/data/out/part-0").unwrap().starts_with(&dir));
        assert!(DfsPath::new("/data/out").unwrap().starts_with(&dir));
        assert!(!DfsPath::new("/data/output").unwrap().starts_with(&dir));
        assert!(DfsPath::new("/anything")
            .unwrap()
            .starts_with(&DfsPath::root()));
    }

    #[test]
    fn child_and_rebase() {
        let dir = DfsPath::new("/a").unwrap();
        assert_eq!(dir.child("b").unwrap().as_str(), "/a/b");
        assert!(dir.child("x/y").is_err());
        assert!(dir.child("").is_err());
        let moved = DfsPath::new("/a/b/c")
            .unwrap()
            .rebase(&DfsPath::new("/a").unwrap(), &DfsPath::new("/z").unwrap())
            .unwrap();
        assert_eq!(moved.as_str(), "/z/b/c");
    }
}
