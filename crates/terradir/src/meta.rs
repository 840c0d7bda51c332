//! Node meta-data (paper §2.1).
//!
//! "Nodes export two types of optional application-supplied information:
//! data and meta-data. … meta-data consists of node annotations most
//! commonly found in the form of attributes (name-value pairs)." Only the
//! owner may modify meta-data; replicas "keep the newest version that they
//! have encountered" — a version number makes *newest* well-defined with
//! no clocks and no consistency protocol.

use std::collections::BTreeMap;
use std::sync::Arc;

/// Versioned attribute map attached to a node.
///
/// Cheap to clone (`Arc` inside) — meta rides on every lookup result and
/// replica payload. Mutation goes through the owner-side
/// [`Meta::set_attr`], which copies on write and bumps the version.
/// Most nodes carry no attributes, so an empty map is held as `None` and
/// costs no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    version: u64,
    /// `None` exactly when there are no attributes, which keeps the
    /// derived equality by content.
    attrs: Option<Arc<BTreeMap<String, String>>>,
}

impl Meta {
    /// Empty meta-data at version 0.
    pub fn new() -> Meta {
        Meta {
            version: 0,
            attrs: None,
        }
    }

    /// The monotone version; higher supersedes lower.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Reads an attribute.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs
            .as_ref()
            .and_then(|a| a.get(key))
            .map(String::as_str)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.as_ref().map_or(0, |a| a.len())
    }

    /// Whether there are no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_none()
    }

    /// Iterates attributes in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs
            .iter()
            .flat_map(|a| a.iter())
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Owner-side mutation: sets an attribute and bumps the version.
    /// Copy-on-write, so outstanding clones (in-flight results, replicas)
    /// are unaffected.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        Arc::make_mut(self.attrs.get_or_insert_with(Arc::default)).insert(key.into(), value.into());
        self.version += 1;
    }

    /// Owner-side mutation: removes an attribute and bumps the version.
    pub fn remove_attr(&mut self, key: &str) -> bool {
        let Some(attrs) = self.attrs.as_mut() else {
            return false;
        };
        let map = Arc::make_mut(attrs);
        if map.remove(key).is_none() {
            return false;
        }
        if map.is_empty() {
            self.attrs = None;
        }
        self.version += 1;
        true
    }

    /// Adopts `incoming` if it is strictly newer ("replicas will keep the
    /// newest version that they have encountered"). Returns whether the
    /// meta changed.
    pub fn absorb(&mut self, incoming: &Meta) -> bool {
        if incoming.version > self.version {
            *self = incoming.clone();
            true
        } else {
            false
        }
    }
}

impl Default for Meta {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
#[allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]
mod tests {
    use super::*;

    #[test]
    fn fresh_meta_is_empty_v0() {
        let m = Meta::new();
        assert_eq!(m.version(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get("x"), None);
    }

    #[test]
    fn set_attr_bumps_version() {
        let mut m = Meta::new();
        m.set_attr("mime", "text/plain");
        assert_eq!(m.version(), 1);
        assert_eq!(m.get("mime"), Some("text/plain"));
        m.set_attr("mime", "text/html");
        assert_eq!(m.version(), 2);
        assert_eq!(m.get("mime"), Some("text/html"));
    }

    #[test]
    fn remove_attr_bumps_only_on_hit() {
        let mut m = Meta::new();
        m.set_attr("a", "1");
        assert!(m.remove_attr("a"));
        assert_eq!(m.version(), 2);
        assert!(!m.remove_attr("a"));
        assert_eq!(m.version(), 2);
    }

    #[test]
    fn emptied_meta_equals_one_that_never_had_attributes() {
        let mut m = Meta::new();
        m.set_attr("a", "1");
        assert!(m.remove_attr("a"));
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        assert_eq!(
            m,
            Meta {
                version: m.version(),
                ..Meta::new()
            }
        );
        // A miss on an empty meta changes nothing.
        assert!(!Meta::new().remove_attr("a"));
        assert_eq!(Meta::new(), Meta::default());
    }

    #[test]
    fn clones_are_copy_on_write() {
        let mut m = Meta::new();
        m.set_attr("k", "v1");
        let snapshot = m.clone();
        m.set_attr("k", "v2");
        assert_eq!(snapshot.get("k"), Some("v1"));
        assert_eq!(m.get("k"), Some("v2"));
    }

    #[test]
    fn absorb_takes_strictly_newer_only() {
        let mut replica = Meta::new();
        let mut owner = Meta::new();
        owner.set_attr("size", "42");
        assert!(replica.absorb(&owner));
        assert_eq!(replica.get("size"), Some("42"));
        // Same version: no change.
        let stale = replica.clone();
        assert!(!replica.absorb(&stale));
        // Older version: no change.
        let old = Meta::new();
        assert!(!replica.absorb(&old));
        assert_eq!(replica.version(), 1);
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut m = Meta::new();
        m.set_attr("b", "2");
        m.set_attr("a", "1");
        let kv: Vec<(&str, &str)> = m.iter().collect();
        assert_eq!(kv, vec![("a", "1"), ("b", "2")]);
    }
}
