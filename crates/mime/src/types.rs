//! The MIME content-type lattice (paper §4.1, Figure 4-1).
//!
//! A [`MimeType`] is a `type "/" subtype [";" parameters]` triple following a
//! simplified `Content-Type` header field grammar (Figure 4-2). Types form a
//! lattice under the *specialization* relation used by MCL's compatibility
//! check (§4.4.1):
//!
//! * `*/*` is the top element and accepts anything;
//! * `text/*` (written `text` in MCL scripts) accepts every `text/x`;
//! * an exact type accepts itself;
//! * user-declared subtype edges (e.g. `text/richtext ⊑ text/plain`) extend
//!   the lattice, with the relation closed reflexively and transitively by
//!   the [`TypeRegistry`].

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::str::FromStr;

use crate::error::MimeError;

/// A parsed MIME content type such as `image/gif` or `text/*; charset=utf-8`.
///
/// Parameters are kept sorted so that equality and hashing are canonical.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MimeType {
    /// Top-level media type (lowercased), e.g. `image`. `*` is the wildcard.
    pub top: String,
    /// Subtype (lowercased), e.g. `gif`. `*` is the wildcard.
    pub sub: String,
    /// `; key=value` parameters, canonicalized to lowercase keys.
    pub params: BTreeMap<String, String>,
}

impl MimeType {
    /// Builds a type from parts, lowercasing both components in place
    /// (one allocation per component, none for an owned `String`).
    pub fn new(top: impl Into<String>, sub: impl Into<String>) -> Self {
        let (mut top, mut sub) = (top.into(), sub.into());
        top.make_ascii_lowercase();
        sub.make_ascii_lowercase();
        MimeType {
            top,
            sub,
            params: BTreeMap::new(),
        }
    }

    /// The top element of the lattice: `*/*`.
    pub fn any() -> Self {
        MimeType::new("*", "*")
    }

    /// A top-level wildcard, e.g. `text/*`.
    pub fn top_level(top: impl Into<String>) -> Self {
        MimeType::new(top, "*")
    }

    /// Adds (or replaces) a parameter, returning `self` for chaining.
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params
            .insert(key.into().to_ascii_lowercase(), value.into());
        self
    }

    /// True if this is the universal `*/*` type.
    pub fn is_any(&self) -> bool {
        self.top == "*" && self.sub == "*"
    }

    /// True if either component is a wildcard.
    pub fn is_wildcard(&self) -> bool {
        self.top == "*" || self.sub == "*"
    }

    /// True when `self` is *syntactically* a specialization of `other`,
    /// ignoring registry-declared edges: `a ⊑ */*`, `text/x ⊑ text/*`,
    /// `a ⊑ a`. Parameters are ignored for the relation, matching the paper
    /// (port types are matched on media type alone).
    pub fn syntactic_subtype_of(&self, other: &MimeType) -> bool {
        if other.is_any() {
            return true;
        }
        if self.top != other.top {
            return false;
        }
        other.sub == "*" || self.sub == other.sub
    }

    /// The immediate syntactic parent in the lattice, if any:
    /// `text/plain → text/*`, `text/* → */*`, `*/* → None`.
    pub fn parent(&self) -> Option<MimeType> {
        if self.is_any() {
            None
        } else if self.sub == "*" {
            Some(MimeType::any())
        } else {
            Some(MimeType::top_level(self.top.clone()))
        }
    }

    /// The `type/subtype` essence without parameters.
    pub fn essence(&self) -> MimeType {
        MimeType::new(self.top.clone(), self.sub.clone())
    }
}

impl fmt::Display for MimeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.top, self.sub)?;
        for (k, v) in &self.params {
            write!(f, "; {k}={v}")?;
        }
        Ok(())
    }
}

impl FromStr for MimeType {
    type Err = MimeError;

    /// Parses `type "/" subtype *( ";" key "=" value )`.
    ///
    /// As a convenience for MCL scripts, a bare top-level name (`text`) is
    /// accepted and interpreted as the wildcard `text/*`, matching the
    /// thesis's usage ("the sink port type `text`").
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (top, sub, sections) = split_essence(s)?;
        let mut ty = MimeType::new(top, sub);
        for section in sections {
            let section = section.trim();
            if section.is_empty() {
                continue;
            }
            let (k, v) = section.split_once('=').ok_or(MimeError::InvalidType {
                input: s.into(),
                reason: "parameter missing `=`",
            })?;
            let v = v.trim().trim_matches('"');
            ty = ty.with_param(k.trim(), v);
        }
        Ok(ty)
    }
}

/// The validated `type` and `subtype` of a content-type value, and its
/// remaining `;` sections (parameters, not yet checked).
fn split_essence(s: &str) -> Result<(&str, &str, std::str::Split<'_, char>), MimeError> {
    let mut sections = s.split(';');
    let essence = sections.next().unwrap_or("").trim();
    if essence.is_empty() {
        return Err(MimeError::InvalidType {
            input: s.into(),
            reason: "empty type",
        });
    }
    let (top, sub) = match essence.split_once('/') {
        Some((t, u)) => (t.trim(), u.trim()),
        None => (essence, "*"),
    };
    if top.is_empty() || sub.is_empty() {
        return Err(MimeError::InvalidType {
            input: s.into(),
            reason: "empty type or subtype component",
        });
    }
    let valid = |c: char| c.is_ascii_alphanumeric() || "-.+_*".contains(c);
    if !top.chars().all(valid) || !sub.chars().all(valid) {
        return Err(MimeError::InvalidType {
            input: s.into(),
            reason: "illegal character in type component",
        });
    }
    Ok((top, sub, sections))
}

/// The top-level type of a content-type value as written (not
/// lowercased), when the value parses as a [`MimeType`]; `None` exactly
/// when `s.parse::<MimeType>()` fails. Nothing is allocated on success.
pub(crate) fn top_level_of(s: &str) -> Option<&str> {
    let (top, _, sections) = split_essence(s).ok()?;
    sections
        .map(str::trim)
        .all(|section| section.is_empty() || section.contains('='))
        .then_some(top)
}

/// The subtype/supertype lattice of Figure 4-1, extensible with declared
/// edges ("the extensible nature of the MIME type media system", §4.1).
///
/// `subtype_of(a, b)` answers "may a message of type `a` flow into a port of
/// type `b`?" — the core of MCL's compatibility check.
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    /// Declared edges child → parents (essences only).
    declared: HashMap<MimeType, BTreeSet<MimeType>>,
}

impl TypeRegistry {
    /// An empty registry: only the syntactic lattice holds.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry pre-loaded with the relations the thesis relies on,
    /// notably `text/richtext ⊑ text/plain` (used in the §4.4.1 example
    /// via `text/richtext ⊑ text`) and the common web media types.
    pub fn standard() -> Self {
        let mut r = Self::new();
        // Rich text is a specialization of plain readable text.
        r.declare("text/richtext", "text/plain");
        r.declare("text/html", "text/plain");
        // Postscript is treated as an application document in MIME but the
        // distillation pipeline views it as convertible text; keep it under
        // application only (conversion is a streamlet's job, not typing's).
        r.declare("image/pjpeg", "image/jpeg");
        r
    }

    /// Declares `child ⊑ parent`. Panics if either string fails to parse —
    /// declarations are programmer-supplied constants.
    pub fn declare(&mut self, child: &str, parent: &str) {
        let child: MimeType = child.parse().expect("invalid child type");
        let parent: MimeType = parent.parse().expect("invalid parent type");
        self.declare_types(child, parent);
    }

    /// Declares `child ⊑ parent` with already-parsed types.
    pub fn declare_types(&mut self, child: MimeType, parent: MimeType) {
        self.declared
            .entry(child.essence())
            .or_default()
            .insert(parent.essence());
    }

    /// The reflexive-transitive specialization relation.
    ///
    /// `a ⊑ b` iff `a` syntactically specializes `b`, or some declared
    /// ancestor of `a` (or a syntactic parent of such an ancestor) does.
    pub fn subtype_of(&self, a: &MimeType, b: &MimeType) -> bool {
        if a.syntactic_subtype_of(b) {
            return true;
        }
        // Breadth-first walk over declared edges plus syntactic parents.
        let mut seen: HashSet<MimeType> = HashSet::new();
        let mut frontier = vec![a.essence()];
        while let Some(t) = frontier.pop() {
            if !seen.insert(t.clone()) {
                continue;
            }
            if t.syntactic_subtype_of(b) {
                return true;
            }
            if let Some(parents) = self.declared.get(&t) {
                frontier.extend(parents.iter().cloned());
            }
            if let Some(p) = t.parent() {
                frontier.push(p);
            }
        }
        false
    }

    /// Two port types are *connectable* when the source specializes the sink
    /// (§4.4.1 restriction 2).
    pub fn connectable(&self, source: &MimeType, sink: &MimeType) -> bool {
        self.subtype_of(source, sink)
    }

    /// All declared edges, for diagnostics.
    pub fn declared_edges(&self) -> impl Iterator<Item = (&MimeType, &MimeType)> {
        self.declared
            .iter()
            .flat_map(|(c, ps)| ps.iter().map(move |p| (c, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_case_components_are_lowercased() {
        let t = MimeType::new("Text", "HTML");
        assert_eq!(t, MimeType::new("text", "html"));
        assert_eq!((t.top.as_str(), t.sub.as_str()), ("text", "html"));
        assert_eq!(
            MimeType::new(String::from("IMAGE"), "Gif"),
            "image/gif".parse().unwrap()
        );
    }

    fn t(s: &str) -> MimeType {
        s.parse().unwrap()
    }

    #[test]
    fn parse_simple() {
        let ty = t("image/gif");
        assert_eq!(ty.top, "image");
        assert_eq!(ty.sub, "gif");
        assert!(ty.params.is_empty());
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!(t("Image/GIF"), t("image/gif"));
    }

    #[test]
    fn parse_with_params() {
        let ty = t("text/plain; charset=utf-8; format=flowed");
        assert_eq!(ty.params.get("charset").unwrap(), "utf-8");
        assert_eq!(ty.params.get("format").unwrap(), "flowed");
    }

    #[test]
    fn parse_quoted_param() {
        let ty = t("multipart/mixed; boundary=\"abc123\"");
        assert_eq!(ty.params.get("boundary").unwrap(), "abc123");
    }

    #[test]
    fn bare_top_level_means_wildcard() {
        // MCL scripts write `text` for `text/*` (§4.4.1 example).
        assert_eq!(t("text"), t("text/*"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MimeType::from_str("").is_err());
        assert!(MimeType::from_str("/plain").is_err());
        assert!(MimeType::from_str("text/").is_err());
        assert!(MimeType::from_str("te xt/plain").is_err());
        assert!(MimeType::from_str("text/plain; charset").is_err());
    }

    #[test]
    fn display_round_trip() {
        for s in ["image/gif", "text/plain; charset=utf-8", "*/*"] {
            let ty = t(s);
            assert_eq!(t(&ty.to_string()), ty);
        }
    }

    #[test]
    fn syntactic_lattice() {
        assert!(t("image/gif").syntactic_subtype_of(&t("image/*")));
        assert!(t("image/gif").syntactic_subtype_of(&t("*/*")));
        assert!(t("image/gif").syntactic_subtype_of(&t("image/gif")));
        assert!(!t("image/gif").syntactic_subtype_of(&t("text/*")));
        assert!(!t("image/*").syntactic_subtype_of(&t("image/gif")));
        assert!(t("image/*").syntactic_subtype_of(&t("*/*")));
    }

    #[test]
    fn parent_chain_terminates_at_any() {
        let mut ty = t("text/plain");
        let mut hops = 0;
        while let Some(p) = ty.parent() {
            ty = p;
            hops += 1;
        }
        assert!(ty.is_any());
        assert_eq!(hops, 2);
    }

    #[test]
    fn registry_paper_example() {
        // §4.4.1: "the connection between the PostScript-to-Text output port
        // and the Text Compressor input port is valid, since the source port
        // type text/richtext is a subtype of the sink port type text."
        let r = TypeRegistry::standard();
        assert!(r.connectable(&t("text/richtext"), &t("text")));
        assert!(r.connectable(&t("text/richtext"), &t("text/plain")));
        assert!(!r.connectable(&t("text"), &t("text/richtext")));
    }

    #[test]
    fn registry_transitive_closure() {
        let mut r = TypeRegistry::new();
        r.declare("a/b", "c/d");
        r.declare("c/d", "e/f");
        assert!(r.subtype_of(&t("a/b"), &t("e/f")));
        assert!(r.subtype_of(&t("a/b"), &t("e/*")));
        assert!(!r.subtype_of(&t("e/f"), &t("a/b")));
    }

    #[test]
    fn registry_reflexive() {
        let r = TypeRegistry::new();
        assert!(r.subtype_of(&t("x/y"), &t("x/y")));
    }

    #[test]
    fn registry_cycle_safe() {
        // Malformed (cyclic) declarations must not hang the check.
        let mut r = TypeRegistry::new();
        r.declare("a/a", "b/b");
        r.declare("b/b", "a/a");
        assert!(r.subtype_of(&t("a/a"), &t("b/b")));
        assert!(!r.subtype_of(&t("a/a"), &t("c/c")));
    }

    #[test]
    fn params_do_not_affect_relation() {
        let r = TypeRegistry::new();
        let a = t("text/plain; charset=utf-8");
        let b = t("text/plain; charset=ascii");
        assert!(r.subtype_of(&a, &b));
        assert!(r.subtype_of(&b, &a));
    }

    #[test]
    fn essence_strips_params() {
        assert_eq!(t("text/plain; charset=utf-8").essence(), t("text/plain"));
    }
}
