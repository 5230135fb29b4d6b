//! The intra-workspace function graph: every parsed `fn` item is a node,
//! and call sites resolve to candidate nodes by name (and impl type, when
//! the call is `Type::method(...)`-qualified; a `T::method(...)` call on a
//! type parameter resolves to every trait impl of `method`).
//!
//! Resolution is deliberately over-approximate — a `.push(...)` call
//! resolves to *every* workspace method named `push` — because the lexer is
//! type-blind. For hot-path propagation that is the safe direction: marking
//! too much hot surfaces allocations for human review (with the `allow`
//! escape hatch); marking too little would silently admit them.
//!
//! Propagation never descends into functions that are cold by convention:
//! trait machinery (`Clone`, `Debug`, `Hash`, ...) runs at fork/report time,
//! not inside the event loop, and pulling every `clone` body into the hot
//! set would drown the signal.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::parse::{Call, CallKind, FnItem};
use crate::SrcFile;

/// One node: `files[file].fns[item]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodeId {
    /// Index into the model's file list.
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
}

/// Method and function names hotness never propagates *into*: these are
/// fork/serialize/report-time entry points even when a hot function calls
/// them (e.g. an `Arc` handle clone inside the kernel).
const COLD_FN_NAMES: [&str; 13] = [
    "clone",
    "clone_from",
    "cmp",
    "default",
    "deserialize",
    "drop",
    "eq",
    "fmt",
    "from_value",
    "hash",
    "ne",
    "partial_cmp",
    "serialize",
];

/// Traits whose impl bodies are cold by convention.
const COLD_TRAITS: [&str; 12] = [
    "Clone",
    "Debug",
    "Default",
    "Deserialize",
    "Display",
    "Drop",
    "Eq",
    "Hash",
    "Ord",
    "PartialEq",
    "PartialOrd",
    "Serialize",
];

/// The resolved function graph over a set of parsed files.
#[derive(Debug)]
pub struct FnGraph<'a> {
    /// The files the graph was built from (same order as the model).
    pub files: &'a [SrcFile],
    /// All nodes, ordered by (file, item) — i.e. source order.
    pub nodes: Vec<NodeId>,
    by_method: BTreeMap<String, Vec<NodeId>>,
    by_typed: BTreeMap<(String, String), Vec<NodeId>>,
    by_free: BTreeMap<String, Vec<NodeId>>,
}

impl<'a> FnGraph<'a> {
    /// Builds the graph: indexes every `fn` item by name, by (impl type,
    /// name), and — for free functions — by bare name.
    pub fn build(files: &'a [SrcFile]) -> FnGraph<'a> {
        let mut g = FnGraph {
            files,
            nodes: Vec::new(),
            by_method: BTreeMap::new(),
            by_typed: BTreeMap::new(),
            by_free: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            for (ii, f) in file.fns.iter().enumerate() {
                let id = NodeId { file: fi, item: ii };
                g.nodes.push(id);
                match &f.impl_type {
                    Some(ty) => {
                        g.by_method.entry(f.name.clone()).or_default().push(id);
                        g.by_typed
                            .entry((ty.clone(), f.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => g.by_free.entry(f.name.clone()).or_default().push(id),
                }
            }
        }
        g
    }

    /// The `FnItem` behind a node.
    pub fn item(&self, id: NodeId) -> &'a FnItem {
        &self.files[id.file].fns[id.item]
    }

    /// All nodes implementing `type_name::fn_name`.
    pub fn typed(&self, type_name: &str, fn_name: &str) -> &[NodeId] {
        self.by_typed
            .get(&(type_name.to_string(), fn_name.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Candidate callees for a call site inside `caller`.
    pub fn resolve(&self, caller: NodeId, call: &Call) -> Vec<NodeId> {
        match call.kind {
            CallKind::Method => self
                .by_method
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
            CallKind::Qualified => {
                let q = call.qualifier.as_deref().unwrap_or("");
                if self.item(caller).generics.iter().any(|g| g == q) {
                    // `I::build(...)` on a type parameter dispatches through
                    // a trait: any trait impl of that name may run.
                    return self
                        .by_method
                        .get(call.name.as_str())
                        .into_iter()
                        .flatten()
                        .copied()
                        .filter(|&id| self.item(id).impl_trait.is_some())
                        .collect();
                }
                let q = if q == "Self" || q == "self" {
                    self.item(caller).impl_type.as_deref().unwrap_or("")
                } else {
                    q
                };
                if q.starts_with(|c: char| c.is_uppercase()) {
                    self.typed(q, &call.name).to_vec()
                } else {
                    // Module-qualified (`stats::quantile(...)`): free fns.
                    self.by_free
                        .get(call.name.as_str())
                        .cloned()
                        .unwrap_or_default()
                }
            }
            CallKind::Plain => self
                .by_free
                .get(call.name.as_str())
                .cloned()
                .unwrap_or_default(),
            CallKind::Macro => Vec::new(),
        }
    }

    /// `true` when hotness must not propagate into this node.
    fn is_cold(&self, id: NodeId) -> bool {
        let f = self.item(id);
        if COLD_FN_NAMES.contains(&f.name.as_str()) {
            return true;
        }
        f.impl_trait
            .as_deref()
            .is_some_and(|tr| COLD_TRAITS.contains(&tr))
    }

    /// Propagates hotness from `seeds` (resolved `(type, fn)` pairs) through
    /// workspace-local calls. Returns the hot set as a map from node to the
    /// caller it was first reached from (`None` for seeds), plus the seeds
    /// that did not resolve to any node.
    #[expect(
        clippy::type_complexity,
        reason = "the hot set and the unresolved seeds; a named type would hide that"
    )]
    pub fn hot_set<'s>(
        &self,
        seeds: &'s [(&'s str, &'s str)],
    ) -> (BTreeMap<NodeId, Option<NodeId>>, Vec<(&'s str, &'s str)>) {
        let mut hot: BTreeMap<NodeId, Option<NodeId>> = BTreeMap::new();
        let mut missing = Vec::new();
        let mut frontier = VecDeque::new();
        for &(ty, name) in seeds {
            let nodes = self.typed(ty, name);
            if nodes.is_empty() {
                missing.push((ty, name));
            }
            for &n in nodes {
                if hot.insert(n, None).is_none() {
                    frontier.push_back(n);
                }
            }
        }
        while let Some(n) = frontier.pop_front() {
            // Deterministic order: resolve calls in source order, dedupe via
            // the BTreeMap.
            let mut callees = BTreeSet::new();
            for call in &self.item(n).calls {
                for callee in self.resolve(n, call) {
                    callees.insert(callee);
                }
            }
            for callee in callees {
                if self.is_cold(callee) || hot.contains_key(&callee) {
                    continue;
                }
                hot.insert(callee, Some(n));
                frontier.push_back(callee);
            }
        }
        (hot, missing)
    }

    /// Renders the call chain that made `id` hot, e.g.
    /// `Kernel::pump → handle_sample → record_access`.
    pub fn hot_chain(&self, hot: &BTreeMap<NodeId, Option<NodeId>>, id: NodeId) -> String {
        let mut names = Vec::new();
        let mut cur = Some(id);
        while let Some(n) = cur {
            names.push(self.qualified_name(n));
            cur = hot.get(&n).copied().flatten();
            if names.len() > 8 {
                names.push("…".to_string());
                break;
            }
        }
        names.reverse();
        names.join(" → ")
    }

    /// `Type::name` or `name` for display.
    pub fn qualified_name(&self, id: NodeId) -> String {
        let f = self.item(id);
        match &f.impl_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => f.name.clone(),
        }
    }
}
