//! Typed identifiers for topology entities.
//!
//! Newtypes keep service indices and request-type indices from being mixed
//! up at compile time (C-NEWTYPE). Both are dense indices assigned by
//! [`TopologyBuilder`](crate::TopologyBuilder) in insertion order, so they
//! double as `Vec` indices inside this workspace.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a microservice within a [`Topology`](crate::Topology).
///
/// # Example
///
/// ```
/// use callgraph::ServiceId;
///
/// let id = ServiceId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "svc#3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ServiceId(u32);

impl ServiceId {
    /// Creates an id from a dense index.
    pub const fn new(index: u32) -> Self {
        ServiceId(index)
    }

    /// The dense index, usable to address per-service vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc#{}", self.0)
    }
}

impl From<ServiceId> for usize {
    fn from(id: ServiceId) -> usize {
        id.index()
    }
}

/// Identifier of a user-request type (equivalently, of the critical path it
/// triggers — the paper treats each request type as one critical path).
///
/// # Example
///
/// ```
/// use callgraph::RequestTypeId;
///
/// let id = RequestTypeId::new(1);
/// assert_eq!(id.index(), 1);
/// assert_eq!(id.to_string(), "req#1");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RequestTypeId(u32);

impl RequestTypeId {
    /// Creates an id from a dense index.
    pub const fn new(index: u32) -> Self {
        RequestTypeId(index)
    }

    /// The dense index, usable to address per-type vectors.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RequestTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

impl From<RequestTypeId> for usize {
    fn from(id: RequestTypeId) -> usize {
        id.index()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_ordered_and_hashable() {
        let a = ServiceId::new(1);
        let b = ServiceId::new(2);
        assert!(a < b);
        let set: BTreeSet<ServiceId> = [a, b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
        fn hashable<T: std::hash::Hash>(_: &T) {}
        hashable(&a);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ServiceId::new(7).to_string(), "svc#7");
        assert_eq!(RequestTypeId::new(7).to_string(), "req#7");
    }

    #[test]
    fn usize_conversion() {
        assert_eq!(usize::from(ServiceId::new(9)), 9);
        assert_eq!(usize::from(RequestTypeId::new(9)), 9);
    }
}
