//! The workspace's content-keyed primitives, in one dependency-free leaf
//! crate so that crates sharing no other dependency (`presburger`,
//! `topology`) use the same implementation:
//!
//! * [`ContentCache`] — the bounded, content-keyed, single-computation
//!   cache behind the device distance matrices, the reliability-weighted
//!   distances, the name → device memo, the transitive-closure memo and
//!   tier 0 of the hierarchical plan memo;
//! * [`fnv1a`] / [`Fnv1a`] — the FNV-1a hash behind the router's
//!   shard-by-content rule, plan-store checksums and exact-fragment
//!   hashes, and service result fingerprints and trace IDs.
//!
//! # Example
//!
//! ```
//! use bounded::{fnv1a, ContentCache};
//!
//! let cache = ContentCache::new(8);
//! let a = cache.get_or_compute(&"aspen16".to_string(), || fnv1a(b"aspen16"));
//! let b = cache.get_or_compute(&"aspen16".to_string(), || unreachable!());
//! assert_eq!(*a, *b);
//! assert_eq!(cache.stats(), (1, 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod fnv;

pub use cache::ContentCache;
pub use fnv::{fnv1a, Fnv1a};
