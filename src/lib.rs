//! Facade crate for the GVE-Leiden reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! downstream users can depend on a single crate:
//!
//! ```
//! use gve::generate::rmat::Rmat;
//! use gve::leiden::{Leiden, LeidenConfig};
//!
//! let graph = Rmat::social(10, 8.0).seed(42).generate();
//! let result = Leiden::new(LeidenConfig::default()).run(&graph);
//! assert!(result.community_count() >= 1);
//! ```

pub use gve_baselines as baselines;
pub use gve_dynamic as dynamic;
pub use gve_generate as generate;
pub use gve_graph as graph;
pub use gve_leiden as leiden;
pub use gve_obs as obs;
pub use gve_prim as prim;
pub use gve_quality as quality;
pub use gve_serve as serve;
