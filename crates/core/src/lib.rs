//! # ecofl-core
//!
//! The top-level public API of the Eco-FL reproduction: one crate to
//! depend on, one builder to configure, and the whole two-level system —
//! edge collaborative pipeline training per smart home, grouping-based
//! hierarchical aggregation at the server — behind it.
//!
//! ## Quick start
//!
//! ```
//! use ecofl_core::prelude::*;
//! # fn main() -> Result<(), EcoFlError> {
//!
//! // Three smart homes, each a small heterogeneous device cluster.
//! let homes = vec![
//!     SmartHome::new("home-a", vec![tx2_q(), nano_h()]),
//!     SmartHome::new("home-b", vec![nano_h(), nano_l()]),
//!     SmartHome::new("home-c", vec![nano_h()]),
//! ];
//! let report = EcoFlSystem::builder()
//!     .homes(homes)
//!     .replicate_homes(9)          // 9 clients cycling the 3 templates
//!     .fl_config(FlConfig { horizon: 300.0, clients_per_round: 6,
//!                           num_groups: 3, ..FlConfig::tiny() })
//!     .seed(7)
//!     .build()?
//!     .run(None)?; // `None`: nothing observes the run
//! assert_eq!(report.pipeline_plans.len(), 3);
//! assert!(report.fl.best_accuracy > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! The sub-crates remain available for fine-grained use and are re-exported
//! under [`prelude`].

pub(crate) mod error;
pub mod prelude;
mod record;
pub mod scenario;
pub mod system;

// The component crates downstream code reaches as `ecofl_core::<crate>`.
pub use ecofl_obs as obs;
pub use ecofl_pipeline as pipeline;
pub use ecofl_tensor as tensor;
pub use ecofl_util as util;
