//! # ecofl-models
//!
//! Model definitions for both halves of the Eco-FL reproduction:
//!
//! - `fl_models` — the small *trainable* MLP built on
//!   `ecofl-tensor`, used for genuine local training in the FL simulations
//!   (the paper trains "the same DNN models as in FedAVG" on each client);
//! - [`profiles`] — *analytic* per-layer profiles of the pipeline
//!   workloads: EfficientNet-B0…B6 and MobileNetV2 at arbitrary width
//!   multipliers, with per-layer forward/backward FLOPs, activation,
//!   gradient and parameter byte counts computed from the published
//!   architectures. These are exactly the quantities the paper's profiler
//!   records (`T_l^d`, `a_l`, `g_l`, `w_l` in §4.2) and the partitioning /
//!   orchestration algorithms consume.

pub(crate) mod fl_models;
pub mod profiles;

pub use fl_models::{mlp_for, ModelArch};
pub use profiles::{
    efficientnet, efficientnet_at, mobilenet_v2, mobilenet_v2_at, LayerProfile, ModelProfile,
};
