//! # ecofl-tensor
//!
//! A minimal, dependency-light dense tensor and neural-network toolkit used
//! by the Eco-FL reproduction for *real* local training on FL clients.
//!
//! The paper's simulation trains genuine models (the same DNNs as FedAVG)
//! on each client; we reproduce that with a small hand-rolled framework:
//!
//! - [`Tensor`]: row-major `f32` dense tensors with shape checking,
//! - `layers`: `Linear` and `ReLU`, with manual backprop verified
//!   against finite differences in the tests,
//! - [`network::Network`]: a sequential container exposing flat parameter
//!   vectors (what the FL aggregators exchange),
//! - `loss`: stable softmax cross-entropy and accuracy,
//! - [`optim::Sgd`]: plain SGD plus the FedProx proximal term
//!   `µ/2·‖w − w_global‖²` — Eco-FL's intra-group solver (§5.1).
//!
//! The compute core lives in `kernel`: register-tiled matmul kernels
//! with runtime AVX-512/AVX2+FMA dispatch — one pack-free driver per tier,
//! sized for the L1-resident products of FL training, always on the
//! calling thread, as is everything else in the workspace but the
//! threaded pipeline runtime's stage threads. The naive triple loops they
//! replaced are retained in [`mod@reference`] next to the scalar chains
//! the kernels are specified by; `tests/kernel_equivalence.rs` proves
//! every GEMM bit-identical to its chain on every tier and within the documented
//! tolerance of the naive loop (see DESIGN.md §7, "Kernel tiling and the
//! tolerance policy"). Layers pass tensors by value and recycle their
//! buffers, so a steady-state training step allocates nothing (DESIGN.md
//! §6 item 8).

pub(crate) mod kernel;
pub(crate) mod layers;
pub(crate) mod loss;
pub(crate) mod network;
pub(crate) mod optim;
pub mod reference;
pub(crate) mod tensor;

pub use kernel::{kernel_stats, reset_kernel_stats, set_kernel_stats_enabled};
pub use layers::{backward_through, Layer, Linear, ReLU};
pub use loss::{argmax, SoftmaxCrossEntropy};
pub use network::Network;
pub use optim::Sgd;
pub use tensor::Tensor;
