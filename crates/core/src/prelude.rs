//! One-stop imports for Eco-FL users.
//!
//! ```
//! use ecofl_core::prelude::*;
//! let spec = SyntheticSpec::mnist_like();
//! let devices = vec![tx2_q(), nano_h()];
//! assert_eq!(devices.len(), 2);
//! assert_eq!(spec.num_classes, 10);
//! ```

pub use crate::error::EcoFlError;
pub use crate::system::{EcoFlReport, EcoFlSystem, EcoFlSystemBuilder, SmartHome};

pub use ecofl_data::federated::PartitionScheme;
pub use ecofl_data::{Dataset, FederatedDataset, SyntheticSpec};
pub use ecofl_fl::engine::{run as run_strategy, FlSetup, RunResult, Strategy};
pub use ecofl_fl::{
    summarize_store, summarize_view, AggregationStrategy, ConvergenceSummary, DynamicsConfig,
    FlConfig, LatencyModel, Scheduler,
};
pub use ecofl_grouping::{Grouper, GroupingConfig, GroupingStrategy};
pub use ecofl_models::{
    efficientnet, efficientnet_at, mobilenet_v2, mobilenet_v2_at, ModelArch, ModelProfile,
};
pub use ecofl_obs::{RecordKind, RunStore, TraceQuery, TraceRecord, TraceView, Tracer};
pub use ecofl_pipeline::adaptive::{simulate_load_spike, LoadSpike, SpikeError};
pub use ecofl_pipeline::orchestrator::{search_configuration, OrchestratorConfig, PipelinePlan};
pub use ecofl_pipeline::partition::{partition_dp, partition_even, Partition};
pub use ecofl_pipeline::profiler::PipelineProfile;
pub use ecofl_pipeline::runtime::{
    load_checkpoint_at_or_before, load_latest_checkpoint, stored_checkpoints, CheckpointRecord,
    FaultPlan, KillPoint, PipelineTrainer, RuntimeOptions,
};
pub use ecofl_pipeline::{
    data_parallel_epoch, single_device_epoch, ExecutionReport, PipelineExecutor, ScheduleKind,
    SchedulePolicy,
};
pub use ecofl_simnet::{nano_h, nano_l, tx2_n, tx2_q, Device, DeviceSpec, Link};
pub use ecofl_tensor::{Network, Sgd, Tensor};
pub use ecofl_util::{Rng, TimeSeries};
