//! Parameter fingerprint of `local_train`: 450 calls whose returned
//! weights are hashed bit for bit.
//!
//! The sweep is the bit-identity claim of the pack-free kernels, the
//! by-value `Layer` step and the in-place `Sgd` (DESIGN.md §7): the MLP at
//! batch 1 / 7 / 10 / 16 / 33 (ragged last batches included), µ = 0 and
//! 0.05, three datasets — every call chained onto the previous call's
//! weights so the values drift the way a run's do.
//!
//! Two checks:
//!
//! - **against the oracle**: the same sweep through the differential
//!   oracle (`ecofl-tensor`'s `tests/oracle`: the allocation-per-op
//!   `Linear` / `ReLU` / loss / flat-`Sgd` step this code replaced, on the
//!   same kernels) hashes to the same value;
//! - **against the parent binary**: the hash equals the constant captured
//!   from the commit before the rewrite (87dac46) on a fused-kernel host.
//!   That sweep went on to 36 CNN calls and ended at
//!   `0xb5a1_3c7c_185f_03c4`; the constant is its state after the 450 MLP
//!   calls, read in the last tree that still had the CNN, in the same run
//!   that reproduced that end. The CNN calls left with the CNN.
//!   Every kernel tier computes the same `mul_add` chain, so the one
//!   constant holds whatever the CPU. The arithmetic is IEEE exact
//!   everywhere, but the loss head's `exp` / `ln` are the platform libm's,
//!   so the constant is checked on x86-64 Linux only.

#[path = "../../tensor/tests/oracle/mod.rs"]
mod oracle;

use ecofl_data::{Dataset, SyntheticSpec};
use ecofl_fl::client::{local_train, LocalTrainConfig};
use ecofl_models::ModelArch;
use ecofl_util::Rng;

/// Fingerprint of the sweep's 450 MLP calls, as commit 87dac46's binary
/// computed them.
const LOCAL_TRAIN_FINGERPRINT: u64 = 0x4b5a_71d1_03c2_ee7e;
const CALLS: usize = 450;

struct Fingerprint {
    hash: u64,
    calls: usize,
}

impl Fingerprint {
    fn new() -> Self {
        Self {
            hash: 0xcbf2_9ce4_8422_2325,
            calls: 0,
        }
    }

    /// FNV-1a over the little-endian bit patterns.
    fn absorb(&mut self, params: &[f32], loss: f32) {
        for v in params.iter().chain(std::iter::once(&loss)) {
            for byte in v.to_bits().to_le_bytes() {
                self.hash = (self.hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.calls += 1;
    }
}

type Trainer = fn(ModelArch, &[f32], &Dataset, &LocalTrainConfig, &mut Rng) -> (Vec<f32>, f32);

fn production(
    arch: ModelArch,
    start: &[f32],
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut Rng,
) -> (Vec<f32>, f32) {
    let update = local_train(arch, start, data, cfg, rng);
    (update.params, update.final_loss)
}

/// HEAD~'s `local_train` body over the oracle network: a fresh feature
/// tensor per batch, `params_into` / `grads_into` / flat `Sgd::step` /
/// `set_params` per step.
fn reference(
    arch: ModelArch,
    start: &[f32],
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut Rng,
) -> (Vec<f32>, f32) {
    let mut model = match arch {
        ModelArch::Mlp => oracle::OracleNet::mlp(data.feature_dim(), data.num_classes()),
    };
    model.set_params(start);
    let mut trainer = oracle::FlatSgd::new(cfg.lr, cfg.mu, start);
    let mut final_loss = 0.0f32;
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        let batches = data.batches(cfg.batch_size, rng);
        let n_batches = batches.len();
        for batch in batches {
            let (feats, labels) = data.gather(&batch);
            let x = ecofl_tensor::Tensor::from_vec(feats, &[labels.len(), data.feature_dim()]);
            model.zero_grads();
            epoch_loss += model.train_step(&x, &labels);
            trainer.step(&mut model);
        }
        final_loss = epoch_loss / n_batches.max(1) as f32;
    }
    (model.params(), final_loss)
}

/// One group of chained calls: client `c + 1` starts from client `c`'s
/// result, every client on its own ragged shard.
#[allow(clippy::too_many_arguments)]
fn chain(
    train: Trainer,
    fp: &mut Fingerprint,
    arch: ModelArch,
    spec: &SyntheticSpec,
    tag: u64,
    batch_size: usize,
    mu: f32,
    clients: usize,
) {
    let protos = spec.prototypes(11 + tag);
    let mut params = arch
        .build(spec.feature_dim, spec.num_classes, &mut Rng::new(100 + tag))
        .params();
    for client in 0..clients {
        let seed = tag * 1_000_003 + (batch_size * 131 + client) as u64 + u64::from(mu > 0.0) * 77;
        // 10 / 20 / 30 / 40 samples with skewed labels: every batch size
        // of the sweep meets a ragged tail, 33 included.
        let counts: Vec<usize> = (0..spec.num_classes)
            .map(|c| (client + c) % 3 + client % 4)
            .collect();
        let data = protos.sample_with_counts(&counts, &mut Rng::new(seed));
        let cfg = LocalTrainConfig {
            epochs: 1 + client % 3,
            batch_size,
            lr: 0.05,
            mu,
        };
        let (next, loss) = train(arch, &params, &data, &cfg, &mut Rng::new(seed ^ 0x5EED));
        fp.absorb(&next, loss);
        params = next;
    }
}

fn sweep(train: Trainer) -> Fingerprint {
    let mut fp = Fingerprint::new();
    let mlp_specs = [
        SyntheticSpec::mnist_like(),
        SyntheticSpec::fashion_like(),
        SyntheticSpec::cifar_like(),
    ];
    for (d, spec) in mlp_specs.iter().enumerate() {
        for batch_size in [1, 7, 10, 16, 33] {
            for mu in [0.0, 0.05] {
                chain(
                    train,
                    &mut fp,
                    ModelArch::Mlp,
                    spec,
                    d as u64,
                    batch_size,
                    mu,
                    15,
                );
            }
        }
    }
    fp
}

#[test]
fn local_train_fingerprint_matches_the_oracle_and_the_parent_binary() {
    let got = sweep(production);
    assert_eq!(got.calls, CALLS);
    let want = sweep(reference);
    assert_eq!(
        got.hash, want.hash,
        "local_train diverged from the allocation-per-op oracle step: {:016x} vs {:016x}",
        got.hash, want.hash
    );
    println!("fingerprint {:016x}", got.hash);
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(
            got.hash, LOCAL_TRAIN_FINGERPRINT,
            "weights no longer match the pre-rewrite binary: {:016x} vs {LOCAL_TRAIN_FINGERPRINT:016x}",
            got.hash
        );
    }
}
