//! The checkpoint wire format (`CHECKPOINT_VERSION` 1), pinned from the
//! outside.
//!
//! Both fixtures were written by the code of the commit *before*
//! `CheckpointRecord::encode` / `decode` stopped going through a `Tensor`
//! and three byte buffers (2fc4b8c), by the set-up repeated in
//! [`factory`] / [`round_data`] below — never regenerate them with a
//! newer build:
//!
//! - `fixtures/checkpoint_v1.bin`: one encoded record (three stages, one
//!   of them empty; `-0.0`, a subnormal, `-inf` and a NaN with a payload
//!   among the parameters);
//! - `fixtures/parent_store/`: the run store a two-stage trainer with
//!   `RuntimeOptions::store_path` left behind after its launch checkpoint
//!   and two sync-rounds (on a fused-kernel host; every tier computes
//!   that chain, so the bytes are the same on any CPU).
//!
//! Beside them, the decoder's length arithmetic: a bit-flipped header may
//! claim any count, and the answer is a typed error, not a panic.

use ecofl_obs::store::{CHECKPOINT_SEGMENT, TRACE_SEGMENT};
use ecofl_obs::RunStore;
use ecofl_pipeline::executor::ExecError;
use ecofl_pipeline::runtime::{
    load_checkpoint_at_or_before, stored_checkpoints, CheckpointRecord, PipelineTrainer,
    RuntimeOptions, SegmentFactory,
};
use ecofl_tensor::{Layer, Linear, ReLU, Tensor};
use ecofl_util::Rng;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ecofl-ckpt-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_record() -> CheckpointRecord {
    CheckpointRecord {
        seq: 0x0102_0304_0506_0708,
        round: 9,
        stage_lens: vec![3, 0, 2],
        params: vec![
            1.5,
            -0.0,
            f32::from_bits(1),
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_1234),
        ],
    }
}

fn bits(params: &[f32]) -> Vec<u32> {
    params.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn golden_payload_is_what_encode_writes_and_decode_reads() {
    let golden = std::fs::read(fixture("checkpoint_v1.bin")).unwrap();
    let record = golden_record();
    assert_eq!(record.encode(), golden, "the byte layout moved");

    let decoded = CheckpointRecord::decode(&golden).expect("golden payload decodes");
    assert_eq!(
        (decoded.seq, decoded.round, &decoded.stage_lens),
        (record.seq, record.round, &record.stage_lens)
    );
    // Bit patterns, not values: NaN != NaN and -0.0 == 0.0.
    assert_eq!(bits(&decoded.params), bits(&record.params));
}

/// `payload` with the little-endian `u64` at `at` replaced.
fn with_word(payload: &[u8], at: usize, value: u64) -> Vec<u8> {
    let mut out = payload.to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    out
}

fn assert_rejected(payload: &[u8], what: &str) {
    match CheckpointRecord::decode(payload) {
        Err(ExecError::CheckpointStore { .. }) => {}
        other => panic!("{what}: expected CheckpointStore, got {other:?}"),
    }
}

/// Offsets into the golden payload: the stage count, its three lengths,
/// then the tensor's rank and dimension.
const NSTAGES_AT: usize = 20;
const LENS_AT: usize = 28;
const RANK_AT: usize = 52;
const DIM_AT: usize = 60;

#[test]
fn counts_that_overflow_the_length_arithmetic_are_typed_errors() {
    let golden = std::fs::read(fixture("checkpoint_v1.bin")).unwrap();

    // `nstages * 8` wraps to 0 for 1 << 61, and to 8 for (1 << 61) + 1.
    for nstages in [1 << 61, (1 << 61) + 1, u64::MAX, 1 << 32, 12] {
        let payload = with_word(&golden, NSTAGES_AT, nstages);
        assert_rejected(&payload, &format!("nstages = {nstages}"));
    }
    // The sum of the lengths wraps back to the true total of 5.
    let wrapped_sum = with_word(
        &with_word(&golden, LENS_AT, 1 << 63),
        LENS_AT + 8,
        (1 << 63) + 3,
    );
    assert_rejected(&wrapped_sum, "stage lengths summing past u64::MAX");
    // `16 + 4 * total` wraps to 16: a header-only payload whose tensor
    // claims 1 << 62 elements.
    let mut wrapped_bytes = with_word(&golden[..DIM_AT + 8], DIM_AT, 1 << 62);
    wrapped_bytes = with_word(&wrapped_bytes, LENS_AT, 1 << 62);
    wrapped_bytes = with_word(&wrapped_bytes, LENS_AT + 16, 0);
    assert_rejected(&wrapped_bytes, "4 * total wrapping to 0");
    for len in [u64::MAX, 1 << 62, 4] {
        let payload = with_word(&golden, LENS_AT, len);
        assert_rejected(&payload, &format!("stage 0 length = {len}"));
    }
    // The tensor header must say rank 1 and the lengths' total.
    assert_rejected(&with_word(&golden, RANK_AT, 2), "rank 2");
    assert_rejected(&with_word(&golden, RANK_AT, 0), "rank 0");
    assert_rejected(&with_word(&golden, DIM_AT, 4), "dimension 4 of 5");
    assert_rejected(&with_word(&golden, DIM_AT, u64::MAX), "dimension u64::MAX");
}

/// The two-stage trainer the parent store was written by.
fn factory() -> SegmentFactory {
    Box::new(|| {
        let mut rng = Rng::new(2022);
        vec![
            vec![
                Box::new(Linear::new(6, 5, &mut rng)) as Box<dyn Layer>,
                Box::new(ReLU::new()),
            ],
            vec![Box::new(Linear::new(5, 3, &mut rng)) as Box<dyn Layer>],
        ]
    })
}

fn round_data(round: u64) -> Vec<(Tensor, Vec<usize>)> {
    let mut rng = Rng::new(500 + round);
    (0..3)
        .map(|_| {
            let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
            let y = (0..4).map(|_| rng.range_usize(0, 3)).collect();
            (x, y)
        })
        .collect()
}

fn launch_into(store: &Path) -> PipelineTrainer {
    let opts = RuntimeOptions {
        store_path: Some(store.to_path_buf()),
        ..RuntimeOptions::default()
    };
    PipelineTrainer::launch_supervised(factory(), vec![2, 1], opts).expect("launch")
}

/// Every `(seq, round, payload)` of the store at `dir`, in order.
fn checkpoint_sequence(dir: &Path) -> Vec<(u64, u64, Vec<u8>)> {
    let store = RunStore::open(dir).unwrap();
    store
        .checkpoint_metas()
        .iter()
        .map(|meta| {
            let payload = store.read_checkpoint(meta.seq).unwrap().unwrap();
            (meta.seq, meta.round, payload)
        })
        .collect()
}

#[test]
fn a_store_written_by_the_parent_reads_back_recovers_and_is_what_this_build_writes() {
    // Opening a segment re-seals it, so work on a copy.
    let parent = temp_dir("parent");
    std::fs::create_dir_all(&parent).unwrap();
    for seg in [TRACE_SEGMENT, CHECKPOINT_SEGMENT, "metrics.seg"] {
        std::fs::copy(fixture("parent_store").join(seg), parent.join(seg)).unwrap();
    }
    let theirs = checkpoint_sequence(&parent);
    assert_eq!(
        theirs.iter().map(|c| (c.0, c.1)).collect::<Vec<_>>(),
        [(0, 0), (1, 1), (2, 2)]
    );
    for (seq, round, payload) in &theirs {
        let record = CheckpointRecord::decode(payload).expect("parent payload decodes");
        assert_eq!((record.seq, record.round), (*seq, *round));
        assert_eq!(record.stage_lens, [6 * 5 + 5, 5 * 3 + 3]);
        assert_eq!(&record.encode(), payload, "re-encoding moved a byte");
    }

    // The same run on this build leaves the same sequence behind, byte
    // for byte, whatever GEMM tier the rounds went through.
    let fresh = temp_dir("fresh");
    let mut trainer = launch_into(&fresh);
    for round in 0..2 {
        trainer.train_round(&round_data(round), 0.1).expect("round");
    }
    trainer.shutdown();
    let ours = checkpoint_sequence(&fresh);
    assert_eq!(ours.len(), theirs.len());
    assert_eq!(ours[0], theirs[0], "launch checkpoint");
    assert_eq!(ours, theirs, "post-round checkpoints");

    // A trainer launched on the parent's store numbers on from it, and
    // the parent's newest snapshot restores into it.
    let mut trainer = launch_into(&parent);
    let metas = stored_checkpoints(&parent).unwrap();
    assert_eq!(metas.len(), 4);
    assert_eq!((metas[3].seq, metas[3].round), (3, 0));
    let snapshot = load_checkpoint_at_or_before(&parent, 2)
        .unwrap()
        .expect("the parent's round-2 checkpoint");
    assert_eq!(snapshot.encode(), theirs[2].2);
    trainer
        .set_params(&snapshot.params, &snapshot.stage_lens)
        .expect("restore");
    assert_eq!(trainer.params().expect("collect"), snapshot.params);
    trainer.shutdown();

    std::fs::remove_dir_all(&parent).ok();
    std::fs::remove_dir_all(&fresh).ok();
}
