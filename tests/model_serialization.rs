//! Save/load acceptance: every registry model round-trips through the
//! registry-tagged binary format with **bit-identical** predictions, the
//! encoded bytes are a stable golden form (re-encoding a loaded model
//! reproduces them byte for byte), and a loaded model's sweep output equals
//! the freshly-trained model's — so a sweep service can skip retraining
//! entirely.  Files written before the binary format 2 are refused with a
//! typed error that names them.

use autopower_repro::config::{boom_configs, ConfigId, DesignSpace, Workload};
use autopower_repro::ml::{GbdtParams, GradientBoosting};
use autopower_repro::model::codec::{self, Codec, Reader, Writer};
use autopower_repro::model::{
    decode_model, encode_model, load_checkpoint, load_model, AutoPowerError, Corpus, CorpusSpec,
    ModelKind, PowerModel, SweepEngine, SweepSpec, MODEL_FORMAT_VERSION,
};
use std::sync::OnceLock;

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let cfgs = boom_configs();
        Corpus::generate(
            &[cfgs[0], cfgs[7], cfgs[14]],
            &[Workload::Dhrystone, Workload::Qsort, Workload::Vvadd],
            &CorpusSpec::fast(),
        )
    })
}

fn train_ids() -> [ConfigId; 2] {
    [ConfigId::new(1), ConfigId::new(15)]
}

#[test]
fn every_registry_model_round_trips_with_bit_identical_predictions() {
    let c = corpus();
    for kind in ModelKind::ALL {
        let trained = kind.train(c, &train_ids()).unwrap();
        let bytes = encode_model(trained.as_ref());
        let loaded = decode_model(&bytes).unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert_eq!(loaded.kind(), kind);
        for run in c.runs() {
            // The full typed prediction — total AND resolved structure — is
            // equal, not just close.
            assert_eq!(
                loaded.predict_run(run),
                trained.predict_run(run),
                "{kind} prediction drifted through serialization"
            );
            assert_eq!(
                loaded.predict_total(run).to_bits(),
                trained.predict_total(run).to_bits(),
                "{kind} total drifted through serialization"
            );
            assert_eq!(
                loaded.predict_run_components(run),
                trained.predict_run_components(run),
                "{kind} component view drifted through serialization"
            );
        }
    }
}

#[test]
fn encoded_form_is_a_stable_golden_format() {
    // decode(encode(m)) re-encodes to the *same bytes*: the format is
    // canonical, so golden files and drift detection are byte comparisons.
    let c = corpus();
    for kind in ModelKind::ALL {
        let trained = kind.train(c, &train_ids()).unwrap();
        let bytes = encode_model(trained.as_ref());
        let loaded = decode_model(&bytes).unwrap();
        assert_eq!(
            encode_model(loaded.as_ref()),
            bytes,
            "{kind} re-encoding is not canonical"
        );
        // Header golden: the codec magic, then the version and the registry
        // tag as the first records of the top-level scope.
        assert!(codec::has_magic(&bytes));
        let mut r = Reader::new(&bytes).unwrap();
        r.begin("autopower-model").unwrap();
        assert_eq!(r.u64("version").unwrap(), MODEL_FORMAT_VERSION);
        assert_eq!(r.str("kind").unwrap(), kind.registry_name());
    }
}

/// Encodes `model`'s body under a hand-written header.  The stream is
/// well-formed and checksummed, so only the semantic checks can refuse it.
fn encode_with_header(model: &dyn PowerModel, version: u64, kind: &str) -> Vec<u8> {
    let mut w = Writer::new();
    w.begin("autopower-model");
    w.u64("version", version);
    w.str("kind", kind);
    model.serialize(&mut w);
    w.end();
    w.finish()
}

#[test]
fn loaded_model_sweeps_bit_identically_to_the_trained_model() {
    let c = corpus();
    let configs = DesignSpace::boom().sample(5, 17);
    let workloads = [Workload::Dhrystone, Workload::Vvadd];
    let spec = SweepSpec::fast().threads(2);
    for kind in [ModelKind::AutoPower, ModelKind::McpatCalib] {
        let trained = kind.train(c, &train_ids()).unwrap();
        let loaded = decode_model(&encode_model(trained.as_ref())).unwrap();
        let fresh = SweepEngine::new(trained.as_ref(), spec).run(&configs, &workloads);
        let restored = SweepEngine::new(loaded.as_ref(), spec).run(&configs, &workloads);
        assert_eq!(
            fresh, restored,
            "{kind} sweep drifted through serialization"
        );
    }
}

#[test]
fn tampered_files_fail_loudly() {
    let c = corpus();
    let trained = ModelKind::McpatCalib.train(c, &train_ids()).unwrap();
    let bytes = encode_model(trained.as_ref());
    assert_eq!(
        encode_with_header(trained.as_ref(), MODEL_FORMAT_VERSION, "mcpat-calib"),
        bytes,
        "the hand-written header must match encode_model's"
    );

    // Wrong registry tag.
    let wrong_kind = encode_with_header(trained.as_ref(), MODEL_FORMAT_VERSION, "autopower");
    assert!(
        decode_model(&wrong_kind).is_err(),
        "kind/body mismatch must fail"
    );

    // Wrong version.
    let wrong_version = encode_with_header(trained.as_ref(), 9999, "mcpat-calib");
    let err = decode_model(&wrong_version).unwrap_err();
    assert!(err.to_string().contains("9999"));

    // Truncation.
    let truncated = &bytes[..bytes.len() / 2];
    assert!(decode_model(truncated).is_err());

    // A trailing record after the closing scope, and raw bytes after the
    // checksum trailer.
    let mut w = Writer::new();
    w.begin("autopower-model");
    w.u64("version", MODEL_FORMAT_VERSION);
    w.str("kind", "mcpat-calib");
    trained.serialize(&mut w);
    w.end();
    w.u64("extra", 1);
    let err = decode_model(&w.finish()).unwrap_err();
    assert!(err.to_string().contains("trailing"), "{err}");
    let mut trailing = bytes.clone();
    trailing.extend_from_slice(b"extra 1\n");
    assert!(decode_model(&trailing).is_err());
}

#[test]
fn a_crafted_list_length_is_an_error_not_a_panic_or_an_abort() {
    // A GBDT whose `trees` list declares ~2^60 entries: sizing a Vec by that
    // count would panic (capacity overflow) or abort the process on
    // allocation.  The codec must refuse the count first.
    let mut w = Writer::new();
    w.begin("autopower-model");
    w.u64("version", MODEL_FORMAT_VERSION);
    w.str("kind", "mcpat-calib");
    w.begin("mcpat-calib");
    w.begin("gbdt");
    GbdtParams::default().encode(&mut w);
    w.f64("base_score", 0.0);
    w.begin_list("trees", (1 << 60) - 1);
    w.end();
    w.end();
    w.end();
    w.end();
    let bytes = w.finish();

    // The GBDT decoder alone, positioned at the GBDT...
    let mut r = Reader::new(&bytes).unwrap();
    r.begin("autopower-model").unwrap();
    r.u64("version").unwrap();
    r.str("kind").unwrap();
    r.begin("mcpat-calib").unwrap();
    let err = GradientBoosting::decode(&mut r).unwrap_err();
    assert!(err.to_string().contains("'trees' declares"), "{err}");
    // ...and the full model path.
    let err = decode_model(&bytes).unwrap_err();
    assert!(err.to_string().contains("'trees' declares"), "{err}");
}

#[test]
fn files_written_before_format_2_fail_with_the_typed_resave_error() {
    let dir = std::env::temp_dir().join(format!("autopower-legacy-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // The head of a version-1 text model, as the text encoding wrote it.
    let model = dir.join("legacy-model.apm");
    std::fs::write(
        &model,
        "autopower-model {\n  version 1\n  kind mcpat-calib\n  mcpat-calib {\n",
    )
    .unwrap();
    let err = load_model(&model).unwrap_err();
    assert!(matches!(err, AutoPowerError::LegacyFormat(_)), "{err:?}");
    let message = err.to_string();
    assert!(message.contains("legacy-model.apm"), "{message}");
    assert!(message.contains("re-saved"), "{message}");

    // The head of a version-1 text checkpoint.
    let checkpoint = dir.join("legacy.ckpt");
    std::fs::write(
        &checkpoint,
        "sweep-checkpoint {\n  version 1\n  fingerprint 42\n",
    )
    .unwrap();
    let err = load_checkpoint(&checkpoint).unwrap_err();
    assert!(matches!(err, AutoPowerError::LegacyFormat(_)), "{err:?}");
    let message = err.to_string();
    assert!(message.contains("legacy.ckpt"), "{message}");
    assert!(
        message.contains("re-saved, or the sweep rerun"),
        "{message}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serialization_also_pins_the_trained_model_against_behavioural_drift() {
    // A PowerModel is deterministic: training twice and loading a saved copy
    // all agree.  This is the property that lets CI gate the format — any
    // change to training or to the codec shows up as a diff here.
    let c = corpus();
    let a = ModelKind::AutoPowerMinus.train(c, &train_ids()).unwrap();
    let b = ModelKind::AutoPowerMinus.train(c, &train_ids()).unwrap();
    assert_eq!(encode_model(a.as_ref()), encode_model(b.as_ref()));
}
