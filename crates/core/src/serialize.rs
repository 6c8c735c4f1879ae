//! Trained-model persistence: a registry-tagged, bit-exact binary format.
//!
//! A design-space sweep service should not retrain its models in every
//! process: training reads the (expensive) corpus, while inference only needs
//! the fitted parameter tables.  All four registry models bottom out in plain
//! `f64` tables — ridge coefficients, boosted-tree splits and leaf weights,
//! scaling-rule coefficients — so they serialize naturally over the
//! [`autopower_codec`] substrate, with every `f64` stored as its exact IEEE-754
//! bits.  A model saved with [`save_model`] and restored with [`load_model`]
//! reproduces the original model's predictions **bit for bit** (pinned by the
//! `model_serialization` integration tests).
//!
//! # Format
//!
//! An [`autopower_codec`] file (magic, named records, checksum trailer) whose
//! records are, in order:
//!
//! ```text
//! scope  autopower-model
//!   u64  version = MODEL_FORMAT_VERSION
//!   str  kind    = the ModelKind registry tag, e.g. "mcpat-calib"
//!   ...          the body written by PowerModel::serialize
//! end
//! ```
//!
//! The registry tag makes the file self-describing: [`load_model`] restores
//! the concrete type behind a `Box<dyn PowerModel>` without the caller naming
//! it, exactly like [`ModelKind::train`] does for training.  Format 2 is the
//! first binary one; a version-1 text file fails the codec's magic check with
//! [`AutoPowerError::LegacyFormat`] and must be re-saved.
//!
//! This module also holds the file plumbing the model, surrogate and
//! checkpoint formats share: atomic writes and path-naming loads.

use crate::error::AutoPowerError;
use crate::power_model::{ModelKind, PowerModel};
use autopower_codec::{self as codec, CodecError, Reader, Writer};
use autopower_config::{
    sram_positions, Component, ConfigId, CpuConfig, HardwareParams, HwParam, SramPositionId,
    SEED_CONFIG_COUNT,
};
use autopower_techlib::{SramCompiler, SramMacro, TechLibrary};
use std::path::{Path, PathBuf};

/// Version tag of the serialized model format; bumped on layout changes so a
/// stale file fails loudly instead of deserializing garbage.
pub const MODEL_FORMAT_VERSION: u64 = 2;

/// Envelope tag of a model file.
const MODEL_TAG: &str = "autopower-model";

/// Serializes a trained model (any registry kind) to the registry-tagged
/// binary format.
pub fn encode_model(model: &dyn PowerModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.begin_file(MODEL_TAG, MODEL_FORMAT_VERSION);
    w.str("kind", model.kind().registry_name());
    model.serialize(&mut w);
    w.end();
    w.finish()
}

/// Restores a trained model from [`encode_model`] bytes.
///
/// # Errors
///
/// Returns [`AutoPowerError::LegacyFormat`] for bytes without the codec
/// magic (e.g. a version-1 text file), and [`AutoPowerError::ModelFormat`]
/// on a torn or malformed stream, a version mismatch, or an unknown registry
/// tag.
pub fn decode_model(bytes: &[u8]) -> Result<Box<dyn PowerModel>, AutoPowerError> {
    let mut r = open_file(
        bytes,
        "model",
        MODEL_TAG,
        MODEL_FORMAT_VERSION,
        AutoPowerError::ModelFormat,
    )?;
    let kind: ModelKind = r.str("kind")?.parse()?;
    let model = kind.decode_trained(&mut r)?;
    r.close_file()?;
    Ok(model)
}

/// Saves a trained model to `path` (see [`encode_model`] for the format),
/// atomically: a serving process (hot reload, `--watch-models-ms`) never
/// sees a torn file.
///
/// # Errors
///
/// Returns [`AutoPowerError::ModelIo`] if the file cannot be written.
pub fn save_model(model: &dyn PowerModel, path: impl AsRef<Path>) -> Result<(), AutoPowerError> {
    write_atomic(path.as_ref(), &encode_model(model)).map_err(AutoPowerError::ModelIo)
}

/// Loads a trained model saved by [`save_model`].
///
/// # Errors
///
/// Returns [`AutoPowerError::ModelIo`] if the file cannot be read, and the
/// errors of [`decode_model`] if it does not decode.  All name the offending
/// path: a server cold-starting from several model files (or hot reloading
/// them) must be able to say *which* file is broken.
pub fn load_model(path: impl AsRef<Path>) -> Result<Box<dyn PowerModel>, AutoPowerError> {
    load_file(path.as_ref(), AutoPowerError::ModelIo, decode_model)
}

impl From<CodecError> for AutoPowerError {
    fn from(e: CodecError) -> Self {
        AutoPowerError::ModelFormat(e.to_string())
    }
}

/// Opens the codec file envelope `tag` of a `what` file (model, surrogate,
/// checkpoint) at format `version` ([`Reader::open_file`]).  Bytes without
/// the codec magic are refused with the typed
/// [`AutoPowerError::LegacyFormat`]; a torn or corrupted stream, or one of
/// another format version, is reported through `malformed`.
pub(crate) fn open_file<'a>(
    bytes: &'a [u8],
    what: &str,
    tag: &str,
    version: u64,
    malformed: impl FnOnce(String) -> AutoPowerError,
) -> Result<Reader<'a>, AutoPowerError> {
    if !codec::has_magic(bytes) {
        return Err(AutoPowerError::LegacyFormat(format!("{what} input")));
    }
    Reader::open_file(bytes, tag, version).map_err(|e| malformed(e.to_string()))
}

/// Reads `path` whole and decodes it, naming the file in every error:
/// `unreadable` wraps I/O failures, and decode errors gain the path.
pub(crate) fn load_file<T>(
    path: &Path,
    unreadable: fn(String) -> AutoPowerError,
    decode: impl FnOnce(&[u8]) -> Result<T, AutoPowerError>,
) -> Result<T, AutoPowerError> {
    let bytes =
        std::fs::read(path).map_err(|e| unreadable(format!("reading {}: {e}", path.display())))?;
    let named = |message: String| format!("{}: {message}", path.display());
    decode(&bytes).map_err(|e| match e {
        AutoPowerError::ModelFormat(m) => AutoPowerError::ModelFormat(named(m)),
        AutoPowerError::Surrogate(m) => AutoPowerError::Surrogate(named(m)),
        AutoPowerError::Checkpoint(m) => AutoPowerError::Checkpoint(named(m)),
        AutoPowerError::LegacyFormat(_) => AutoPowerError::LegacyFormat(path.display().to_string()),
        other => other,
    })
}

/// Writes `bytes` to `path` through a `.tmp` sibling and a rename, so a
/// crash mid-save can never leave a torn file where a reader would pick it
/// up.  The error message names the file that failed.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    write_atomic_with(path, bytes, |tmp, bytes| std::fs::write(tmp, bytes))
}

/// [`write_atomic`] with an injectable temp-file writer (the checkpoint
/// fault-injection seam); the rename into `path` happens only when `write`
/// returns `Ok`.
pub(crate) fn write_atomic_with(
    path: &Path,
    bytes: &[u8],
    write: impl FnOnce(&Path, &[u8]) -> std::io::Result<()>,
) -> Result<(), String> {
    let tmp = sibling_tmp(path);
    write(&tmp, bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("renaming into {}: {e}", path.display()))
}

/// The temp-file sibling [`write_atomic`] stages writes through.
pub(crate) fn sibling_tmp(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

// --- codec helpers for foreign types (config / techlib) -------------------
//
// `Codec` and these types both live outside this crate, so the orphan rule
// forbids trait impls; plain functions do the same job.

/// Writes a component by its stable registry name.
pub(crate) fn encode_component(w: &mut Writer, component: Component) {
    w.str("component", component.name());
}

/// Reads a component written by [`encode_component`].
pub(crate) fn decode_component(r: &mut Reader<'_>) -> Result<Component, CodecError> {
    let name = r.str("component")?;
    Component::ALL
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| CodecError::new(r.offset(), format!("unknown component '{name}'")))
}

/// Writes a hardware parameter by its stable Table II name.
pub(crate) fn encode_hw_param(w: &mut Writer, param: HwParam) {
    w.str("param", param.name());
}

/// Reads a hardware parameter written by [`encode_hw_param`].
pub(crate) fn decode_hw_param(r: &mut Reader<'_>) -> Result<HwParam, CodecError> {
    let name = r.str("param")?;
    HwParam::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| CodecError::new(r.offset(), format!("unknown hardware parameter '{name}'")))
}

/// Writes a full configuration: identifier kind + index and all 14 parameter
/// values (used by the streaming-sweep checkpoint format).
pub(crate) fn encode_config(w: &mut Writer, config: &CpuConfig) {
    w.begin("config");
    match config.id.generated_index() {
        Some(n) => {
            w.str("id_kind", "generated");
            w.u64("id", u64::from(n));
        }
        None => {
            w.str("id_kind", "seed");
            w.u64("id", u64::from(config.id.index()));
        }
    }
    w.begin_list("params", config.params.values().len());
    for &v in config.params.values() {
        w.u64("v", u64::from(v));
    }
    w.end();
    w.end();
}

/// Reads a configuration written by [`encode_config`].
pub(crate) fn decode_config(r: &mut Reader<'_>) -> Result<CpuConfig, CodecError> {
    r.begin("config")?;
    let kind = r.str("id_kind")?.to_owned();
    let id_at = r.offset();
    let index = r.u64("id")?;
    let id = match kind.as_str() {
        "generated" => {
            let n = u32::try_from(index)
                .ok()
                .filter(|&n| n > 0 && n < u32::MAX - SEED_CONFIG_COUNT)
                .ok_or_else(|| {
                    CodecError::new(
                        id_at,
                        format!("generated config index {index} out of range"),
                    )
                })?;
            ConfigId::generated(n)
        }
        "seed" => {
            let n = u8::try_from(index)
                .ok()
                .filter(|&n| (1..=SEED_CONFIG_COUNT as u8).contains(&n))
                .ok_or_else(|| {
                    CodecError::new(id_at, format!("seed config index {index} out of range"))
                })?;
            ConfigId::new(n)
        }
        other => {
            return Err(CodecError::new(
                id_at,
                format!("unknown config id kind '{other}'"),
            ))
        }
    };
    let count = r.begin_list("params")?;
    let mut values = [0u32; 14];
    if count != values.len() {
        return Err(CodecError::new(
            r.offset(),
            format!("expected {} parameter values, found {count}", values.len()),
        ));
    }
    for slot in &mut values {
        let at = r.offset();
        let v = r.u64("v")?;
        *slot = u32::try_from(v)
            .map_err(|_| CodecError::new(at, format!("parameter value {v} exceeds u32")))?;
    }
    r.end()?;
    r.end()?;
    Ok(CpuConfig::new(id, HardwareParams::new(values)))
}

/// Writes an SRAM position as its owning component plus short name.
pub(crate) fn encode_position(w: &mut Writer, position: SramPositionId) {
    w.begin("position");
    encode_component(w, position.component);
    w.str("name", position.name);
    w.end();
}

/// Reads a position written by [`encode_position`] and re-resolves it against
/// the catalogue (positions are architecture-level facts, not file payload).
pub(crate) fn decode_position(r: &mut Reader<'_>) -> Result<SramPositionId, CodecError> {
    r.begin("position")?;
    let component = decode_component(r)?;
    let name = r.str("name")?;
    let position_at = r.offset();
    r.end()?;
    sram_positions()
        .iter()
        .map(|p| p.id)
        .find(|id| id.component == component && id.name == name)
        .ok_or_else(|| {
            CodecError::new(
                position_at,
                format!("unknown SRAM position '{component}.{name}'"),
            )
        })
}

/// Writes the full technology library (cells + macro catalogue), so a loaded
/// model predicts with exactly the library it was trained with even if the
/// default library ever changes.
pub(crate) fn encode_library(w: &mut Writer, library: &TechLibrary) {
    w.begin("library");
    w.str("node", &library.node);
    w.f64("clock_ghz", library.clock_ghz);
    let cells = library.cells();
    w.begin("cells");
    w.f64("register_clock_pin_mw", cells.register_clock_pin_mw);
    w.f64("gating_cell_latch_mw", cells.gating_cell_latch_mw);
    w.f64("register_toggle_pj", cells.register_toggle_pj);
    w.f64("register_leakage_mw", cells.register_leakage_mw);
    w.f64("comb_dynamic_mw_per_gate", cells.comb_dynamic_mw_per_gate);
    w.f64("comb_leakage_mw_per_gate", cells.comb_leakage_mw_per_gate);
    w.f64("gating_cell_fanout", cells.gating_cell_fanout);
    w.end();
    let macros = library.sram().supported_macros();
    w.begin_list("macros", macros.len());
    for m in macros {
        w.begin("macro");
        w.u64("width", m.width as u64);
        w.u64("depth", m.depth as u64);
        w.f64("read_energy_pj", m.read_energy_pj);
        w.f64("write_energy_pj", m.write_energy_pj);
        w.f64("leakage_mw", m.leakage_mw);
        w.f64("area", m.area);
        w.end();
    }
    w.end();
    w.end();
}

/// Reads a library written by [`encode_library`].
pub(crate) fn decode_library(r: &mut Reader<'_>) -> Result<TechLibrary, CodecError> {
    r.begin("library")?;
    let node = r.str("node")?.to_owned();
    let clock_ghz = r.f64("clock_ghz")?;
    r.begin("cells")?;
    let cells = autopower_techlib::CellParams {
        register_clock_pin_mw: r.f64("register_clock_pin_mw")?,
        gating_cell_latch_mw: r.f64("gating_cell_latch_mw")?,
        register_toggle_pj: r.f64("register_toggle_pj")?,
        register_leakage_mw: r.f64("register_leakage_mw")?,
        comb_dynamic_mw_per_gate: r.f64("comb_dynamic_mw_per_gate")?,
        comb_leakage_mw_per_gate: r.f64("comb_leakage_mw_per_gate")?,
        gating_cell_fanout: r.f64("gating_cell_fanout")?,
    };
    r.end()?;
    let len = r.begin_list("macros")?;
    let mut macros = Vec::with_capacity(len);
    for _ in 0..len {
        r.begin("macro")?;
        macros.push(SramMacro {
            width: r.u64("width")? as u32,
            depth: r.u64("depth")? as u32,
            read_energy_pj: r.f64("read_energy_pj")?,
            write_energy_pj: r.f64("write_energy_pj")?,
            leakage_mw: r.f64("leakage_mw")?,
            area: r.f64("area")?,
        });
        r.end()?;
    }
    r.end()?;
    r.end()?;
    if macros.is_empty() || clock_ghz <= 0.0 || clock_ghz.is_nan() {
        return Err(CodecError::new(
            r.offset(),
            "library must carry a positive clock and at least one macro",
        ));
    }
    Ok(TechLibrary::with_parts(
        node,
        clock_ghz,
        cells,
        SramCompiler::from_macros(macros),
    ))
}

/// Test-only byte mutation behind the decoder fuzz properties: at fraction
/// `at` of the stream, `op` 0 flips bits of the byte there (xor with
/// `byte + 1`), 1 inserts `byte`, 2 deletes the byte, 3 truncates.
#[cfg(test)]
pub(crate) fn mutate(bytes: &[u8], op: u8, at: f64, byte: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let i = ((bytes.len() as f64 * at) as usize).min(bytes.len() - 1);
    match op {
        0 => out[i] ^= byte.wrapping_add(1),
        1 => out.insert(i, byte),
        2 => {
            out.remove(i);
        }
        _ => out.truncate(i),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopower_codec::Codec as _;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    #[test]
    fn library_round_trips_bit_for_bit() {
        let lib = TechLibrary::tsmc40_like();
        let mut w = Writer::new();
        encode_library(&mut w, &lib);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes).unwrap();
        let back = decode_library(&mut r).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn components_params_and_positions_round_trip() {
        for component in Component::ALL {
            let mut w = Writer::new();
            encode_component(&mut w, component);
            let bytes = w.finish();
            assert_eq!(
                decode_component(&mut Reader::new(&bytes).unwrap()).unwrap(),
                component
            );
        }
        for param in HwParam::ALL {
            let mut w = Writer::new();
            encode_hw_param(&mut w, param);
            let bytes = w.finish();
            assert_eq!(
                decode_hw_param(&mut Reader::new(&bytes).unwrap()).unwrap(),
                param
            );
        }
        for position in sram_positions() {
            let mut w = Writer::new();
            encode_position(&mut w, position.id);
            let bytes = w.finish();
            assert_eq!(
                decode_position(&mut Reader::new(&bytes).unwrap()).unwrap(),
                position.id
            );
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut w = Writer::new();
        w.str("component", "FluxCapacitor");
        let bytes = w.finish();
        assert!(decode_component(&mut Reader::new(&bytes).unwrap()).is_err());
    }

    /// A model stream with a hand-written header: the checksum is valid, so
    /// the header checks themselves must refuse it.
    fn stream_with_header(version: u64, kind: &str) -> Vec<u8> {
        let mut w = Writer::new();
        w.begin("autopower-model");
        w.u64("version", version);
        w.str("kind", kind);
        w.end();
        w.finish()
    }

    #[test]
    fn version_and_kind_tags_are_enforced() {
        let err = decode_model(&stream_with_header(999, "mcpat-calib")).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
        assert!(err.to_string().contains("version 999"));

        let err = decode_model(&stream_with_header(MODEL_FORMAT_VERSION, "xgboost")).unwrap_err();
        assert!(matches!(err, AutoPowerError::UnknownModel(_)));

        let mut w = Writer::new();
        w.begin("not-a-model");
        w.end();
        let err = decode_model(&w.finish()).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
        assert!(err.to_string().contains("autopower-model"));

        let err = decode_model(b"autopower-model {\n version 1\n}\n").unwrap_err();
        assert!(matches!(err, AutoPowerError::LegacyFormat(_)));
    }

    #[test]
    fn save_and_load_round_trip_through_the_filesystem() {
        use crate::dataset::{Corpus, CorpusSpec};
        use autopower_config::{boom_configs, ConfigId, Workload};

        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Dhrystone, Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let model = ModelKind::McpatCalib.train(&corpus, &train).unwrap();

        let dir = std::env::temp_dir().join("autopower-serialize-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mcpat-calib.apm");
        save_model(model.as_ref(), &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded.kind(), ModelKind::McpatCalib);
        for run in corpus.runs() {
            assert_eq!(
                loaded.predict_total(run).to_bits(),
                model.predict_total(run).to_bits()
            );
        }
        std::fs::remove_file(&path).ok();

        let err = load_model(dir.join("does-not-exist.apm")).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelIo(_)));
    }

    #[test]
    fn load_errors_name_the_offending_file() {
        let dir = std::env::temp_dir().join("autopower-serialize-path-test");
        std::fs::create_dir_all(&dir).unwrap();

        // I/O failure: the missing file's path is in the message.
        let missing = dir.join("missing.apm");
        let err = load_model(&missing).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelIo(_)));
        assert!(
            err.to_string().contains("missing.apm"),
            "I/O error must name the file: {err}"
        );

        // Format failures: a readable file that is not a model — foreign
        // bytes, or a model stream torn short — is named too: a server
        // loading several model files must say which one is broken.
        let garbage = dir.join("garbage.apm");
        std::fs::write(&garbage, "not a model file\n").unwrap();
        let err = load_model(&garbage).unwrap_err();
        assert!(matches!(err, AutoPowerError::LegacyFormat(_)));
        assert!(
            err.to_string().contains("garbage.apm"),
            "format error must name the file: {err}"
        );
        let torn = stream_with_header(MODEL_FORMAT_VERSION, "mcpat-calib");
        std::fs::write(&garbage, &torn[..torn.len() - 1]).unwrap();
        let err = load_model(&garbage).unwrap_err();
        assert!(matches!(err, AutoPowerError::ModelFormat(_)));
        assert!(
            err.to_string().contains("garbage.apm"),
            "format error must name the file: {err}"
        );
        std::fs::remove_file(&garbage).ok();
    }

    #[test]
    fn codec_trait_is_reachable_for_concrete_models() {
        // Concrete model types implement `Codec` directly (decode needs the
        // concrete type); the dyn path goes through PowerModel::serialize +
        // ModelKind::decode_trained.  Pin that both name the same format.
        use crate::baselines::McpatCalib;
        use crate::dataset::{Corpus, CorpusSpec};
        use autopower_config::{boom_configs, ConfigId, Workload};

        let cfgs = boom_configs();
        let corpus = Corpus::generate(
            &[cfgs[0], cfgs[14]],
            &[Workload::Vvadd],
            &CorpusSpec::fast(),
        );
        let train = [ConfigId::new(1), ConfigId::new(15)];
        let concrete = McpatCalib::train(&corpus, &train).unwrap();
        let mut w = Writer::new();
        concrete.encode(&mut w);
        let direct = w.finish();

        let mut w = Writer::new();
        PowerModel::serialize(&concrete, &mut w);
        assert_eq!(w.finish(), direct);
    }

    proptest! {
        /// A valid model encoding flipped, grown, shrunk or cut at any byte
        /// fails to decode — with an error, never a panic and never a model.
        #[test]
        fn mutated_model_streams_fail_to_decode(op in 0u8..4, at in 0.0f64..1.0, byte in 0u8..255) {
            static ENCODED: OnceLock<Vec<u8>> = OnceLock::new();
            let bytes = ENCODED.get_or_init(|| {
                use crate::dataset::{Corpus, CorpusSpec};
                use autopower_config::{boom_configs, Workload};

                let cfgs = boom_configs();
                let corpus = Corpus::generate(
                    &[cfgs[0], cfgs[14]],
                    &[Workload::Dhrystone, Workload::Vvadd],
                    &CorpusSpec::fast(),
                );
                let train = [ConfigId::new(1), ConfigId::new(15)];
                encode_model(ModelKind::McpatCalib.train(&corpus, &train).unwrap().as_ref())
            });
            prop_assert!(decode_model(&mutate(bytes, op, at, byte)).is_err());
        }
    }
}
