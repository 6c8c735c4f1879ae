//! Command-line entry point of the experiment harness.
//!
//! ```text
//! autopower-experiments [--fast] [--threads N] [--count N] [--model NAME]
//!                       [--load-model FILE] [--out FILE] [--no-sim-cache]
//!                       [--stream] [--full] [--chunk N] [--checkpoint FILE]
//!                       [--resume] [--max-chunks N] [EXPERIMENT ...]
//! ```
//!
//! `EXPERIMENT` is one of `obs1`, `table1`, `fig4`, `fig5`, `fig6`, `fig7`, `fig8`,
//! `table4`, `ablation`, `sweep`, `pareto`, `xval`, `compare`, `save-model`, or
//! `all` (the default; `all` does not include `save-model`, which writes a file).
//! `--fast` switches to the reduced settings used by tests and benches;
//! `--threads N` sets the worker count of the corpus-generation and sweep
//! pipelines (default: one per available core, `1` = serial); `--count N` sets
//! how many generated configurations the `sweep` and `compare` experiments
//! score; `--model NAME` selects the registry model the `sweep`, `table4`,
//! `xval` and `save-model` verbs run under (`autopower`, `mcpat-calib`,
//! `mcpat-calib-component`, `autopower-minus`).
//!
//! Model persistence: `save-model` trains `--model` on the sweep corpus and
//! writes it to `--out FILE` (default `<model>.apm`); `--load-model FILE`
//! makes `sweep` and `table4` restore that trained model instead of
//! retraining — the results are bit-identical to the retrained run.  Flags
//! and experiment names may appear in any order; unknown or duplicate
//! experiment names, unknown model names, `--load-model` on experiments
//! that retrain by design and `--no-sim-cache` on experiments that never
//! cache simulations are rejected before any corpus is generated.
//!
//! `--no-sim-cache` disables the sweep engine's exact simulation memoization
//! (`sweep`, `compare` and `pareto` only) — an audit knob; the scored points
//! are bit-identical either way.
//!
//! Sweeps: `sweep` and `pareto` both stream their configurations through the
//! bounded-memory aggregator (O(top-k + sketches + one chunk) memory) —
//! `--count N` samples or, with `--full`, the **entire** enumerable design
//! space.  `--stream` is accepted and has no effect (every sweep streams).
//! `--chunk N` sets the configurations per chunk, `--checkpoint FILE`
//! snapshots the aggregate after every chunk, `--resume` continues from that
//! snapshot (byte-identical final report), and `--max-chunks N` stops after N
//! chunks — the deterministic stand-in for an interrupt, used by the CI resume
//! smoke.  `sweep` prints quantiles and the top configurations; `pareto`
//! prints the power-vs-IPC-vs-area-proxy non-dominated frontier.
//! Process-local diagnostics (cache hit rates, peak retained points) go to
//! stderr so one-shot and resumed stdout compare equal.

use autopower::{CorpusSpec, ModelKind, ParetoConstraints};
use autopower_experiments::{
    ExperimentSettings, Experiments, ModelSource, StreamScope, SurrogateOptions, SurrogateSpec,
    SweepRequest, DEFAULT_AUDIT_RATE, DEFAULT_SURROGATE_TRAIN,
};
use std::path::PathBuf;
use std::process::ExitCode;

const ALL_EXPERIMENTS: [&str; 13] = [
    "obs1", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "table4", "ablation", "sweep",
    "pareto", "xval", "compare",
];

/// Experiments `--load-model` applies to: the ones that consume exactly one
/// trained model (everything else retrains by design — `xval` per fold,
/// `compare` for every registry entry).
const LOADABLE_EXPERIMENTS: [&str; 3] = ["sweep", "table4", "pareto"];

/// Experiments `--no-sim-cache` applies to: the ones that run the batch sweep
/// engine and therefore memoize simulations across configurations.  The flag
/// is an audit knob — the scored points are bit-identical either way.
const SIM_CACHE_EXPERIMENTS: [&str; 3] = ["sweep", "compare", "pareto"];

/// Experiments that can walk the full design space (`--full`) and accept the
/// no-op `--stream`; `--chunk` is accepted for these plus `compare` (any user
/// of the sweep engine).
const STREAM_EXPERIMENTS: [&str; 2] = ["sweep", "pareto"];

/// Experiments `--checkpoint`/`--resume`/`--max-chunks` apply to: only the
/// streaming sweep persists its aggregate (`pareto` re-streams cheaply and
/// keeps no checkpoint file).
const CHECKPOINT_EXPERIMENTS: [&str; 1] = ["sweep"];

/// Experiments `--surrogate` (and its `--surrogate-train`, `--audit-rate`,
/// `--save-surrogate`, `--load-surrogate` companions) applies to: the
/// design-space scoring verbs.  Everything else reproduces paper numbers and
/// must simulate exactly.
const SURROGATE_EXPERIMENTS: [&str; 2] = ["sweep", "pareto"];

/// Experiments `--max-power`/`--min-ipc` apply to: only the frontier fold
/// filters by feasibility.
const CONSTRAINT_EXPERIMENTS: [&str; 1] = ["pareto"];

/// The verb that trains and saves a model instead of running an experiment
/// (deliberately not part of `all`: it writes a file).
const SAVE_MODEL: &str = "save-model";

/// The usage string, with the experiment and model lists derived from
/// [`ALL_EXPERIMENTS`] and [`ModelKind::ALL`] so help text cannot drift from
/// the registries.
fn usage() -> String {
    let models: Vec<&str> = ModelKind::ALL
        .iter()
        .map(|kind| kind.registry_name())
        .collect();
    format!(
        "usage: autopower-experiments [--fast] [--threads N] [--count N] [--model NAME] \
         [--load-model FILE] [--out FILE] [--no-sim-cache] [--stream] [--full] [--chunk N] \
         [--checkpoint FILE] [--resume] [--max-chunks N] [--surrogate] [--surrogate-train N] \
         [--audit-rate R] [--save-surrogate FILE] [--load-surrogate FILE] [--max-power MW] \
         [--min-ipc IPC] [{}|{SAVE_MODEL}|all ...]\n\
         models: {} (default: {})\n\
         {SAVE_MODEL} trains --model and writes it to --out (default <model>.apm); \
         --load-model applies to {} only; --no-sim-cache disables sweep simulation \
         memoization ({} only, bit-identical output)\n\
         streaming ({} only; both always stream with bounded memory, --stream is accepted \
         and has no effect): --full streams the whole enumerable space (instead of --count \
         samples), --chunk sets configurations per chunk; --checkpoint writes a snapshot \
         after every chunk, --resume continues from it (byte-identical report), \
         --max-chunks stops after N chunks ({} only)\n\
         surrogate ({} only): --surrogate scores with a learned activity surrogate and \
         simulates only a deterministic --audit-rate fraction (default {DEFAULT_AUDIT_RATE}, \
         in (0, 1]) exactly to report the error bound; --surrogate-train N sets the oracle \
         training-set size (default {DEFAULT_SURROGATE_TRAIN}); --save-surrogate/\
         --load-surrogate persist the trained surrogate\n\
         pareto feasibility ({} only): --max-power keeps configurations predicted at or \
         under the bound (mW), --min-ipc keeps those at or above the IPC bound; both are \
         applied before the frontier fold",
        ALL_EXPERIMENTS.join("|"),
        models.join(", "),
        ModelKind::AutoPower,
        LOADABLE_EXPERIMENTS.join("/"),
        SIM_CACHE_EXPERIMENTS.join("/"),
        STREAM_EXPERIMENTS.join("/"),
        CHECKPOINT_EXPERIMENTS.join("/"),
        SURROGATE_EXPERIMENTS.join("/"),
        CONSTRAINT_EXPERIMENTS.join("/"),
    )
}

/// Default number of generated configurations the `sweep` and `compare`
/// experiments score.
const DEFAULT_SWEEP_COUNT: usize = 256;

/// Everything the command line selects: settings knobs and the experiment list.
#[derive(Debug)]
struct CliArgs {
    fast: bool,
    threads: usize,
    count: usize,
    model: ModelKind,
    /// Whether `--model` was given explicitly (a loaded model of a different
    /// kind is then a hard error instead of silently winning).
    model_explicit: bool,
    /// Path to a saved model to restore instead of retraining (`sweep`,
    /// `table4`).
    load_model: Option<String>,
    /// Output path of the `save-model` verb.
    out: Option<String>,
    /// Whether the sweep experiments memoize simulations across
    /// configurations (`--no-sim-cache` clears it; `sweep`/`compare` only).
    sim_cache: bool,
    /// Whether `--count` was given explicitly (conflicts with `--full`, which
    /// makes the count meaningless).
    count_explicit: bool,
    /// `--stream`: accepted on the streaming verbs and otherwise ignored
    /// (every sweep streams).
    stream: bool,
    /// `--full`: stream the whole enumerable design space.
    full: bool,
    /// `--chunk N`: configurations per streamed chunk (`0` = engine default).
    chunk: usize,
    /// `--checkpoint FILE`: snapshot the aggregate after every chunk.
    checkpoint: Option<String>,
    /// `--resume`: continue from the `--checkpoint` file.
    resume: bool,
    /// `--max-chunks N`: stop (checkpointed) after N chunks (`0` = no limit).
    max_chunks: u64,
    /// `--surrogate`: score the sweep with a learned activity surrogate,
    /// simulating only the audited fraction exactly.
    surrogate: bool,
    /// `--surrogate-train N`: oracle training-set size (`None` = default).
    surrogate_train: Option<usize>,
    /// `--audit-rate R`: deterministic fraction of swept configurations
    /// simulated exactly (`None` = default).
    audit_rate: Option<f64>,
    /// `--save-surrogate FILE`: persist the trained surrogate.
    save_surrogate: Option<String>,
    /// `--load-surrogate FILE`: restore a surrogate instead of training.
    load_surrogate: Option<String>,
    /// `--max-power MW`: pareto feasibility bound on mean total power.
    max_power: Option<f64>,
    /// `--min-ipc IPC`: pareto feasibility bound on mean IPC.
    min_ipc: Option<f64>,
    help: bool,
    requested: Vec<String>,
}

impl CliArgs {
    /// The scope the sweep verbs walk.
    fn stream_scope(&self) -> StreamScope {
        if self.full {
            StreamScope::Full
        } else {
            StreamScope::Sampled(self.count)
        }
    }

    /// How the surrogate is acquired (`--surrogate-train` /
    /// `--load-surrogate` / `--save-surrogate`).
    fn surrogate_options(&self) -> SurrogateOptions {
        SurrogateOptions {
            train_count: self.surrogate_train.unwrap_or(DEFAULT_SURROGATE_TRAIN),
            load: self.load_surrogate.as_ref().map(PathBuf::from),
            save: self.save_surrogate.as_ref().map(PathBuf::from),
        }
    }

    /// The audited fraction of a surrogate sweep.
    fn effective_audit_rate(&self) -> f64 {
        self.audit_rate.unwrap_or(DEFAULT_AUDIT_RATE)
    }

    /// The pareto feasibility bounds (validated at parse time).
    fn constraints(&self) -> ParetoConstraints {
        ParetoConstraints {
            max_power: self.max_power,
            min_ipc: self.min_ipc,
        }
    }
}

/// Parses the argument list; flags and experiment names may be interleaved freely.
///
/// Experiment names are validated against [`ALL_EXPERIMENTS`] and de-duplicated
/// here, at parse time — a typo fails fast with the usage string instead of
/// surfacing only after minutes of corpus generation.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
    let mut parsed = CliArgs {
        fast: false,
        threads: 0,
        count: DEFAULT_SWEEP_COUNT,
        model: ModelKind::AutoPower,
        model_explicit: false,
        load_model: None,
        out: None,
        sim_cache: true,
        count_explicit: false,
        stream: false,
        full: false,
        chunk: 0,
        checkpoint: None,
        resume: false,
        max_chunks: 0,
        surrogate: false,
        surrogate_train: None,
        audit_rate: None,
        save_surrogate: None,
        load_surrogate: None,
        max_power: None,
        min_ipc: None,
        help: false,
        requested: Vec::new(),
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        // `--flag=value` and `--flag value` take one path: split once here,
        // and a value flag reads its inline value or the next argument.
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") => (flag, Some(value)),
            _ => (arg.as_str(), None),
        };
        let mut value = |what: &str| match inline {
            Some(value) => Ok(value.to_owned()),
            None => iter
                .next()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage())),
        };
        match flag {
            "--threads" => parsed.threads = parse_count(&value("a value")?, flag)?,
            "--count" => {
                parsed.count = parse_sweep_count(&value("a value")?, flag)?;
                parsed.count_explicit = true;
            }
            "--surrogate-train" => {
                parsed.surrogate_train = Some(parse_sweep_count(&value("a value")?, flag)?);
            }
            "--audit-rate" => parsed.audit_rate = Some(parse_audit_rate(&value("a value")?)?),
            "--save-surrogate" => parsed.save_surrogate = Some(value("a file path")?),
            "--load-surrogate" => parsed.load_surrogate = Some(value("a file path")?),
            "--max-power" => parsed.max_power = Some(parse_bound(&value("a value")?, flag)?),
            "--min-ipc" => parsed.min_ipc = Some(parse_bound(&value("a value")?, flag)?),
            "--chunk" => parsed.chunk = parse_sweep_count(&value("a value")?, flag)?,
            "--checkpoint" => parsed.checkpoint = Some(value("a file path")?),
            "--max-chunks" => {
                parsed.max_chunks = parse_sweep_count(&value("a value")?, flag)? as u64;
            }
            "--model" => {
                parsed.model = parse_model(&value("a value")?)?;
                parsed.model_explicit = true;
            }
            "--load-model" => parsed.load_model = Some(value("a file path")?),
            "--out" => parsed.out = Some(value("a file path")?),
            // Only value flags take the `=value` form.
            _ if inline.is_some() => return Err(format!("unknown flag '{arg}'\n{}", usage())),
            "--fast" => parsed.fast = true,
            "--no-sim-cache" => parsed.sim_cache = false,
            "--help" | "-h" => parsed.help = true,
            "--stream" => parsed.stream = true,
            "--full" => parsed.full = true,
            "--resume" => parsed.resume = true,
            "--surrogate" => parsed.surrogate = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'\n{}", usage()));
            }
            other if other == "all" || other == SAVE_MODEL || ALL_EXPERIMENTS.contains(&other) => {
                if !parsed.requested.iter().any(|r| r == other) {
                    parsed.requested.push(other.to_owned());
                }
            }
            other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
        }
    }
    if parsed.requested.is_empty() || parsed.requested.iter().any(|a| a == "all") {
        let keep_save = parsed.requested.iter().any(|a| a == SAVE_MODEL);
        parsed.requested = ALL_EXPERIMENTS.iter().map(|s| (*s).to_owned()).collect();
        if keep_save {
            parsed.requested.push(SAVE_MODEL.to_owned());
        }
    }
    if parsed.load_model.is_some() {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !LOADABLE_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--load-model applies to {} only; '{bad}' retrains by design\n{}",
                LOADABLE_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    if !parsed.sim_cache {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !SIM_CACHE_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--no-sim-cache applies to {} only; '{bad}' never caches simulations\n{}",
                SIM_CACHE_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    if parsed.out.is_some() && !parsed.requested.iter().any(|a| a == SAVE_MODEL) {
        return Err(format!(
            "--out only makes sense with {SAVE_MODEL}\n{}",
            usage()
        ));
    }
    if parsed.full && parsed.count_explicit {
        return Err(format!(
            "--full streams the whole design space; --count does not apply\n{}",
            usage()
        ));
    }
    if parsed.stream || parsed.full {
        let flag = if parsed.full { "--full" } else { "--stream" };
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !STREAM_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "{flag} applies to {} only; '{bad}' does not stream\n{}",
                STREAM_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    if parsed.resume && parsed.checkpoint.is_none() {
        return Err(format!("--resume requires --checkpoint FILE\n{}", usage()));
    }
    if parsed.max_chunks > 0 && parsed.checkpoint.is_none() {
        return Err(format!(
            "--max-chunks stops a checkpointed run; it requires --checkpoint FILE\n{}",
            usage()
        ));
    }
    if parsed.checkpoint.is_some() {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !CHECKPOINT_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--checkpoint/--resume/--max-chunks apply to {} only; '{bad}' keeps no \
                 checkpoint\n{}",
                CHECKPOINT_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    if parsed.chunk > 0 {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !SIM_CACHE_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--chunk applies to {} only; '{bad}' does not run the sweep engine\n{}",
                SIM_CACHE_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    for (flag, present) in [
        ("--surrogate-train", parsed.surrogate_train.is_some()),
        ("--audit-rate", parsed.audit_rate.is_some()),
        ("--save-surrogate", parsed.save_surrogate.is_some()),
        ("--load-surrogate", parsed.load_surrogate.is_some()),
    ] {
        if present && !parsed.surrogate {
            return Err(format!(
                "{flag} configures the surrogate backend; it requires --surrogate\n{}",
                usage()
            ));
        }
    }
    if parsed.save_surrogate.is_some() && parsed.load_surrogate.is_some() {
        return Err(format!(
            "--save-surrogate with --load-surrogate would rewrite the file it just read; \
             pick one\n{}",
            usage()
        ));
    }
    if parsed.surrogate_train.is_some() && parsed.load_surrogate.is_some() {
        return Err(format!(
            "--surrogate-train sizes a fresh training run; it conflicts with \
             --load-surrogate\n{}",
            usage()
        ));
    }
    if parsed.surrogate {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !SURROGATE_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--surrogate applies to {} only; '{bad}' always simulates exactly\n{}",
                SURROGATE_EXPERIMENTS.join("/"),
                usage()
            ));
        }
    }
    if parsed.max_power.is_some() || parsed.min_ipc.is_some() {
        if let Some(bad) = parsed
            .requested
            .iter()
            .find(|name| !CONSTRAINT_EXPERIMENTS.contains(&name.as_str()))
        {
            return Err(format!(
                "--max-power/--min-ipc apply to {} only; '{bad}' computes no frontier\n{}",
                CONSTRAINT_EXPERIMENTS.join("/"),
                usage()
            ));
        }
        if let Err(message) = parsed.constraints().validate() {
            return Err(format!("{message}\n{}", usage()));
        }
    }
    Ok(parsed)
}

fn parse_count(value: &str, flag: &str) -> Result<usize, String> {
    value.parse::<usize>().map_err(|_| {
        format!(
            "{flag} expects a non-negative integer, got '{value}'\n{}",
            usage()
        )
    })
}

/// Like [`parse_count`] but rejects zero: an empty sweep has nothing to report
/// (whereas `--threads 0` legitimately means "auto").
fn parse_sweep_count(value: &str, flag: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{flag} expects a positive integer, got '{value}'\n{}",
            usage()
        )),
    }
}

/// Parses `--audit-rate`: a finite fraction in `(0, 1]`.  Zero is rejected
/// here — a surrogate sweep that can never audit would only fail later with
/// "audited zero configurations".
fn parse_audit_rate(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(rate) if rate.is_finite() && rate > 0.0 && rate <= 1.0 => Ok(rate),
        _ => Err(format!(
            "--audit-rate expects a fraction in (0, 1], got '{value}'\n{}",
            usage()
        )),
    }
}

/// Parses a pareto feasibility bound as a number; domain checks (finite,
/// sign) are [`ParetoConstraints::validate`]'s, so the CLI and the library
/// reject exactly the same bounds.
fn parse_bound(value: &str, flag: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .map_err(|_| format!("{flag} expects a number, got '{value}'\n{}", usage()))
}

/// Resolves a `--model` value against the [`ModelKind`] registry.
fn parse_model(value: &str) -> Result<ModelKind, String> {
    value
        .parse::<ModelKind>()
        .map_err(|e| format!("{e}\n{}", usage()))
}

/// Restores the `--load-model` file and checks it against an explicit
/// `--model` flag (a silent kind mismatch would be a confusing foot-gun).
fn load_cli_model(args: &CliArgs, path: &str) -> Result<Box<dyn autopower::PowerModel>, String> {
    let model = autopower::load_model(path).map_err(|e| format!("--load-model {path}: {e}"))?;
    if args.model_explicit && model.kind() != args.model {
        return Err(format!(
            "--load-model {path} holds a '{}' model but --model asked for '{}'",
            model.kind(),
            args.model
        ));
    }
    Ok(model)
}

/// Trains or loads the `--surrogate` backend for a sweep verb (`None` when
/// the flag is absent).
fn acquire_surrogate(
    experiments: &Experiments,
    name: &str,
    args: &CliArgs,
) -> Result<Option<autopower::ActivitySurrogate>, String> {
    if !args.surrogate {
        return Ok(None);
    }
    experiments
        .sweep_surrogate(&args.surrogate_options())
        .map(Some)
        .map_err(|e| format!("{name}: {e}"))
}

fn run_one(experiments: &Experiments, name: &str, args: &CliArgs) -> Result<(), String> {
    let err = |e: autopower::AutoPowerError| format!("{name}: {e}");
    if name == SAVE_MODEL {
        let model = experiments.train_sweep_model(args.model).map_err(err)?;
        let path = args
            .out
            .clone()
            .unwrap_or_else(|| format!("{}.apm", args.model));
        autopower::save_model(model.as_ref(), &path).map_err(err)?;
        println!(
            "saved trained '{}' model to {path} (format v{})\n",
            args.model,
            autopower::MODEL_FORMAT_VERSION
        );
        return Ok(());
    }
    match name {
        "obs1" => println!("{}\n", experiments.obs1_breakdown()),
        "table1" => println!("{}\n", experiments.table1_hardware_model()),
        "fig4" => println!(
            "{}\n",
            experiments.fig4_accuracy_two_configs().map_err(err)?
        ),
        "fig5" => println!(
            "{}\n",
            experiments.fig5_accuracy_three_configs().map_err(err)?
        ),
        "fig6" => println!("{}\n", experiments.fig6_training_sweep().map_err(err)?),
        "fig7" => println!("{}\n", experiments.fig7_clock_detail()),
        "fig8" => println!("{}\n", experiments.fig8_sram_detail()),
        "table4" => match &args.load_model {
            Some(path) => {
                let model = load_cli_model(args, path)?;
                println!(
                    "{}\n",
                    experiments.table4_power_trace_loaded(model.as_ref())
                );
            }
            None => println!(
                "{}\n",
                experiments
                    .table4_power_trace_model(args.model)
                    .map_err(err)?
            ),
        },
        "ablation" => println!("{}\n", experiments.ablation_study()),
        "sweep" | "pareto" => {
            let surrogate = acquire_surrogate(experiments, name, args)?;
            let loaded = args
                .load_model
                .as_deref()
                .map(|path| load_cli_model(args, path))
                .transpose()?;
            let request = SweepRequest {
                model: match &loaded {
                    Some(model) => ModelSource::Loaded(model.as_ref()),
                    None => ModelSource::Train(args.model),
                },
                scope: args.stream_scope(),
                surrogate: surrogate.as_ref().map(|s| SurrogateSpec {
                    surrogate: s,
                    audit_rate: args.effective_audit_rate(),
                }),
                constraints: args.constraints(),
                checkpoint: args.checkpoint.as_ref().map(PathBuf::from),
                resume: args.resume,
                max_chunks: args.max_chunks,
            };
            let result = experiments.sweep(&request).map_err(err)?;
            // The resume-invariant report goes to stdout, the process-local
            // diagnostics (cache hit rate, peak retained points) to stderr —
            // so a resumed run's stdout is byte-identical to a one-shot run's.
            if name == "pareto" {
                println!("{}\n", result.pareto_report());
            } else {
                println!("{result}\n");
            }
            eprintln!("{}", result.diagnostics());
        }
        "xval" => println!(
            "{}\n",
            experiments
                .cross_validation_model(args.model)
                .map_err(err)?
        ),
        "compare" => println!(
            "{}\n",
            experiments.model_comparison(args.count).map_err(err)?
        ),
        other => return Err(format!("unknown experiment '{other}'\n{}", usage())),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let settings = if args.fast {
        ExperimentSettings::fast()
    } else {
        ExperimentSettings::paper()
    }
    .with_threads(args.threads)
    .with_sim_cache(args.sim_cache)
    .with_chunk(args.chunk);
    let experiments = Experiments::new(settings);
    // Resolve through CorpusSpec so the banner always matches the worker count
    // generation will actually use.
    let effective = CorpusSpec::paper()
        .threads(args.threads)
        .effective_threads();
    let label = if args.threads == 0 {
        format!("{effective} (auto)")
    } else {
        effective.to_string()
    };
    println!(
        "AutoPower experiment harness ({} settings, {label} corpus worker{})\n",
        if args.fast { "fast" } else { "paper" },
        if effective == 1 { "" } else { "s" },
    );

    for name in &args.requested {
        if let Err(message) = run_one(&experiments, name, &args) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_are_order_independent() {
        for permutation in [
            &["--fast", "--threads", "3", "fig4"][..],
            &["fig4", "--threads", "3", "--fast"][..],
            &["--threads=3", "fig4", "--fast"][..],
        ] {
            let parsed = parse_args(args(permutation)).expect("valid arguments");
            assert!(parsed.fast);
            assert_eq!(parsed.threads, 3);
            assert_eq!(parsed.requested, vec!["fig4".to_owned()]);
            assert!(!parsed.help);
        }
    }

    #[test]
    fn help_wins_regardless_of_position() {
        for permutation in [&["--fast", "--help"][..], &["--help", "--fast", "fig4"][..]] {
            let parsed = parse_args(args(permutation)).expect("valid arguments");
            assert!(parsed.help);
        }
    }

    #[test]
    fn empty_or_all_expands_to_every_experiment() {
        let default = parse_args(args(&[])).expect("valid arguments");
        assert_eq!(default.requested.len(), ALL_EXPERIMENTS.len());
        let all = parse_args(args(&["all", "--fast"])).expect("valid arguments");
        assert_eq!(all.requested.len(), ALL_EXPERIMENTS.len());
    }

    #[test]
    fn bad_flags_and_thread_counts_are_rejected() {
        assert!(parse_args(args(&["--nope"])).is_err());
        assert!(parse_args(args(&["--threads"])).is_err());
        assert!(parse_args(args(&["--threads", "many"])).is_err());
        assert!(parse_args(args(&["--threads=-2"])).is_err());
        assert!(parse_args(args(&["--count"])).is_err());
        assert!(parse_args(args(&["--count", "lots"])).is_err());
        assert!(parse_args(args(&["--count", "0"])).is_err());
        assert!(parse_args(args(&["--count=0"])).is_err());
    }

    #[test]
    fn unknown_experiments_fail_at_parse_time() {
        let err = parse_args(args(&["fig4", "fig9"])).unwrap_err();
        assert!(err.contains("unknown experiment 'fig9'"));
        assert!(err.contains("usage:"), "error must repeat the usage line");
    }

    #[test]
    fn duplicate_experiments_run_once() {
        let parsed = parse_args(args(&["fig4", "sweep", "fig4"])).expect("valid arguments");
        assert_eq!(
            parsed.requested,
            vec!["fig4".to_owned(), "sweep".to_owned()]
        );
    }

    #[test]
    fn sweep_count_flag_is_parsed_in_both_forms() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert_eq!(parsed.count, DEFAULT_SWEEP_COUNT);
        let parsed = parse_args(args(&["sweep", "--count", "200"])).expect("valid arguments");
        assert_eq!(parsed.count, 200);
        let parsed = parse_args(args(&["--count=64", "sweep"])).expect("valid arguments");
        assert_eq!(parsed.count, 64);
    }

    #[test]
    fn model_flag_selects_a_registry_model_in_both_forms() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::AutoPower);
        let parsed =
            parse_args(args(&["sweep", "--model", "mcpat-calib"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::McpatCalib);
        let parsed =
            parse_args(args(&["--model=autopower-minus", "xval"])).expect("valid arguments");
        assert_eq!(parsed.model, ModelKind::AutoPowerMinus);
    }

    #[test]
    fn unknown_models_fail_at_parse_time() {
        let err = parse_args(args(&["sweep", "--model", "xgboost"])).unwrap_err();
        assert!(err.contains("unknown model 'xgboost'"));
        assert!(err.contains("usage:"), "error must repeat the usage line");
        assert!(parse_args(args(&["--model"])).is_err());
    }

    #[test]
    fn new_experiment_verbs_are_registered() {
        for verb in ["xval", "compare"] {
            let parsed = parse_args(args(&[verb])).expect("valid arguments");
            assert_eq!(parsed.requested, vec![verb.to_owned()]);
        }
        assert!(ALL_EXPERIMENTS.contains(&"xval"));
        assert!(ALL_EXPERIMENTS.contains(&"compare"));
    }

    #[test]
    fn save_model_verb_parses_but_is_not_part_of_all() {
        let parsed = parse_args(args(&[
            SAVE_MODEL,
            "--model",
            "mcpat-calib",
            "--out",
            "m.apm",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.requested, vec![SAVE_MODEL.to_owned()]);
        assert_eq!(parsed.model, ModelKind::McpatCalib);
        assert_eq!(parsed.out.as_deref(), Some("m.apm"));
        // `all` (and the empty default) never includes the file-writing verb.
        let all = parse_args(args(&["all"])).expect("valid arguments");
        assert!(!all.requested.iter().any(|r| r == SAVE_MODEL));
        let default = parse_args(args(&[])).expect("valid arguments");
        assert!(!default.requested.iter().any(|r| r == SAVE_MODEL));
    }

    #[test]
    fn load_model_flag_parses_in_both_forms_and_only_for_loadable_experiments() {
        let parsed =
            parse_args(args(&["sweep", "--load-model", "m.apm"])).expect("valid arguments");
        assert_eq!(parsed.load_model.as_deref(), Some("m.apm"));
        let parsed = parse_args(args(&["--load-model=m.apm", "table4"])).expect("valid arguments");
        assert_eq!(parsed.load_model.as_deref(), Some("m.apm"));
        // Experiments that retrain by design reject a pre-trained model.
        let err = parse_args(args(&["xval", "--load-model", "m.apm"])).unwrap_err();
        assert!(err.contains("retrains by design"));
        let err = parse_args(args(&["compare", "--load-model", "m.apm"])).unwrap_err();
        assert!(err.contains("retrains by design"));
        assert!(parse_args(args(&["--load-model"])).is_err());
    }

    #[test]
    fn no_sim_cache_flag_applies_to_sweeping_experiments_only() {
        // Default: the cache is on.
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(parsed.sim_cache);
        // Accepted on the sweeping verbs, alone or together.
        for list in [
            &["sweep", "--no-sim-cache"][..],
            &["--no-sim-cache", "compare"][..],
        ] {
            let parsed = parse_args(args(list)).expect("valid arguments");
            assert!(!parsed.sim_cache);
        }
        let parsed =
            parse_args(args(&["--no-sim-cache", "sweep", "compare"])).expect("valid arguments");
        assert!(!parsed.sim_cache);
        // Rejected at parse time on experiments that never cache simulations
        // (including the implicit `all` expansion).
        let err = parse_args(args(&["fig4", "--no-sim-cache"])).unwrap_err();
        assert!(err.contains("never caches simulations"));
        assert!(parse_args(args(&["--no-sim-cache"])).is_err());
        assert!(parse_args(args(&["all", "--no-sim-cache"])).is_err());
        // `--no-sim-cache=x` is not a form the flag takes.
        let err = parse_args(args(&["sweep", "--no-sim-cache=1"])).unwrap_err();
        assert!(
            err.contains("unknown flag '--no-sim-cache=1'"),
            "got: {err}"
        );
    }

    #[test]
    fn streaming_flags_parse_in_both_forms() {
        let parsed = parse_args(args(&[
            "sweep",
            "--stream",
            "--chunk",
            "32",
            "--checkpoint",
            "/tmp/s.ckpt",
            "--max-chunks",
            "2",
        ]))
        .expect("valid arguments");
        assert!(parsed.stream);
        assert!(!parsed.full);
        assert_eq!(parsed.chunk, 32);
        assert_eq!(parsed.checkpoint.as_deref(), Some("/tmp/s.ckpt"));
        assert_eq!(parsed.max_chunks, 2);
        assert_eq!(parsed.stream_scope(), StreamScope::Sampled(parsed.count));

        let parsed = parse_args(args(&[
            "sweep",
            "--chunk=16",
            "--checkpoint=/tmp/s.ckpt",
            "--max-chunks=3",
            "--resume",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.chunk, 16);
        assert!(parsed.resume);
        assert_eq!(parsed.checkpoint.as_deref(), Some("/tmp/s.ckpt"));
        assert_eq!(parsed.max_chunks, 3);

        // Bad values fail with the right flag named.
        assert!(parse_args(args(&["sweep", "--chunk"])).is_err());
        let e = parse_args(args(&["sweep", "--checkpoint=c", "--max-chunks=0"])).unwrap_err();
        assert!(e.contains("--max-chunks expects"), "got: {e}");
    }

    #[test]
    fn bad_flag_values_name_their_flag_and_keep_the_usage_text_intact() {
        let e = parse_args(args(&["sweep", "--chunk", "0"])).unwrap_err();
        assert!(
            e.starts_with("--chunk expects a positive integer"),
            "got: {e}"
        );
        // The appended usage text is not rewritten along with the flag name.
        assert!(e.contains("[--count N]"), "got: {e}");
        assert!(e.contains("instead of --count"), "got: {e}");
    }

    #[test]
    fn full_flag_selects_the_whole_space_and_conflicts_with_count() {
        let parsed = parse_args(args(&["sweep", "--full"])).expect("valid arguments");
        assert!(parsed.full);
        assert_eq!(parsed.stream_scope(), StreamScope::Full);
        let parsed = parse_args(args(&["pareto", "--full"])).expect("valid arguments");
        assert_eq!(parsed.stream_scope(), StreamScope::Full);
        let err = parse_args(args(&["sweep", "--full", "--count", "64"])).unwrap_err();
        assert!(err.contains("--count does not apply"));
        // Non-streaming verbs (and the implicit `all` expansion) reject it.
        let err = parse_args(args(&["fig4", "--full"])).unwrap_err();
        assert!(err.contains("does not stream"));
        assert!(parse_args(args(&["--full"])).is_err());
        let err = parse_args(args(&["xval", "--stream"])).unwrap_err();
        assert!(err.contains("does not stream"));
    }

    #[test]
    fn checkpoint_flags_are_validated() {
        // --resume and --max-chunks need --checkpoint.
        let err = parse_args(args(&["sweep", "--resume"])).unwrap_err();
        assert!(err.contains("--resume requires --checkpoint"));
        let err = parse_args(args(&["sweep", "--max-chunks", "2"])).unwrap_err();
        assert!(err.contains("requires --checkpoint"));
        // Checkpointing is a sweep-only capability.
        let err = parse_args(args(&["pareto", "--checkpoint", "c.ckpt"])).unwrap_err();
        assert!(err.contains("keeps no checkpoint"));
        assert!(parse_args(args(&["--checkpoint"])).is_err());
        // --chunk rides along on any sweep-engine verb, but nothing else.
        assert!(parse_args(args(&["compare", "--chunk", "8"])).is_ok());
        let err = parse_args(args(&["fig4", "--chunk", "8"])).unwrap_err();
        assert!(err.contains("sweep engine"));
    }

    #[test]
    fn pareto_verb_is_registered_and_loadable() {
        let parsed = parse_args(args(&["pareto"])).expect("valid arguments");
        assert_eq!(parsed.requested, vec!["pareto".to_owned()]);
        assert!(ALL_EXPERIMENTS.contains(&"pareto"));
        assert!(parse_args(args(&["pareto", "--load-model", "m.apm"])).is_ok());
        assert!(parse_args(args(&["pareto", "--no-sim-cache"])).is_ok());
    }

    #[test]
    fn out_flag_requires_the_save_model_verb() {
        let err = parse_args(args(&["sweep", "--out", "m.apm"])).unwrap_err();
        assert!(err.contains("--out"));
        assert!(parse_args(args(&["--out"])).is_err());
        let parsed = parse_args(args(&[SAVE_MODEL, "--out=x.apm"])).expect("valid arguments");
        assert_eq!(parsed.out.as_deref(), Some("x.apm"));
    }

    #[test]
    fn surrogate_flags_parse_in_both_forms_with_defaults() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(!parsed.surrogate);
        assert_eq!(parsed.effective_audit_rate(), DEFAULT_AUDIT_RATE);
        assert_eq!(
            parsed.surrogate_options().train_count,
            DEFAULT_SURROGATE_TRAIN
        );

        let parsed = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--surrogate-train",
            "48",
            "--audit-rate",
            "0.5",
            "--save-surrogate",
            "/tmp/s.aps",
        ]))
        .expect("valid arguments");
        assert!(parsed.surrogate);
        assert_eq!(parsed.surrogate_options().train_count, 48);
        assert_eq!(parsed.effective_audit_rate(), 0.5);
        assert_eq!(
            parsed.surrogate_options().save.as_deref(),
            Some("/tmp/s.aps".as_ref())
        );

        let parsed = parse_args(args(&[
            "pareto",
            "--surrogate",
            "--audit-rate=1",
            "--load-surrogate=/tmp/s.aps",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.effective_audit_rate(), 1.0);
        assert_eq!(
            parsed.surrogate_options().load.as_deref(),
            Some("/tmp/s.aps".as_ref())
        );
        let parsed = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--surrogate-train=24",
            "--save-surrogate=/tmp/t.aps",
        ]))
        .expect("valid arguments");
        assert_eq!(parsed.surrogate_options().train_count, 24);
        assert_eq!(
            parsed.surrogate_options().save.as_deref(),
            Some("/tmp/t.aps".as_ref())
        );
    }

    #[test]
    fn surrogate_flags_are_validated_at_parse_time() {
        // The companions require --surrogate itself.
        for list in [
            &["sweep", "--surrogate-train", "48"][..],
            &["sweep", "--audit-rate", "0.5"][..],
            &["sweep", "--save-surrogate", "s.aps"][..],
            &["pareto", "--load-surrogate", "s.aps"][..],
        ] {
            let err = parse_args(args(list)).unwrap_err();
            assert!(err.contains("requires --surrogate"), "got: {err}");
        }
        // Save and load together are contradictory, as is sizing a training
        // run that --load-surrogate skips.
        let err = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--save-surrogate=a",
            "--load-surrogate=b",
        ]))
        .unwrap_err();
        assert!(err.contains("pick one"), "got: {err}");
        let err = parse_args(args(&[
            "sweep",
            "--surrogate",
            "--surrogate-train=8",
            "--load-surrogate=b",
        ]))
        .unwrap_err();
        assert!(err.contains("conflicts with"), "got: {err}");
        // Audit rate domain: (0, 1], finite.
        for bad in ["0", "0.0", "1.5", "-0.25", "inf", "nan", "lots"] {
            let err = parse_args(args(&["sweep", "--surrogate", "--audit-rate", bad])).unwrap_err();
            assert!(err.contains("(0, 1]"), "'{bad}' got: {err}");
        }
        // Training-set size must be positive.
        let err =
            parse_args(args(&["sweep", "--surrogate", "--surrogate-train", "0"])).unwrap_err();
        assert!(err.contains("--surrogate-train"), "got: {err}");
        // The surrogate applies to the design-space scoring verbs only
        // (including the implicit `all` expansion).
        let err = parse_args(args(&["fig4", "--surrogate"])).unwrap_err();
        assert!(err.contains("simulates exactly"), "got: {err}");
        assert!(parse_args(args(&["--surrogate"])).is_err());
        assert!(parse_args(args(&["sweep", "--surrogate"])).is_ok());
        assert!(parse_args(args(&["pareto", "--surrogate"])).is_ok());
    }

    #[test]
    fn pareto_constraint_flags_parse_and_are_validated() {
        let parsed = parse_args(args(&["pareto", "--max-power", "12.5", "--min-ipc=0.8"]))
            .expect("valid arguments");
        assert_eq!(parsed.max_power, Some(12.5));
        assert_eq!(parsed.min_ipc, Some(0.8));
        let parsed = parse_args(args(&["pareto", "--max-power=7", "--min-ipc", "0.5"]))
            .expect("valid arguments");
        assert_eq!(parsed.max_power, Some(7.0));
        assert_eq!(parsed.min_ipc, Some(0.5));
        let constraints = parsed.constraints();
        assert!(constraints.is_constrained());
        assert!(constraints.validate().is_ok());

        // Pareto-only.
        let err = parse_args(args(&["sweep", "--max-power", "10"])).unwrap_err();
        assert!(err.contains("computes no frontier"), "got: {err}");
        assert!(parse_args(args(&["--min-ipc", "1"])).is_err());
        // Non-finite or out-of-domain bounds fail at parse time.
        for bad in [
            &["pareto", "--max-power", "0"][..],
            &["pareto", "--max-power", "-3"][..],
            &["pareto", "--max-power", "inf"][..],
            &["pareto", "--max-power", "watts"][..],
            &["pareto", "--min-ipc", "-0.1"][..],
            &["pareto", "--min-ipc", "nan"][..],
        ] {
            assert!(parse_args(args(bad)).is_err(), "accepted {bad:?}");
        }
        // Zero is a legal IPC floor (inclusive bound).
        assert!(parse_args(args(&["pareto", "--min-ipc", "0"])).is_ok());
    }

    #[test]
    fn explicit_model_flag_is_tracked_for_load_mismatch_detection() {
        let parsed = parse_args(args(&["sweep"])).expect("valid arguments");
        assert!(!parsed.model_explicit);
        let parsed = parse_args(args(&["sweep", "--model", "autopower"])).expect("valid arguments");
        assert!(parsed.model_explicit);
    }
}
