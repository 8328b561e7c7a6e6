//! Dataset selection shared by the workload commands (`replay`, `bench`,
//! `serve`): either an explicit dataset FILE, or a generation recipe
//! (`--preset`/`--scale`/`--seed`) — plus the serving-stack and
//! `--shards` flags `replay` and `serve` share.

use skysr_data::codec;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::ServiceConfig;

use crate::args::Args;

/// Parses an optional typed flag with a default.
pub fn parse_flag<T: std::str::FromStr>(
    args: &mut Args,
    name: &str,
    default: T,
) -> Result<T, String> {
    match args.optional(name) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| format!("bad --{name}")),
    }
}

/// Loads a dataset file, mapping errors to a CLI-friendly message.
pub fn load(path: &str) -> Result<Dataset, String> {
    codec::load_dataset(path).map_err(|e| format!("cannot load {path}: {e}"))
}

/// Shared dataset selection of the workload commands: either an explicit
/// FILE, or a generation recipe.
pub struct CityArgs {
    /// An explicit dataset file, exclusive with the recipe flags.
    pub file: Option<String>,
    /// Preset of the generated city.
    pub preset: Preset,
    /// Optional down/up-scale factor of the preset.
    pub scale: Option<f64>,
    /// Generation (and workload) seed.
    pub seed: u64,
}

/// Consumes the dataset-selection arguments.
pub fn dataset_args(args: &mut Args) -> Result<CityArgs, String> {
    let file = args.positional_opt();
    let preset_arg = args.optional("preset");
    let scale_arg = args.optional("scale");
    if file.is_some() && (preset_arg.is_some() || scale_arg.is_some()) {
        return Err(
            "--preset/--scale describe the generated city and conflict with a dataset FILE \
             argument"
                .into(),
        );
    }
    let preset = parse_preset(preset_arg.as_deref().unwrap_or("cal-small"))?;
    let scale: Option<f64> =
        scale_arg.map(|s| s.parse().map_err(|_| "bad --scale".to_string())).transpose()?;
    let seed: u64 = parse_flag(args, "seed", 7)?;
    Ok(CityArgs { file, preset, scale, seed })
}

/// Resolves [`CityArgs`] into a dataset: load the named file, or generate
/// from the recipe.
pub fn load_or_generate(city: &CityArgs) -> Result<Dataset, String> {
    match &city.file {
        Some(f) => load(f),
        None => {
            let mut dspec = DatasetSpec::preset(city.preset).seed(city.seed);
            if let Some(s) = city.scale {
                dspec = dspec.scale(s);
            }
            eprintln!("generating {} ...", dspec.name);
            Ok(dspec.generate())
        }
    }
}

/// The datasets of a `--shards N` command, named `region-0`, `region-1`,
/// …: the FILE's or recipe's city for one shard, and for more, N
/// generated cities seeded `--seed`, `--seed`+1, ….
pub fn region_datasets(city: &CityArgs, shards: usize) -> Result<Vec<(String, Dataset)>, String> {
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    if shards > 1 && city.file.is_some() {
        return Err(
            "--shards generates one dataset per region and conflicts with a dataset FILE argument"
                .into(),
        );
    }
    (0..shards)
        .map(|i| {
            let region = CityArgs {
                file: city.file.clone(),
                preset: city.preset,
                scale: city.scale,
                seed: city.seed + i as u64,
            };
            Ok((format!("region-{i}"), load_or_generate(&region)?))
        })
        .collect()
}

/// The serving-stack flags `replay` and `serve` share. They configure a
/// service this process builds, so `replay --connect` rejects them.
pub const SERVICE_FLAGS: [&str; 9] = [
    "workers",
    "queue",
    "cache",
    "coalesce",
    "prefix-reuse",
    "ancestor-reuse",
    "suffix-reuse",
    "repair",
    "admission",
];

/// Parses [`SERVICE_FLAGS`] into a service configuration: four workers
/// by default, every other field at its [`ServiceConfig::default`].
pub fn service_flags(args: &mut Args) -> Result<ServiceConfig, String> {
    let d = ServiceConfig { workers: 4, ..ServiceConfig::default() };
    Ok(ServiceConfig {
        workers: parse_flag(args, "workers", d.workers)?,
        queue_capacity: parse_flag(args, "queue", d.queue_capacity)?,
        cache_capacity: parse_flag(args, "cache", d.cache_capacity)?,
        coalesce: parse_flag(args, "coalesce", d.coalesce)?,
        prefix_reuse: parse_flag(args, "prefix-reuse", d.prefix_reuse)?,
        ancestor_reuse: parse_flag(args, "ancestor-reuse", d.ancestor_reuse)?,
        suffix_reuse: parse_flag(args, "suffix-reuse", d.suffix_reuse)?,
        repair: parse_flag(args, "repair", d.repair)?,
        admission: parse_flag(args, "admission", d.admission)?,
        ..d
    })
}

/// Rejects sequence lengths the dataset's category forest cannot serve.
pub fn check_seq_len(dataset: &Dataset, seq_len: usize) -> Result<(), String> {
    let populated = dataset.populated_trees();
    if seq_len > populated {
        return Err(format!(
            "--seq-len {seq_len} exceeds the dataset's {populated} populated category trees \
             (workload positions must come from distinct trees)"
        ));
    }
    Ok(())
}

/// Parses a preset name.
pub fn parse_preset(s: &str) -> Result<Preset, String> {
    Ok(match s {
        "tokyo" => Preset::Tokyo,
        "nyc" => Preset::Nyc,
        "cal" => Preset::Cal,
        "tokyo-small" => Preset::TokyoSmall,
        "nyc-small" => Preset::NycSmall,
        "cal-small" => Preset::CalSmall,
        _ => return Err(format!("unknown preset {s:?}")),
    })
}
