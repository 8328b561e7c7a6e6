//! Dataset selection shared by the workload commands (`replay`, `serve`):
//! either an explicit dataset FILE, or a generation recipe
//! (`--preset`/`--scale`/`--seed`) — plus the serving-stack and
//! `--shards` flags they share.

use skysr_data::codec;
use skysr_data::dataset::{Dataset, DatasetSpec, Preset};
use skysr_service::{City, ServiceConfig};

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
    /// The generated city's preset and scale.
    pub city: City,
    /// Generation (and workload) seed.
    pub seed: u64,
}

/// Consumes the dataset-selection arguments; unset recipe flags keep
/// `city` and `seed`.
pub fn dataset_args(args: &mut Args, city: City, seed: u64) -> Result<CityArgs, String> {
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
    let preset = preset_arg.as_deref().map(parse_preset).transpose()?.unwrap_or(city.preset);
    let scale = scale_arg.map(|s| s.parse().map_err(|_| "bad --scale")).transpose()?;
    let city = City { preset, scale: scale.unwrap_or(city.scale) };
    Ok(CityArgs { file, city, seed: parse_flag(args, "seed", seed)? })
}

/// The datasets of a `--shards N` command, named `region-0`, `region-1`,
/// …: the FILE's or recipe's city for one shard, and for more, N
/// generated cities seeded `--seed`, `--seed`+1, ….
pub fn region_datasets(city: &CityArgs, shards: usize) -> Result<Vec<(String, Dataset)>, String> {
    if shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    match &city.file {
        Some(_) if shards > 1 => Err("--shards generates one dataset per region and conflicts \
             with a dataset FILE argument"
            .into()),
        Some(f) => Ok(vec![("region-0".to_owned(), load(f)?)]),
        None => {
            eprintln!("generating {} ...", DatasetSpec::preset(city.city.preset).name);
            Ok(city.city.regions(city.seed, shards))
        }
    }
}

/// The serving-stack flags `replay` and `serve` share. They configure a
/// service this process builds, so `replay --connect` rejects them.
pub const SERVICE_FLAGS: [&str; 6] =
    ["workers", "queue", "cache", "coalesce", "repair", "admission"];

/// Parses [`SERVICE_FLAGS`] over `d`: unset flags keep its values.
pub fn service_flags(args: &mut Args, d: ServiceConfig) -> Result<ServiceConfig, String> {
    Ok(ServiceConfig {
        workers: parse_flag(args, "workers", d.workers)?,
        queue_capacity: parse_flag(args, "queue", d.queue_capacity)?,
        cache_capacity: parse_flag(args, "cache", d.cache_capacity)?,
        coalesce: parse_flag(args, "coalesce", d.coalesce)?,
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
