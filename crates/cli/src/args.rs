//! The spine the subcommands share: option declarations, which are both the
//! usage text and the set of options a command accepts; the detector
//! options `score` and `pipeline` build their detectors from; the dataset
//! registry; and the writers of the per-point score CSVs and the
//! `sketchad-obs/v1` artifact.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use sketchad_core::obs::RecorderHandle;
use sketchad_core::{DetectorConfig, RefreshPolicy, ScoreKind, StreamingDetector};
use sketchad_obs::ObsArtifact;
use sketchad_streams::{self as ss, DatasetScale, LabeledStream};

/// A subcommand: its name, the options it accepts and what it runs.
#[derive(Debug)]
pub struct Command {
    pub name: &'static str,
    /// The options in their usage form, one usage line per string:
    /// `--name VALUE` (required), `[--name VALUE]` or `[--name]` (a bare
    /// flag), after a leading `[PLACEHOLDER]` for a command that takes one
    /// positional argument. Groups can be shared between commands.
    pub options: &'static [&'static [&'static str]],
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn lines(&self) -> impl Iterator<Item = &'static str> {
        self.options.iter().flat_map(|group| group.iter().copied())
    }

    /// The declared options as `(name, takes a value)`.
    fn declared(&self) -> Vec<(&'static str, bool)> {
        let mut opts: Vec<(&str, bool)> = Vec::new();
        for token in self.lines().flat_map(str::split_whitespace) {
            match (
                token.trim_start_matches('[').strip_prefix("--"),
                opts.last_mut(),
            ) {
                (Some(name), _) => opts.push((name.trim_end_matches(']'), false)),
                (None, Some((_, takes_value))) => *takes_value = true,
                (None, None) => {} // the positional placeholder
            }
        }
        opts
    }

    fn takes_positional(&self) -> bool {
        let first = self.lines().next().unwrap_or_default();
        !first.trim_start_matches('[').starts_with("--")
    }
}

/// The usage text of `commands`, made from their declarations.
pub fn usage(commands: &[Command]) -> String {
    let names: Vec<&str> = commands.iter().map(|c| c.name).collect();
    let mut text = format!("usage: sketchad <{}> [options] [--help]", names.join("|"));
    for c in commands {
        let lines: Vec<&str> = c.lines().collect();
        let usage = format!("\n  {:<8} {}", c.name, lines.join("\n           "));
        text.push_str(usage.trim_end());
    }
    text
}

/// The options one subcommand was given.
#[derive(Debug, Default)]
pub struct Args {
    declared: Vec<&'static str>,
    /// Given options by name; a flag's value is empty.
    values: HashMap<&'static str, String>,
    /// The positional argument, for a command that declares one.
    pub positional: Option<String>,
}

/// Parses the raw argument list against the declared commands, rejecting
/// any option the chosen command does not declare.
pub fn parse<'c>(commands: &'c [Command], raw: &[String]) -> Result<(&'c Command, Args), String> {
    let (name, rest) = raw.split_first().ok_or("missing subcommand")?;
    let command = commands
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown subcommand {name:?}"))?;
    let declared = command.declared();
    let mut args = Args {
        declared: declared.iter().map(|&(name, _)| name).collect(),
        ..Args::default()
    };
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        let name = match arg.strip_prefix("--") {
            Some(name) => name,
            None if command.takes_positional() && args.positional.is_none() => {
                args.positional = Some(arg.clone());
                continue;
            }
            None => return Err(format!("unexpected argument {arg:?}")),
        };
        let Some(&(name, takes_value)) = declared.iter().find(|(n, _)| *n == name) else {
            return Err(format!("{} has no option --{name}", command.name));
        };
        let value = match takes_value.then(|| iter.next()) {
            None => String::new(),
            Some(Some(v)) if !v.starts_with("--") => v.clone(),
            Some(_) => return Err(format!("option --{name} requires a value")),
        };
        args.values.insert(name, value);
    }
    Ok((command, args))
}

impl Args {
    /// True when `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// An optional string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        debug_assert!(self.declared.contains(&name), "--{name} is not declared");
        self.values.get(name).map(String::as_str)
    }

    /// A required string option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("required option --{name} is missing"))
    }

    /// Optional parsed option with default.
    pub fn parse_or<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("--{name}: bad value {raw:?} (expected {expected})")),
        }
    }
}

/// The detector options `score` and `pipeline` share, with their defaults.
#[derive(Debug, Clone, Copy)]
pub struct DetectorArgs {
    pub sketch: &'static str,
    pub k: usize,
    pub ell: usize,
    pub warmup: usize,
    pub score: ScoreKind,
    /// Forgetting `(alpha, every)`; only `score` takes `--decay`.
    pub decay: Option<(f64, usize)>,
}

/// What to do with the detector [`DetectorArgs::build`] makes, generic over
/// its concrete type so the caller keeps static dispatch.
pub trait UseDetector {
    type Output;
    fn with<D: StreamingDetector + Send + 'static>(self, detector: D) -> Self::Output;
}

impl DetectorArgs {
    pub const OPTIONS: &'static [&'static str] = &[
        "[--sketch fd|rp|cs|rs] [--k N] [--ell N] [--warmup N]",
        "[--score rel-proj|proj|leverage|blended]",
    ];

    pub fn parse(args: &Args) -> Result<Self, String> {
        let sketch = args.get("sketch").unwrap_or("fd");
        Ok(Self {
            sketch: ["fd", "rp", "cs", "rs"]
                .into_iter()
                .find(|s| *s == sketch)
                .ok_or_else(|| format!("unknown sketch {sketch:?} (fd|rp|cs|rs)"))?,
            k: args.parse_or("k", 10, "positive integer")?,
            ell: args.parse_or("ell", 64, "positive integer")?,
            warmup: args.parse_or("warmup", 256, "integer")?,
            score: parse_score_kind(args.get("score").unwrap_or("rel-proj"))?,
            decay: None,
        })
    }

    /// Builds the detector, with `recorder` installed (the default handle
    /// records nothing), and hands it to `then`.
    pub fn build<U: UseDetector>(
        &self,
        dim: usize,
        recorder: RecorderHandle,
        then: U,
    ) -> U::Output {
        let mut cfg = DetectorConfig::new(self.k, self.ell)
            .with_warmup(self.warmup)
            .with_score(self.score)
            .with_refresh(RefreshPolicy::Periodic { period: 64 });
        if let Some((alpha, every)) = self.decay {
            cfg = cfg.with_decay(alpha, every);
        }
        match self.sketch {
            "fd" => then.with(cfg.build_fd(dim).with_recorder(recorder)),
            "rp" => then.with(cfg.build_rp(dim).with_recorder(recorder)),
            "cs" => then.with(cfg.build_cs(dim).with_recorder(recorder)),
            "rs" => then.with(cfg.build_rs(dim).with_recorder(recorder)),
            other => unreachable!("parse admits no sketch {other:?}"),
        }
    }

    /// Records these options in an obs artifact's context.
    pub fn context(&self, artifact: ObsArtifact) -> ObsArtifact {
        artifact
            .with_context("sketch", self.sketch)
            .with_context("k", self.k.to_string())
            .with_context("ell", self.ell.to_string())
            .with_context("warmup", self.warmup.to_string())
    }
}

pub fn parse_score_kind(raw: &str) -> Result<ScoreKind, String> {
    Ok(match raw {
        "rel-proj" => ScoreKind::RelativeProjection,
        "proj" => ScoreKind::ProjectionDistance,
        "leverage" => ScoreKind::Leverage,
        "blended" => ScoreKind::Blended { beta: 0.1 },
        other => return Err(format!("unknown score kind {other:?}")),
    })
}

type Generator = fn(DatasetScale) -> LabeledStream;

/// The builtin datasets by name.
const DATASETS: [(&str, Generator); 8] = [
    ("synth-lowrank", ss::synth_lowrank),
    ("synth-burst", ss::synth_burst),
    ("synth-powerlaw", ss::synth_powerlaw),
    ("p53-like", ss::p53_like),
    ("dorothea-like", ss::dorothea_like),
    ("rcv1-like", ss::rcv1_like),
    ("synth-drift", ss::synth_drift),
    ("synth-rotate", ss::synth_rotate),
];

pub fn dataset_names() -> Vec<&'static str> {
    DATASETS.iter().map(|(name, _)| *name).collect()
}

pub fn dataset_by_name(name: &str, scale: DatasetScale) -> Option<LabeledStream> {
    DATASETS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, make)| make(scale))
}

pub fn read_stream(path: &str) -> Result<LabeledStream, String> {
    sketchad_streams::io::read_stream(Path::new(path)).map_err(|e| e.to_string())
}

/// The builtin dataset `name`, at `Small` scale under `--small`.
pub fn dataset(args: &Args, name: &str) -> Result<LabeledStream, String> {
    let scale = if args.flag("small") {
        DatasetScale::Small
    } else {
        DatasetScale::Full
    };
    dataset_by_name(name, scale)
        .ok_or_else(|| format!("unknown dataset {name:?} (see `sketchad datasets`)"))
}

/// Points scored per batched call in `score`/`apply` — large enough to
/// amortize the blocked `V_kᵀY` kernel, small enough to stay cache-warm.
const CLI_BATCH: usize = 512;

/// Calls `f` on the stream's points as row-major blocks of [`CLI_BATCH`] rows.
pub fn for_each_block(stream: &LabeledStream, mut f: impl FnMut(&[f64])) {
    let mut block: Vec<f64> = Vec::with_capacity(CLI_BATCH * stream.dim);
    for points in stream.points.chunks(CLI_BATCH) {
        block.clear();
        for p in points {
            block.extend_from_slice(&p.values);
        }
        f(&block);
    }
}

/// Writes a per-point score CSV: an `index,score` row per point, plus an
/// `alert` column of 0/1 when `alerts` (one per row) is given.
pub fn write_scores(
    path: &str,
    rows: impl IntoIterator<Item = (u64, f64)>,
    alerts: Option<&[bool]>,
    quiet: bool,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{path}: {e}");
    let mut f = BufWriter::new(std::fs::File::create(path).map_err(io)?);
    let header = if alerts.is_some() { ",alert" } else { "" };
    writeln!(f, "index,score{header}").map_err(io)?;
    for (row, (index, score)) in rows.into_iter().enumerate() {
        match alerts {
            Some(alerts) => writeln!(f, "{index},{score},{}", u8::from(alerts[row])),
            None => writeln!(f, "{index},{score}"),
        }
        .map_err(io)?;
    }
    f.flush().map_err(io)?;
    if !quiet {
        println!("wrote per-point scores to {path}");
    }
    Ok(())
}

/// Writes a `sketchad-obs/v1` artifact and, unless `quiet`, prints its table.
pub fn write_artifact(path: &str, artifact: &ObsArtifact, quiet: bool) -> Result<(), String> {
    artifact.write(Path::new(path)).map_err(|e| e.to_string())?;
    if !quiet {
        print!("{}", artifact.report.render_table());
        println!("wrote metrics to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    const SCORE: &[Command] = &[Command {
        name: "score",
        options: &[&["--input FILE [--k N] [--quiet]"]],
        run: |_| Ok(()),
    }];

    #[test]
    fn parses_command_options_and_flags() {
        let (c, p) = parse(
            SCORE,
            &sv(&["score", "--input", "x.csv", "--k", "10", "--quiet"]),
        )
        .unwrap();
        assert_eq!(c.name, "score");
        assert_eq!(p.required("input").unwrap(), "x.csv");
        assert_eq!(p.parse_or::<usize>("k", 5, "integer").unwrap(), 10);
        assert!(p.flag("quiet"));
        // An option the command does not declare is an error naming it.
        let err = parse(SCORE, &sv(&["score", "--input", "x.csv", "--small"])).unwrap_err();
        assert_eq!(err, "score has no option --small");
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(parse(SCORE, &sv(&[])).unwrap_err(), "missing subcommand");
    }

    #[test]
    fn missing_value_rejected() {
        let err = parse(SCORE, &sv(&["score", "--input"])).unwrap_err();
        assert_eq!(err, "option --input requires a value");
        let err = parse(SCORE, &sv(&["score", "--input", "--k"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn defaults_and_bad_values() {
        let (_, p) = parse(SCORE, &sv(&["score", "--input", "x.csv"])).unwrap();
        assert_eq!(p.parse_or::<usize>("k", 5, "integer").unwrap(), 5);
        assert!(!p.flag("quiet"));
        let (_, p) = parse(SCORE, &sv(&["score", "--input", "x.csv", "--k", "ten"])).unwrap();
        let err = p.parse_or::<usize>("k", 5, "integer").unwrap_err();
        assert!(err.contains("bad value"));
    }

    #[test]
    fn missing_required_option_reported() {
        let (_, p) = parse(SCORE, &sv(&["score"])).unwrap();
        let err = p.required("input").unwrap_err();
        assert!(err.contains("--input"));
    }
}
