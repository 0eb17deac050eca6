//! Typed command-line parsing for the `repro` binary.
//!
//! [`CliArgs::parse`] turns an argument list into a validated
//! configuration or a named [`CliError`] — the binary no longer has a
//! hand-rolled flag loop that silently swallows malformed values (the old
//! `num()` helper turned `--jobs abc` into a bare usage dump with no hint
//! of which flag was wrong).

use crate::all_experiment_ids;
use crate::suite::ExpConfig;
use green_automl_core::fault::{FaultPlan, FaultPlanError};
use std::path::PathBuf;
use std::str::FromStr;

/// A parse failure, naming exactly what was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag that `repro` does not define.
    UnknownFlag(String),
    /// A flag that takes a value appeared last on the command line.
    MissingValue(&'static str),
    /// A flag's value failed to parse as a number.
    BadNumber {
        /// The flag whose value was malformed.
        flag: &'static str,
        /// The offending value, verbatim.
        value: String,
    },
    /// A positional argument that is not a known experiment id.
    UnknownExperiment(String),
    /// A fault-plan knob failed [`FaultPlan::validate`] — the typed
    /// [`FaultPlanError`] names the offending field.
    InvalidFaultPlan(FaultPlanError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownFlag(flag) => write!(f, "unknown flag: {flag}"),
            CliError::MissingValue(flag) => write!(f, "{flag} requires a value"),
            CliError::BadNumber { flag, value } => {
                write!(f, "{flag} expects a number, got {value:?}")
            }
            CliError::UnknownExperiment(id) => write!(
                f,
                "unknown experiment id: {id} (ids: {} | all)",
                all_experiment_ids().join(" | ")
            ),
            CliError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The parsed command line of the `repro` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Scale knobs after every flag is applied.
    pub cfg: ExpConfig,
    /// Experiment ids to run, already validated and expanded (`all` or an
    /// empty list becomes every id in the paper's order).
    pub ids: Vec<String>,
    /// Output directory for `<id>.txt` / `<id>.<n>.csv` artefacts.
    pub out_dir: PathBuf,
    /// `--list`: print every experiment id and exit.
    pub list: bool,
    /// `--help` / `-h`: print usage and exit.
    pub help: bool,
}

/// Apply a profile flag: set the fields the profiles differ in (runs,
/// datasets, budgets, bootstrap, the tuner's iterations and top-k) to
/// `profile`'s, and keep every other flag given before it.
fn apply_profile(cfg: &mut ExpConfig, profile: ExpConfig) {
    cfg.runs = profile.runs;
    cfg.n_datasets = profile.n_datasets;
    cfg.budgets = profile.budgets;
    cfg.bootstrap = profile.bootstrap;
    cfg.devtune_iters = profile.devtune_iters;
    cfg.devtune_top_k = profile.devtune_top_k;
}

/// Pull the next argument as the value of `flag` and parse it.
fn num<T: FromStr>(
    flag: &'static str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, CliError> {
    let value = args.next().ok_or(CliError::MissingValue(flag))?;
    value
        .parse()
        .map_err(|_| CliError::BadNumber { flag, value })
}

impl CliArgs {
    /// Parse an argument list (without the program name).
    ///
    /// Flags may appear in any order and are applied left to right, so
    /// `--fast --runs 5` overrides the fast profile's repetition count
    /// while `--runs 5 --fast` does not — same as the old loop. A profile
    /// flag (`--fast`, `--full`) sets only what the profiles differ in, so
    /// every other flag holds on either side of it.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, CliError> {
        let mut cfg = ExpConfig::standard();
        let mut ids: Vec<String> = Vec::new();
        let mut out_dir = PathBuf::from("results");
        let mut list = false;
        let mut help = false;

        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--fast" => apply_profile(&mut cfg, ExpConfig::fast()),
                "--full" => apply_profile(
                    &mut cfg,
                    ExpConfig {
                        runs: 10, // the paper's repetition count
                        ..ExpConfig::default()
                    },
                ),
                "--runs" => cfg.runs = num::<usize>("--runs", &mut args)?.max(1),
                "--datasets" => {
                    cfg.n_datasets = num::<usize>("--datasets", &mut args)?.clamp(1, 39)
                }
                "--devtune-iters" => {
                    cfg.devtune_iters = num::<usize>("--devtune-iters", &mut args)?.max(1)
                }
                "--seed" => cfg.seed = num::<u64>("--seed", &mut args)?,
                "--jobs" => cfg.parallelism = num::<usize>("--jobs", &mut args)?,
                "--rps" => cfg.serve_rps = num::<usize>("--rps", &mut args)?.max(1) as f64,
                "--serve-workers" => {
                    cfg.serve_replicas = num::<usize>("--serve-workers", &mut args)?.max(1)
                }
                "--slo-ms" => cfg.slo_ms = num::<usize>("--slo-ms", &mut args)?.max(1) as f64,
                "--fleet-rps" => {
                    cfg.fleet_rps = num::<usize>("--fleet-rps", &mut args)?.max(1) as f64
                }
                "--fleet-requests" => {
                    cfg.fleet_requests = num::<usize>("--fleet-requests", &mut args)?.max(1)
                }
                "--out" => {
                    out_dir = PathBuf::from(args.next().ok_or(CliError::MissingValue("--out"))?)
                }
                "--checkpoint" => {
                    cfg.checkpoint = Some(PathBuf::from(
                        args.next().ok_or(CliError::MissingValue("--checkpoint"))?,
                    ))
                }
                "--hosts" => cfg.hosts = num::<usize>("--hosts", &mut args)?.max(1),
                "--host-crash-p" => {
                    let p = num::<f64>("--host-crash-p", &mut args)?;
                    FaultPlan {
                        host_crash_p: p,
                        ..FaultPlan::default()
                    }
                    .validate()
                    .map_err(CliError::InvalidFaultPlan)?;
                    cfg.host_crash_p = Some(p);
                }
                "--no-eval-cache" => cfg.eval_cache = false,
                "--list" => list = true,
                "--help" | "-h" => help = true,
                other if other.starts_with('-') => {
                    return Err(CliError::UnknownFlag(other.to_string()))
                }
                other => ids.push(other.to_string()),
            }
        }

        if !list && !help {
            // Reject unknown ids up front rather than failing mid-run.
            if let Some(bad) = ids
                .iter()
                .find(|id| *id != "all" && !all_experiment_ids().contains(&id.as_str()))
            {
                return Err(CliError::UnknownExperiment(bad.clone()));
            }
            if ids.is_empty() || ids.iter().any(|i| i == "all") {
                ids = all_experiment_ids().iter().map(|s| s.to_string()).collect();
            }
        }

        Ok(CliArgs {
            cfg,
            ids,
            out_dir,
            list,
            help,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_expand_to_every_experiment() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.cfg, ExpConfig::standard());
        assert_eq!(a.ids.len(), all_experiment_ids().len());
        assert_eq!(a.out_dir, PathBuf::from("results"));
        assert!(!a.list && !a.help);
    }

    #[test]
    fn flags_apply_left_to_right() {
        let a = parse(&[
            "--fast", "--runs", "5", "--seed", "7", "--jobs", "3", "fig3", "serve",
        ])
        .unwrap();
        assert_eq!(a.cfg.runs, 5);
        assert_eq!(a.cfg.seed, 7);
        assert_eq!(a.cfg.parallelism, 3);
        assert_eq!(a.cfg.budgets, ExpConfig::fast().budgets);
        assert_eq!(a.ids, vec!["fig3", "serve"]);
    }

    #[test]
    fn no_eval_cache_flag_disables_memoisation() {
        assert!(parse(&[]).unwrap().cfg.eval_cache);
        assert!(!parse(&["--no-eval-cache"]).unwrap().cfg.eval_cache);
    }

    /// Every flag that sets no profile field, with a non-default value.
    const KNOBS: [&str; 21] = [
        "--no-eval-cache",
        "--jobs",
        "3",
        "--checkpoint",
        "grid.ckpt",
        "--hosts",
        "2",
        "--host-crash-p",
        "0.25",
        "--rps",
        "700",
        "--serve-workers",
        "6",
        "--slo-ms",
        "80",
        "--fleet-rps",
        "900",
        "--fleet-requests",
        "300",
        "--seed",
        "7",
    ];

    #[test]
    fn profile_flags_keep_every_other_flag_on_either_side() {
        for profile in ["--fast", "--full"] {
            let before = parse(&[&KNOBS[..], &[profile]].concat()).unwrap();
            let after = parse(&[&[profile], &KNOBS[..]].concat()).unwrap();
            assert_eq!(before.cfg, after.cfg, "{profile}");
            let cfg = before.cfg;
            assert!(!cfg.eval_cache, "{profile} keeps --no-eval-cache");
            assert_eq!(cfg.parallelism, 3);
            assert_eq!(cfg.checkpoint, Some(PathBuf::from("grid.ckpt")));
            assert_eq!((cfg.hosts, cfg.host_crash_p), (2, Some(0.25)));
            assert_eq!(
                (cfg.serve_rps, cfg.serve_replicas, cfg.slo_ms),
                (700.0, 6, 80.0)
            );
            assert_eq!((cfg.fleet_rps, cfg.fleet_requests), (900.0, 300));
            assert_eq!(cfg.seed, 7);
        }
        // The profile itself still applies, whichever side the knobs are.
        let fast = parse(&["--jobs", "3", "--fast"]).unwrap().cfg;
        assert_eq!(
            ExpConfig {
                parallelism: 0,
                ..fast
            },
            ExpConfig::fast()
        );
        let full = parse(&["--full", "--jobs", "3"]).unwrap().cfg;
        assert_eq!(full.runs, 10);
        assert_eq!(full.n_datasets, 39);
        assert_eq!(full.budgets, ExpConfig::default().budgets);
    }

    #[test]
    fn a_profile_flag_resets_the_runs_given_before_it() {
        assert_eq!(parse(&["--runs", "5", "--fast"]).unwrap().cfg.runs, 2);
        let full = parse(&["--datasets", "3", "--devtune-iters", "4", "--full"]).unwrap();
        assert_eq!((full.cfg.n_datasets, full.cfg.devtune_iters), (39, 30));
    }

    #[test]
    fn unknown_flag_is_named() {
        assert_eq!(
            parse(&["--bogus"]),
            Err(CliError::UnknownFlag("--bogus".into()))
        );
    }

    #[test]
    fn missing_value_names_the_flag() {
        assert_eq!(parse(&["--runs"]), Err(CliError::MissingValue("--runs")));
        assert_eq!(parse(&["--out"]), Err(CliError::MissingValue("--out")));
    }

    #[test]
    fn malformed_number_is_rejected_not_swallowed() {
        // The old hand-rolled loop dumped bare usage here with no hint of
        // which flag was malformed.
        assert_eq!(
            parse(&["--jobs", "abc"]),
            Err(CliError::BadNumber {
                flag: "--jobs",
                value: "abc".into()
            })
        );
        assert_eq!(
            parse(&["--seed", "-1"]),
            Err(CliError::BadNumber {
                flag: "--seed",
                value: "-1".into()
            })
        );
    }

    #[test]
    fn unknown_experiment_id_is_rejected() {
        assert_eq!(
            parse(&["fig99"]),
            Err(CliError::UnknownExperiment("fig99".into()))
        );
        // …but not when only listing/printing help.
        assert!(parse(&["--list", "fig99"]).unwrap().list);
    }

    #[test]
    fn cluster_knobs_parse_and_validate() {
        let a = parse(&["--hosts", "0", "--host-crash-p", "0.25", "cluster"]).unwrap();
        assert_eq!(a.cfg.hosts, 1, "--hosts clamps to at least one host");
        assert_eq!(a.cfg.host_crash_p, Some(0.25));
        assert_eq!(a.ids, vec!["cluster"]);
        // An out-of-range probability is rejected with the typed
        // FaultPlanError naming the field, not silently clamped.
        assert_eq!(
            parse(&["--host-crash-p", "1.5"]),
            Err(CliError::InvalidFaultPlan(FaultPlanError::NonProbability(
                "host_crash_p"
            )))
        );
        let msg = parse(&["--host-crash-p", "1.5"]).unwrap_err().to_string();
        assert!(
            msg.contains("host_crash_p"),
            "error must name the field: {msg}"
        );
    }

    #[test]
    fn fleet_knobs_parse_and_clamp() {
        let a = parse(&["--fleet-rps", "800", "--fleet-requests", "0", "fleet"]).unwrap();
        assert_eq!(a.cfg.fleet_rps, 800.0);
        assert_eq!(a.cfg.fleet_requests, 1);
        assert_eq!(a.ids, vec!["fleet"]);
    }

    #[test]
    fn all_expands_and_clamps_hold() {
        let a = parse(&["all", "--datasets", "99", "--rps", "0"]).unwrap();
        assert_eq!(a.ids.len(), all_experiment_ids().len());
        assert_eq!(a.cfg.n_datasets, 39);
        assert_eq!(a.cfg.serve_rps, 1.0);
    }

    #[test]
    fn errors_render_with_context() {
        let e = CliError::BadNumber {
            flag: "--jobs",
            value: "abc".into(),
        };
        assert_eq!(e.to_string(), "--jobs expects a number, got \"abc\"");
        assert!(CliError::UnknownExperiment("x".into())
            .to_string()
            .contains("fig3"));
    }
}
