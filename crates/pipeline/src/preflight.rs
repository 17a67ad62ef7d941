//! The pre-flight analysis seam between the pipeline and the analyzer.
//!
//! The pipeline never depends on the analyzer (the analyzer depends on
//! the workloads, which depend on the pipeline); instead a
//! [`Preflight`] carries a plain `fn` pointer the analyzer supplies and
//! a [`PolicyMode`] deciding what its findings may do: nothing
//! (`Off`), print (`Warn` — the mode for reproducing the paper's
//! measurements, where version 3's queue bug must execute to be
//! measured), or refuse the run (`Deny`).

use crate::{PipelineConfig, Workload};

/// What a pre-flight analysis of a run configuration concluded.
///
/// Kept deliberately flat — counts plus pre-rendered text — so the
/// pipeline needs no knowledge of the analyzer's diagnostic model.
#[derive(Debug, Clone, Default)]
pub struct PreflightSummary {
    /// Findings that predict a broken measurement (deadlock, event
    /// loss, corrupted attribution).
    pub errors: usize,
    /// Findings that predict a distorted measurement.
    pub warnings: usize,
    /// Informational findings — proofs of absence, certificates,
    /// provenance notes. Tracked so analysis drift (a proof appearing
    /// or disappearing) is visible run-to-run, not just defects.
    pub infos: usize,
    /// The findings, rendered for a terminal.
    pub rendered: String,
}

/// The analysis hook an external crate supplies for workload `W`.
pub type PreflightHook<W> = fn(&PipelineConfig<W>) -> PreflightSummary;

/// What the pre-flight findings are allowed to do to the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyMode {
    /// Run without any pre-flight analysis.
    #[default]
    Off,
    /// Analyze, print any findings to stderr, and run regardless.
    Warn,
    /// Analyze and refuse to run a configuration with errors.
    Deny,
}

impl PolicyMode {
    /// Resolves the mode from the `ANALYZER_POLICY` environment
    /// variable (`off` | `warn` | `deny`, case-insensitive). `None`
    /// when unset; an unrecognized value is reported on stderr and
    /// treated as unset — a sweep should not silently lose its
    /// analysis because of a typo.
    pub fn from_env() -> Option<PolicyMode> {
        match std::env::var("ANALYZER_POLICY") {
            Err(_) => None,
            Ok(value) => match value.to_ascii_lowercase().as_str() {
                "off" => Some(PolicyMode::Off),
                "warn" => Some(PolicyMode::Warn),
                "deny" => Some(PolicyMode::Deny),
                other => {
                    eprintln!(
                        "ANALYZER_POLICY={other:?} not recognized (expected off|warn|deny); \
                         keeping the default policy"
                    );
                    None
                }
            },
        }
    }
}

/// Whether (and how strictly) [`crate::run_workload`] analyzes its
/// configuration before executing it.
pub struct Preflight<W: Workload> {
    /// What the findings may do. A mode other than [`PolicyMode::Off`]
    /// with no hook behaves as `Off` (there is nothing to run).
    pub mode: PolicyMode,
    /// The analysis itself, supplied externally (see
    /// [`PreflightHook`]).
    pub hook: Option<PreflightHook<W>>,
}

// Manual impls: `W` appears only inside the fn-pointer type, so the
// derive-generated `W: Clone`/`W: Copy` bounds would be too strict.
impl<W: Workload> Clone for Preflight<W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<W: Workload> Copy for Preflight<W> {}

impl<W: Workload> Default for Preflight<W> {
    fn default() -> Self {
        Preflight::off()
    }
}

impl<W: Workload> std::fmt::Debug for Preflight<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Preflight")
            .field("mode", &self.mode)
            .field("hook", &self.hook.map(|_| "fn"))
            .finish()
    }
}

impl<W: Workload> Preflight<W> {
    /// No analysis.
    pub const fn off() -> Self {
        Preflight {
            mode: PolicyMode::Off,
            hook: None,
        }
    }

    /// Analyze with `hook`, print findings, run regardless.
    pub const fn warn(hook: PreflightHook<W>) -> Self {
        Preflight {
            mode: PolicyMode::Warn,
            hook: Some(hook),
        }
    }

    /// Analyze with `hook` and refuse to run on errors.
    pub const fn deny(hook: PreflightHook<W>) -> Self {
        Preflight {
            mode: PolicyMode::Deny,
            hook: Some(hook),
        }
    }
}

/// A pre-flight analysis that refused the run (see [`try_preflight`]).
///
/// Carries the complete summary — every finding, not just the first —
/// so a caller batching many configurations can surface all of them
/// before failing.
#[derive(Debug, Clone)]
pub struct PreflightDenied {
    /// The full analysis summary, findings included.
    pub summary: PreflightSummary,
}

impl std::fmt::Display for PreflightDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pre-flight analysis found {} error(s); refusing to run:\n{}",
            self.summary.errors, self.summary.rendered
        )
    }
}

impl std::error::Error for PreflightDenied {}

/// Runs the configured pre-flight analysis without panicking.
///
/// All findings are printed to stderr *before* the verdict is taken,
/// so a denied run still reports everything the analysis found — not
/// just the first failure.
///
/// # Errors
///
/// Returns [`PreflightDenied`] (carrying the complete summary) under
/// [`PolicyMode::Deny`] when the analysis reports errors.
pub fn try_preflight<W: Workload>(
    cfg: &PipelineConfig<W>,
) -> Result<Option<PreflightSummary>, PreflightDenied> {
    let (hook, deny) = match (cfg.preflight.mode, cfg.preflight.hook) {
        (PolicyMode::Off, _) | (_, None) => return Ok(None),
        (PolicyMode::Warn, Some(hook)) => (hook, false),
        (PolicyMode::Deny, Some(hook)) => (hook, true),
    };
    let summary = hook(cfg);
    if summary.errors + summary.warnings > 0 {
        eprintln!("{}", summary.rendered.trim_end());
    }
    if deny && summary.errors > 0 {
        return Err(PreflightDenied { summary });
    }
    Ok(Some(summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_selects_policies() {
        // The only test in this binary touching ANALYZER_POLICY, so the
        // probes are serialized; the variable is left unset at the end.
        let table: [(Option<&str>, Option<PolicyMode>); 5] = [
            (Some("off"), Some(PolicyMode::Off)),
            (Some("WARN"), Some(PolicyMode::Warn)),
            (Some("deny"), Some(PolicyMode::Deny)),
            // Unrecognized values read as unset, keeping the default.
            (Some("strict"), None),
            (None, None),
        ];
        for (value, expected) in table {
            match value {
                Some(v) => std::env::set_var("ANALYZER_POLICY", v),
                None => std::env::remove_var("ANALYZER_POLICY"),
            }
            assert_eq!(
                PolicyMode::from_env(),
                expected,
                "ANALYZER_POLICY={value:?}"
            );
        }
    }
}
