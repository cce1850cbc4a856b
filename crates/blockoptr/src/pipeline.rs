//! The end-to-end BlockOptR workflow (paper Figure 5) and its product,
//! [`Analysis`].
//!
//! The primary entry points live in [`crate::session`]: configure an
//! [`Analyzer`](crate::session::Analyzer), open a [`Session`](crate::session::Session), ingest blocks,
//! snapshot. The batch workflow is a one-shot session:
//!
//! ```no_run
//! use blockoptr::session::Analyzer;
//! use workload::spec::ControlVariables;
//!
//! let cv = ControlVariables::default();
//! let bundle = workload::synthetic::generate(&cv);
//! let output = bundle.run(cv.network_config());
//!
//! // Batch: one-shot analysis of a complete ledger.
//! let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
//! for rec in &analysis.recommendations {
//!     println!("[{}] {}: {}", rec.level(), rec.name(), rec.rationale());
//! }
//!
//! // Streaming: the same analysis, block by block.
//! let mut session = Analyzer::new().session().unwrap();
//! for block in output.ledger.blocks() {
//!     session.ingest_block(block);
//!     let windowed = session.snapshot().unwrap();
//!     assert!(windowed.log.len() <= analysis.log.len());
//! }
//! ```

use crate::caseid::CaseDerivation;
use crate::log::BlockchainLog;
use crate::metrics::Metrics;
use crate::recommend::{Recommendation, Thresholds};
use process_mining::eventlog::EventLog;
use process_mining::heuristics::DependencyGraph;
use std::sync::Arc;

/// Everything one analysis produces.
///
/// The heavyweight inputs (`log`, `event_log`, `case_derivation.case_ids`)
/// are `Arc`-shared with the producing session, so taking a snapshot per
/// window does not copy the accumulated history.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The preprocessed blockchain log.
    pub log: Arc<BlockchainLog>,
    /// The derived metrics.
    pub metrics: Metrics,
    /// How CaseIDs were derived.
    pub case_derivation: CaseDerivation,
    /// The generated event log.
    pub event_log: Arc<EventLog>,
    /// The mined process model (heuristics dependency graph — robust to the
    /// noise that transaction failures inject; the Alpha net is available
    /// via `process_mining::alpha_miner(&analysis.event_log)`).
    pub model: DependencyGraph,
    /// The thresholds the recommendations were evaluated against (the
    /// configured set, or the derived one when auto-tuning is enabled).
    pub thresholds: Thresholds,
    /// The recommendations, sorted by level then name.
    pub recommendations: Vec<Recommendation>,
}

impl Analysis {
    /// Reorder the event log's traces by case id, matching
    /// [`to_event_log`](crate::eventlog::to_event_log)'s ordering. The
    /// one-shot entry points apply this so batch exports (XES, DOT) are
    /// byte-stable against the pre-session pipeline; streaming snapshots
    /// keep first-appearance order to stay O(state).
    pub fn with_sorted_traces(mut self) -> Self {
        let mut traces = self.event_log.traces().to_vec();
        traces.sort_by(|a, b| a.case_id.cmp(&b.case_id));
        self.event_log = Arc::new(EventLog::from_traces(traces));
        self
    }

    /// Recommendation names, for quick assertions and table rendering.
    pub fn recommendation_names(&self) -> Vec<&str> {
        self.recommendations.iter().map(|r| r.name()).collect()
    }

    /// Whether a recommendation with the given name is present.
    pub fn recommends(&self, name: &str) -> bool {
        self.recommendations.iter().any(|r| r.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Analyzer;
    use fabric_sim::ledger::Ledger;
    use fabric_sim::sim::SimOutput;
    use workload::ScenarioSpec;

    /// Run the built-in synthetic scenario (at `txs` transactions, or its
    /// paper default) and analyze the resulting ledger.
    fn analyze_synthetic(txs: Option<usize>) -> (SimOutput, Analysis) {
        let mut spec = ScenarioSpec::builtin("synthetic").unwrap();
        if let Some(txs) = txs {
            spec = spec.with_transactions(txs);
        }
        let (bundle, config) = spec.build().unwrap();
        let output = bundle.run(config);
        let analysis = Analyzer::new().analyze_ledger(&output.ledger).unwrap();
        (output, analysis)
    }

    #[test]
    fn pipeline_produces_complete_analysis() {
        let (output, analysis) = analyze_synthetic(Some(2_000));
        assert_eq!(analysis.log.len(), output.report.committed);
        assert!(analysis.metrics.rates.tr > 0.0);
        assert!(!analysis.event_log.is_empty());
        assert_eq!(analysis.case_derivation.family, "k");
        assert!(analysis.model.activity_counts.len() >= 4);
        assert_eq!(analysis.thresholds, Thresholds::default());
    }

    #[test]
    fn default_synthetic_recommends_sensibly() {
        // At send rate 300 with block count 100, the mismatch fires block
        // size adaptation; conflicts are mostly read-vs-update (reorderable).
        let (_, analysis) = analyze_synthetic(None);
        assert!(
            analysis.recommends("Block size adaptation"),
            "{:?}",
            analysis.recommendation_names()
        );
        // Never the data-level or pruning rules on the plain contract.
        assert!(!analysis.recommends("Process model pruning"));
        assert!(!analysis.recommends("Delta writes"));
        assert!(!analysis.recommends("Data model alteration"));
        assert!(!analysis.recommends("Smart contract partitioning"));
    }

    #[test]
    fn analysis_accessors() {
        let (_, analysis) = analyze_synthetic(Some(2_000));
        let names = analysis.recommendation_names();
        for n in &names {
            assert!(analysis.recommends(n));
        }
        assert!(!analysis.recommends("Nonexistent rule"));
    }

    #[test]
    fn empty_ledger_yields_empty_analysis() {
        // The one-shot entry points report an empty ledger as an error; a
        // session's `snapshot_or_empty` still renders it as an empty
        // analysis.
        assert!(Analyzer::new().analyze_ledger(&Ledger::new()).is_err());
        let mut session = Analyzer::new().session().unwrap();
        session.ingest_ledger(&Ledger::new());
        let analysis = session.snapshot_or_empty();
        assert!(analysis.log.is_empty());
        assert!(analysis.recommendations.is_empty());
    }
}
