//! Tests of the apply step of the optimize loop: recommendations lowered
//! with [`OptimizationPlan::from_recommendations`] and applied to a request
//! schedule and a network configuration with
//! [`OptimizationPlan::transform`], as the loop applies them before
//! re-measuring. The per-action lowering is tested in [`crate::action`].

#[cfg(test)]
mod tests {
    use crate::plan::OptimizationPlan;
    use crate::recommend::Recommendation;
    use fabric_sim::config::NetworkConfig;
    use fabric_sim::policy::EndorsementPolicy;
    use fabric_sim::sim::TxRequest;
    use fabric_sim::types::OrgId;
    use sim_core::time::SimTime;
    use workload::{VariantKind, WorkloadBundle};

    fn req(i: u64, activity: &str) -> TxRequest {
        TxRequest {
            send_time: SimTime::from_millis(i * 10),
            contract: "cc".into(),
            activity: activity.into(),
            args: vec![].into(),
            invoker_org: OrgId(0),
        }
    }

    /// Apply `recs` to a bundle holding `reqs` and to `cfg`; returns the
    /// rewritten schedule, the rewritten configuration, the descriptions of
    /// the planned actions and the variant kinds left manual.
    fn apply(
        reqs: Vec<TxRequest>,
        cfg: &NetworkConfig,
        recs: &[Recommendation],
    ) -> (Vec<TxRequest>, NetworkConfig, Vec<String>, Vec<VariantKind>) {
        let plan = OptimizationPlan::from_recommendations(recs);
        let bundle = WorkloadBundle::new(Vec::new(), Vec::new(), reqs);
        let (out_bundle, out_cfg, manual) = plan.transform(&bundle, cfg);
        let applied = plan.actions.iter().map(|a| a.action.describe()).collect();
        (out_bundle.requests, out_cfg, applied, manual)
    }

    #[test]
    fn reordering_defers_failed_readers() {
        let reqs = vec![req(0, "query"), req(1, "write"), req(2, "query")];
        let recs = vec![Recommendation::ActivityReordering {
            pairs: vec![(("query".into(), "write".into()), 10)],
            share: 0.8,
        }];
        let (out, cfg, applied, _) = apply(reqs, &NetworkConfig::default(), &recs);
        let acts: Vec<&str> = out.iter().map(|r| r.activity.as_ref()).collect();
        assert_eq!(acts, vec!["write", "query", "query"]);
        assert_eq!(cfg, NetworkConfig::default());
        assert_eq!(applied.len(), 1);
        assert!(applied[0].contains("query"));
    }

    #[test]
    fn rate_control_respaces() {
        let reqs = vec![req(0, "a"), req(1, "a"), req(2, "a")];
        let recs = vec![Recommendation::TransactionRateControl {
            intervals: vec![0],
            peak_rate: 300.0,
            suggested_rate: 10.0,
        }];
        let (out, _, applied, _) = apply(reqs, &NetworkConfig::default(), &recs);
        assert_eq!(
            out[2].send_time.as_micros() - out[0].send_time.as_micros(),
            200_000,
            "2 gaps at 10 tps = 200 ms"
        );
        assert!(applied[0].contains("10 tps"));
    }

    #[test]
    fn system_level_block_count() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::BlockSizeAdaptation {
            current_avg: 100.0,
            tr: 300.0,
            suggested_count: 300,
        }];
        let (_, out, applied, _) = apply(Vec::new(), &cfg, &recs);
        assert_eq!(out.block_count, 300);
        assert_eq!(applied, vec!["block count → 300"]);
    }

    #[test]
    fn system_level_restructures_policy() {
        let cfg = NetworkConfig {
            orgs: 4,
            endorsement_policy: EndorsementPolicy::p1(),
            endorser_skew: 6.0,
            ..NetworkConfig::default()
        };
        let recs = vec![Recommendation::EndorserRestructuring {
            shares: vec![("Org1".into(), 0.5)],
            overloaded: vec!["Org1".into()],
        }];
        let (_, out, applied, _) = apply(Vec::new(), &cfg, &recs);
        assert_eq!(
            out.endorsement_policy.to_string(),
            "OutOf(2,Org1,Org2,Org3,Org4)",
            "P1 needs 2 endorsers → generalized to P4"
        );
        assert_eq!(out.endorser_skew, 0.0, "skew removed by the measure");
        assert!(out.endorsement_policy.mandatory_orgs().is_empty());
        assert_eq!(
            applied,
            vec!["endorsement policy → OutOf(k, all orgs)".to_string()]
        );
    }

    #[test]
    fn system_level_boosts_clients() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::ClientResourceBoost {
            org: "Org2".into(),
            share: 0.7,
        }];
        let (_, out, applied, _) = apply(Vec::new(), &cfg, &recs);
        assert_eq!(out.client_boost, Some((1, 2)));
        assert!(applied[0].contains("Org2"));
    }

    #[test]
    fn data_level_recommendations_are_left_alone() {
        let cfg = NetworkConfig::default();
        let recs = vec![Recommendation::DeltaWrites {
            activities: vec![("play".into(), 9)],
        }];
        let reqs = vec![req(0, "play")];
        let (out_reqs, out, _, manual) = apply(reqs.clone(), &cfg, &recs);
        assert_eq!(out, cfg);
        assert_eq!(out_reqs, reqs);
        // The bundle ships no delta-write rewrite: the change is manual.
        assert_eq!(manual, vec![VariantKind::DeltaWrites]);
    }
}
