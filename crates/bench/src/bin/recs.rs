//! Calibration scratchpad for recommendation fidelity: prints the
//! recommendation set BlockOptR derives for each paper workload.

use bench::experiments::run_and_analyze;
use fabric_sim::config::NetworkConfig;
use workload::spec::{ControlVariables, PolicyChoice, WorkloadType};
use workload::{drm, dv, ehr, lap, scm, synthetic};

fn show(name: &str, names: Vec<&str>) {
    println!("{name:<42} → {}", names.join(" | "));
}

fn main() {
    let synth = |name: &str, cv: ControlVariables| {
        let b = synthetic::generate(&cv);
        let (_, a) = run_and_analyze(&b, cv.network_config());
        show(name, a.recommendation_names());
    };
    synth("defaults", ControlVariables::default());
    synth(
        "exp1 P1",
        ControlVariables {
            policy: PolicyChoice::P1,
            ..Default::default()
        },
    );
    synth(
        "exp2 P2+skew6",
        ControlVariables {
            policy: PolicyChoice::P2,
            endorser_skew: 6.0,
            ..Default::default()
        },
    );
    synth(
        "exp3 orgs4",
        ControlVariables {
            orgs: 4,
            ..Default::default()
        },
    );
    synth(
        "exp4 read-heavy",
        ControlVariables {
            workload: WorkloadType::ReadHeavy,
            ..Default::default()
        },
    );
    synth(
        "exp5 update-heavy",
        ControlVariables {
            workload: WorkloadType::UpdateHeavy,
            ..Default::default()
        },
    );
    synth(
        "exp6 insert-heavy",
        ControlVariables {
            workload: WorkloadType::InsertHeavy,
            ..Default::default()
        },
    );
    synth(
        "exp7 rangeread-heavy",
        ControlVariables {
            workload: WorkloadType::RangeReadHeavy,
            ..Default::default()
        },
    );
    synth(
        "exp8 key skew 2",
        ControlVariables {
            key_skew: 2.0,
            ..Default::default()
        },
    );
    synth(
        "exp9 block 50",
        ControlVariables {
            block_count: 50,
            ..Default::default()
        },
    );
    synth(
        "exp10 block 300",
        ControlVariables {
            block_count: 300,
            ..Default::default()
        },
    );
    synth(
        "exp11 block 1000",
        ControlVariables {
            block_count: 1000,
            ..Default::default()
        },
    );
    synth(
        "exp12 send 50",
        ControlVariables {
            send_rate: 50.0,
            ..Default::default()
        },
    );
    synth("exp13 send 300", ControlVariables::default());
    synth(
        "exp14 send 1000",
        ControlVariables {
            send_rate: 1000.0,
            ..Default::default()
        },
    );
    synth(
        "exp15 tx skew 70%",
        ControlVariables {
            tx_dist_skew: 0.7,
            ..Default::default()
        },
    );

    let cfg = NetworkConfig::default;
    let (_, a) = run_and_analyze(&scm::generate(&scm::ScmSpec::default()), cfg());
    show(
        "SCM  (paper: reorder, prune, rate)",
        a.recommendation_names(),
    );
    let (_, a) = run_and_analyze(&drm::generate(&drm::DrmSpec::default()), cfg());
    show(
        "DRM  (paper: reorder, delta, partition)",
        a.recommendation_names(),
    );
    let (_, a) = run_and_analyze(&ehr::generate(&ehr::EhrSpec::default()), cfg());
    show(
        "EHR  (paper: reorder, prune, rate)",
        a.recommendation_names(),
    );
    let (_, a) = run_and_analyze(&dv::generate(&dv::DvSpec::default()), cfg());
    show("DV   (paper: rate, data model)", a.recommendation_names());
    let (_, a) = run_and_analyze(&lap::generate(&lap::LapSpec::default()), cfg());
    show("LAP@10 (paper: data model)", a.recommendation_names());
    let (_, a) = run_and_analyze(
        &lap::generate(&lap::LapSpec {
            send_rate: 300.0,
            ..Default::default()
        }),
        cfg(),
    );
    show(
        "LAP@300 (paper: data model, rate)",
        a.recommendation_names(),
    );
}
