//! `STGNN_FAULTS` is read once per process, lazily. A plan installed
//! before the process's first failpoint check must still replace the
//! environment's plan, not be replaced by it. The environment is read once
//! per process, so this binary holds one test.

use stgnn_faults::{check_io, scoped, FaultPlan, FaultSpec, Trigger};

#[test]
fn a_scoped_plan_replaces_the_environment_plan() {
    std::env::set_var("STGNN_FAULTS", "env::site=io@every");
    let _plan = scoped(FaultPlan::new().with("scoped::site", FaultSpec::io(Trigger::EveryHit)));
    assert!(
        check_io("scoped::site").is_some(),
        "the scoped plan was replaced by STGNN_FAULTS"
    );
    assert!(
        check_io("env::site").is_none(),
        "STGNN_FAULTS outlived the scoped plan installed over it"
    );
}
