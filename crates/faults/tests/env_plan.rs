//! `STGNN_FAULTS` is read once per process, lazily. A plan installed
//! before the process's first failpoint check must still replace the
//! environment's plan, not be replaced by it, and the environment's plan
//! must be back once that scoped plan ends. The environment is read once
//! per process, so this binary holds one test.

use stgnn_faults::{check_io, scoped, FaultPlan, FaultSpec, Trigger};

#[test]
fn a_scoped_plan_replaces_the_environment_plan() {
    std::env::set_var("STGNN_FAULTS", "env::site=io@every");
    let plan = scoped(FaultPlan::new().with("scoped::site", FaultSpec::io(Trigger::EveryHit)));
    assert!(
        check_io("scoped::site").is_some(),
        "the scoped plan was replaced by STGNN_FAULTS"
    );
    assert!(
        check_io("env::site").is_none(),
        "STGNN_FAULTS outlived the scoped plan installed over it"
    );
    drop(plan);
    assert!(
        check_io("env::site").is_some(),
        "the end of the scoped plan did not reinstall STGNN_FAULTS"
    );
    assert!(
        check_io("scoped::site").is_none(),
        "the scoped plan outlived its guard"
    );
}
