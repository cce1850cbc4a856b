//! # chaincode
//!
//! The smart contracts of the BlockOptR evaluation (paper §5.1), implemented
//! against `fabric-sim`'s [`Contract`] interface, plus every *optimized
//! variant* the paper derives from BlockOptR's recommendations (§6.2–6.3):
//!
//! | Contract | Module | Optimized variants |
//! |---|---|---|
//! | genChain synthetic | [`genchain`] | — (generic read/write/update/range/delete) |
//! | Supply Chain Management | [`scm`] | process-model-pruned |
//! | Digital Rights Management | [`drm`] | delta-writes; partitioned (two chaincodes) |
//! | Electronic Health Records | [`ehr`] | process-model-pruned |
//! | Digital Voting | [`dv`] | per-voter data model |
//! | Loan Application Process | [`lap`] | per-application data model |
//!
//! All contracts are **deterministic in `(state, args)`** — workload
//! generators bake every random choice (keys, values, nonces) into the
//! arguments, so endorsement re-execution always reproduces the same
//! read-write set. The simulator relies on this to let a proposal's
//! endorsers share one execution while the world state is unchanged.
//!
//! No contract panics on a bad call: an unknown activity or a missing or
//! mistyped argument aborts the proposal with the reason
//! (`ExecStatus::Abort`), as Fabric chaincode returns an error.

pub mod drm;
pub mod dv;
pub mod ehr;
pub mod genchain;
pub mod lap;
pub mod registry;
pub mod scm;

pub use drm::{
    DrmContract, DrmDeltaContract, DrmMetaContract, DrmPlayContract, DrmPlayDeltaContract,
};
pub use dv::{DvContract, DvPerVoterContract};
pub use ehr::EhrContract;
pub use genchain::GenChainContract;
pub use lap::{LapByApplicationContract, LapByEmployeeContract};
pub use scm::ScmContract;

pub use fabric_sim::contract::{Contract, ExecStatus, TxContext};
pub use fabric_sim::types::Value;

/// String argument accessor that reports a malformed call as the reason to
/// reject it (`ExecStatus::Abort`), the way Fabric chaincode returns an error.
pub(crate) fn try_arg_str<'a>(args: &'a [Value], i: usize, what: &str) -> Result<&'a str, String> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("argument {i} ({what}) must be a string"))
}

/// Integer argument accessor; like [`try_arg_str`], a missing or mistyped
/// argument is the reason to reject the call.
pub(crate) fn try_arg_int(args: &[Value], i: usize, what: &str) -> Result<i64, String> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("argument {i} ({what}) must be an integer"))
}

/// Run a contract body: `Err(reason)` — an unknown activity, a malformed
/// argument, or a business-rule rejection — aborts the proposal during
/// endorsement instead of crashing the peer.
pub(crate) fn endorse(body: impl FnOnce() -> Result<(), String>) -> ExecStatus {
    match body() {
        Ok(()) => ExecStatus::Ok,
        Err(reason) => ExecStatus::Abort(reason),
    }
}

/// Test support shared by the contract modules.
#[cfg(test)]
pub(crate) mod testing {
    use super::{Contract, ExecStatus, TxContext, Value};
    use fabric_sim::state::WorldState;

    /// Execute one call against empty state and return the contract's
    /// reason to abort it, if it aborted.
    pub(crate) fn abort_reason(
        cc: &dyn Contract,
        activity: &str,
        args: &[Value],
    ) -> Option<String> {
        let state = WorldState::new();
        let mut ctx = TxContext::new(&state, cc.name());
        match cc.execute(&mut ctx, activity, args) {
            ExecStatus::Ok => None,
            ExecStatus::Abort(reason) => Some(reason),
        }
    }
}
