//! Loan Application Process (LAP) contract and the altered data model.
//!
//! Reproduces the paper's §5.1.3 smart contract for the BPI-Challenge-2017
//! loan process of a Dutch financial institute. The paper's first
//! implementation uses the **employeeID as the key** whose value is an array
//! of application structures — convenient for "all applications processed by
//! an employee" queries, but employee 1 processes the most applications, so
//! their key becomes hot and every activity on any of their applications
//! conflicts (Figure 17's baseline).
//!
//! BlockOptR's *data model alteration* swaps the primary key to the
//! **applicationID** with the employee recorded inside the value
//! ([`LapByApplicationContract`]), removing the hot key.
//!
//! Both contracts expose the same loan-process activities:
//! `create`, `submit`, `handleLeads`, `createOffer`, `sendOffer`,
//! `validate`, `approve`, `decline`, `cancel`, `queryEmployee`.

use crate::{try_arg_str, Contract, ExecStatus, TxContext, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The loan-process activity names, in canonical flow order.
pub const LAP_ACTIVITIES: [&str; 9] = [
    "create",
    "submit",
    "handleLeads",
    "createOffer",
    "sendOffer",
    "validate",
    "approve",
    "decline",
    "cancel",
];

fn application_entry(app: &str, employee: &str, amount: i64, status: &str) -> Value {
    let mut m = BTreeMap::new();
    m.insert("application".to_string(), Value::Str(app.to_string()));
    m.insert("employee".to_string(), Value::Str(employee.to_string()));
    m.insert("loan_type".to_string(), Value::Str("consumer".to_string()));
    m.insert("amount".to_string(), Value::Int(amount));
    m.insert("status".to_string(), Value::Str(status.to_string()));
    Value::Map(m.into())
}

/// A well-formed call to either LAP data model.
enum LapCall<'a> {
    /// `queryEmployee(employee)`: read-only reporting.
    Query { employee: &'a str },
    /// A loan-process step `(employee, application, amount?)`.
    Step {
        activity: &'a str,
        employee: &'a str,
        app: &'a str,
        amount: i64,
    },
}

impl<'a> LapCall<'a> {
    /// Parse an invocation, or give the reason to reject it — an unknown
    /// activity or a missing / non-string id — as Fabric chaincode returns
    /// an error instead of crashing the peer.
    fn parse(activity: &'a str, args: &'a [Value]) -> Result<Self, String> {
        if activity == "queryEmployee" {
            let employee = try_arg_str(args, 0, "employee")?;
            return Ok(LapCall::Query { employee });
        }
        if !LAP_ACTIVITIES.contains(&activity) {
            return Err(format!("lap: unknown activity {activity:?}"));
        }
        Ok(LapCall::Step {
            activity,
            employee: try_arg_str(args, 0, "employee")?,
            app: try_arg_str(args, 1, "application")?,
            amount: args.get(2).and_then(Value::as_int).unwrap_or(0),
        })
    }
}

fn lap_activities() -> Vec<&'static str> {
    let mut acts = LAP_ACTIVITIES.to_vec();
    acts.push("queryEmployee");
    acts
}

/// Paper data model: key = employeeID, value = array of application records.
#[derive(Debug, Default, Clone, Copy)]
pub struct LapByEmployeeContract;

impl LapByEmployeeContract {
    /// Chaincode namespace.
    pub const NAME: &'static str = "lap";
}

impl LapByEmployeeContract {
    /// Replace or append `app`'s entry in the employee's list. The list is
    /// shared with the world state, so this copies its spine of element
    /// pointers; every other application entry stays shared.
    fn upsert(ctx: &mut TxContext<'_>, employee: &str, app: &str, amount: i64, status: &str) {
        let mut entries = match ctx.get_state(employee) {
            Some(Value::List(items)) => Arc::unwrap_or_clone(items),
            _ => Vec::new(),
        };
        let fresh = application_entry(app, employee, amount, status);
        if let Some(slot) = entries.iter_mut().find(|e| {
            e.as_map()
                .and_then(|m| m.get("application"))
                .and_then(Value::as_str)
                == Some(app)
        }) {
            *slot = fresh;
        } else {
            entries.push(fresh);
        }
        ctx.put_state(employee, Value::List(entries.into()));
    }
}

impl Contract for LapByEmployeeContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "lap:by-employee"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        match LapCall::parse(activity, args) {
            Ok(LapCall::Query { employee }) => {
                let _ = ctx.get_state(employee);
            }
            Ok(LapCall::Step {
                activity,
                employee,
                app,
                amount,
            }) => Self::upsert(ctx, employee, app, amount, activity),
            Err(reason) => return ExecStatus::Abort(reason),
        }
        ExecStatus::Ok
    }

    fn activities(&self) -> Vec<&'static str> {
        lap_activities()
    }
}

/// Altered data model: key = applicationID, employee inside the value.
#[derive(Debug, Default, Clone, Copy)]
pub struct LapByApplicationContract;

impl LapByApplicationContract {
    /// Chaincode namespace (upgraded in place).
    pub const NAME: &'static str = "lap";
}

impl Contract for LapByApplicationContract {
    fn name(&self) -> &str {
        Self::NAME
    }

    fn id(&self) -> &str {
        "lap:by-application"
    }

    fn execute(&self, ctx: &mut TxContext<'_>, activity: &str, args: &[Value]) -> ExecStatus {
        match LapCall::parse(activity, args) {
            Ok(LapCall::Query { employee }) => {
                // Per-employee reporting now scans applications; kept cheap
                // via the employee index key (read-only either way).
                let _ = ctx.get_state(&format!("emp-index:{employee}"));
            }
            Ok(LapCall::Step {
                activity,
                employee,
                app,
                amount,
            }) => {
                // `create` is a blind insert; every later step reads first.
                if activity != "create" {
                    let _ = ctx.get_state(app);
                }
                ctx.put_state(app, application_entry(app, employee, amount, activity));
            }
            Err(reason) => return ExecStatus::Abort(reason),
        }
        ExecStatus::Ok
    }

    fn activities(&self) -> Vec<&'static str> {
        lap_activities()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::state::WorldState;
    use fabric_sim::types::TxType;

    #[test]
    fn by_employee_all_activities_hit_employee_key() {
        let s = WorldState::new();
        let cc = LapByEmployeeContract;
        for act in ["create", "submit", "validate", "approve"] {
            let mut ctx = TxContext::new(&s, cc.name());
            assert!(cc
                .execute(
                    &mut ctx,
                    act,
                    &["E001".into(), "APP00001".into(), Value::Int(5000)]
                )
                .is_ok());
            let rw = ctx.into_rwset();
            assert_eq!(rw.writes[0].key, "lap/E001", "{act} writes employee key");
        }
    }

    #[test]
    fn by_employee_two_applications_same_employee_conflict() {
        // The structural hot-key problem: different applications handled by
        // the same employee share a key.
        let s = WorldState::new();
        let cc = LapByEmployeeContract;
        let mut c1 = TxContext::new(&s, cc.name());
        cc.execute(
            &mut c1,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let mut c2 = TxContext::new(&s, cc.name());
        cc.execute(
            &mut c2,
            "create",
            &["E001".into(), "APP2".into(), Value::Int(2)],
        );
        assert_eq!(c1.into_rwset().writes[0].key, c2.into_rwset().writes[0].key);
    }

    #[test]
    fn by_employee_upsert_replaces_entry() {
        let mut s = WorldState::new();
        s.seed(
            "lap/E001".into(),
            Value::List(vec![application_entry("APP1", "E001", 100, "create")].into()),
        );
        let cc = LapByEmployeeContract;
        let mut ctx = TxContext::new(&s, cc.name());
        cc.execute(
            &mut ctx,
            "submit",
            &["E001".into(), "APP1".into(), Value::Int(100)],
        );
        let rw = ctx.into_rwset();
        let list = rw.writes[0].value.as_ref().unwrap().as_list().unwrap();
        assert_eq!(list.len(), 1, "entry replaced, not duplicated");
        assert_eq!(
            list[0].as_map().unwrap().get("status"),
            Some(&Value::Str("submit".into()))
        );
    }

    #[test]
    fn by_application_uses_distinct_keys() {
        let s = WorldState::new();
        let cc = LapByApplicationContract;
        let mut c1 = TxContext::new(&s, cc.name());
        cc.execute(
            &mut c1,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let mut c2 = TxContext::new(&s, cc.name());
        cc.execute(
            &mut c2,
            "create",
            &["E001".into(), "APP2".into(), Value::Int(2)],
        );
        let k1 = c1.into_rwset().writes[0].key.clone();
        let k2 = c2.into_rwset().writes[0].key.clone();
        assert_ne!(k1, k2, "one key per application");
        assert_eq!(k1, "lap/APP1");
    }

    #[test]
    fn by_application_create_is_blind_insert() {
        let s = WorldState::new();
        let cc = LapByApplicationContract;
        let mut ctx = TxContext::new(&s, cc.name());
        cc.execute(
            &mut ctx,
            "create",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Write);
    }

    #[test]
    fn by_application_followup_reads_then_writes() {
        let mut s = WorldState::new();
        s.seed(
            "lap/APP1".into(),
            application_entry("APP1", "E001", 1, "create"),
        );
        let cc = LapByApplicationContract;
        let mut ctx = TxContext::new(&s, cc.name());
        cc.execute(
            &mut ctx,
            "validate",
            &["E001".into(), "APP1".into(), Value::Int(1)],
        );
        let rw = ctx.into_rwset();
        assert_eq!(rw.tx_type(), TxType::Update);
        let m = rw.writes[0].value.as_ref().unwrap().as_map().unwrap();
        assert_eq!(m.get("status"), Some(&Value::Str("validate".into())));
        assert_eq!(m.get("employee"), Some(&Value::Str("E001".into())));
    }

    #[test]
    fn query_employee_read_only_in_both_models() {
        let s = WorldState::new();
        let by_emp = LapByEmployeeContract;
        let mut c1 = TxContext::new(&s, by_emp.name());
        by_emp.execute(&mut c1, "queryEmployee", &["E001".into()]);
        assert!(c1.into_rwset().writes.is_empty());

        let by_app = LapByApplicationContract;
        let mut c2 = TxContext::new(&s, by_app.name());
        by_app.execute(&mut c2, "queryEmployee", &["E001".into()]);
        assert!(c2.into_rwset().writes.is_empty());
    }

    fn both_models() -> [Box<dyn Contract>; 2] {
        [
            Box::new(LapByEmployeeContract),
            Box::new(LapByApplicationContract),
        ]
    }

    fn aborts(cc: &dyn Contract, activity: &str, args: &[Value]) -> String {
        let s = WorldState::new();
        let mut ctx = TxContext::new(&s, cc.name());
        let status = cc.execute(&mut ctx, activity, args);
        let ExecStatus::Abort(reason) = status else {
            panic!(
                "{}: {activity} {args:?} should abort, got {status:?}",
                cc.id()
            );
        };
        assert!(
            ctx.into_rwset().writes.is_empty(),
            "an abort writes nothing"
        );
        reason
    }

    #[test]
    fn unknown_activity_aborts_in_both_models() {
        for cc in both_models() {
            let reason = aborts(&*cc, "approveAll", &["E001".into(), "APP1".into()]);
            assert!(reason.contains("unknown activity"), "{reason}");
        }
    }

    #[test]
    fn missing_or_non_string_ids_abort_in_both_models() {
        for cc in both_models() {
            let reason = aborts(&*cc, "queryEmployee", &[]);
            assert!(reason.contains("employee"), "{reason}");
            let reason = aborts(&*cc, "create", &[Value::Int(1), "APP1".into()]);
            assert!(reason.contains("employee"), "{reason}");
            let reason = aborts(&*cc, "submit", &["E001".into()]);
            assert!(reason.contains("application"), "{reason}");
            let reason = aborts(&*cc, "validate", &["E001".into(), Value::Unit]);
            assert!(reason.contains("application"), "{reason}");
        }
    }

    #[test]
    fn entry_structure_matches_paper_fields() {
        let v = application_entry("APP1", "E007", 25_000, "validate");
        let m = v.as_map().unwrap();
        for field in ["application", "employee", "loan_type", "amount", "status"] {
            assert!(m.contains_key(field), "missing {field}");
        }
    }
}
