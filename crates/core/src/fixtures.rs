//! The paper's running example, as a reusable fixture.
//!
//! Hospital `H` stores `Hosp(S,B,D,T)`; insurer `I` stores `Ins(C,P)`;
//! user `U` runs
//!
//! ```sql
//! SELECT T, avg(P)
//! FROM Hosp JOIN Ins ON S = C
//! WHERE D = 'stroke'
//! GROUP BY T
//! HAVING avg(P) > 100
//! ```
//!
//! with providers `X`, `Y`, `Z` offering computation, under the
//! authorizations of Fig. 1(b)/Fig. 4.

use crate::authz::{Authorization, Policy};
use crate::subjects::{SubjectKind, Subjects};
use mpq_algebra::expr::{AggExpr, AggFunc};
use mpq_algebra::{
    AttrId, AttrSet, Catalog, CmpOp, Expr, JoinKind, NodeId, Operator, QueryPlan, SubjectId, Value,
};
use std::collections::HashMap;

/// Everything needed to reproduce Figures 1–8.
#[derive(Clone, Debug)]
pub struct RunningExample {
    /// `Hosp` + `Ins` schema.
    pub catalog: Catalog,
    /// H, I (authorities), U (user), X, Y, Z (providers).
    pub subjects: Subjects,
    /// Fig. 1(b) authorizations.
    pub policy: Policy,
    /// Fig. 1(a) query plan.
    pub plan: QueryPlan,
    named_nodes: HashMap<&'static str, NodeId>,
}

impl RunningExample {
    /// Build the fixture.
    pub fn new() -> RunningExample {
        let catalog = Catalog::paper_running_example();
        let hosp = catalog.relation("Hosp").expect("fixture schema").rel;
        let ins = catalog.relation("Ins").expect("fixture schema").rel;

        let mut subjects = Subjects::new();
        let h = subjects.add("H", SubjectKind::DataAuthority);
        let i = subjects.add("I", SubjectKind::DataAuthority);
        let u = subjects.add("U", SubjectKind::User);
        let x = subjects.add("X", SubjectKind::Provider);
        let y = subjects.add("Y", SubjectKind::Provider);
        let z = subjects.add("Z", SubjectKind::Provider);
        subjects.set_authority(hosp, h);
        subjects.set_authority(ins, i);

        let attrs = |names: &str| -> AttrSet {
            names
                .chars()
                .map(|c| catalog.attr(&c.to_string()).expect("fixture attribute"))
                .collect()
        };

        // Fig. 1(b): authorizations on Hosp and Ins.
        let mut policy = Policy::new();
        let mut grant = |rel, s: SubjectId, p: &str, e: &str| {
            policy.grant(
                rel,
                s,
                Authorization::new(attrs(p), attrs(e)).expect("disjoint P/E"),
            );
        };
        grant(hosp, h, "SBDT", "");
        grant(ins, h, "C", "P");
        grant(hosp, i, "B", "SDT");
        grant(ins, i, "CP", "");
        grant(hosp, u, "SDT", "");
        grant(ins, u, "CP", "");
        grant(hosp, x, "DT", "S");
        grant(ins, x, "", "CP");
        grant(hosp, y, "BDT", "S");
        grant(ins, y, "P", "C");
        grant(hosp, z, "ST", "D");
        grant(ins, z, "C", "P");
        policy.grant_any(
            hosp,
            Authorization::new(attrs("DT"), AttrSet::new()).expect("disjoint"),
        );
        policy.grant_any(
            ins,
            Authorization::new(AttrSet::new(), attrs("P")).expect("disjoint"),
        );

        // Fig. 1(a): the query plan.
        let s = catalog.attr("S").expect("S");
        let d = catalog.attr("D").expect("D");
        let t = catalog.attr("T").expect("T");
        let c = catalog.attr("C").expect("C");
        let p = catalog.attr("P").expect("P");

        let mut plan = QueryPlan::new();
        let mut named = HashMap::new();
        let base_hosp = plan.add_base(hosp, vec![s, d, t]);
        named.insert("base_hosp", base_hosp);
        let select_d = plan.add(
            Operator::Select {
                pred: Expr::col_eq(d, Value::str("stroke")),
            },
            vec![base_hosp],
        );
        named.insert("select_d", select_d);
        let base_ins = plan.add_base(ins, vec![c, p]);
        named.insert("base_ins", base_ins);
        let join = plan.add(
            Operator::Join {
                kind: JoinKind::Inner,
                on: vec![(s, CmpOp::Eq, c)],
                residual: None,
            },
            vec![select_d, base_ins],
        );
        named.insert("join", join);
        let group = plan.add(
            Operator::GroupBy {
                keys: vec![t],
                aggs: vec![AggExpr::over_col(AggFunc::Avg, p)],
            },
            vec![join],
        );
        named.insert("group", group);
        let having = plan.add(
            Operator::Having {
                pred: Expr::cmp(Expr::AggRef(0), CmpOp::Gt, Expr::Lit(Value::Num(100.0))),
            },
            vec![group],
        );
        named.insert("having", having);

        RunningExample {
            catalog,
            subjects,
            policy,
            plan,
            named_nodes: named,
        }
    }

    /// Attribute set from single-letter names (paper notation `SDT`).
    pub fn attrs(&self, names: &str) -> AttrSet {
        names
            .chars()
            .map(|c| {
                self.catalog
                    .attr(&c.to_string())
                    .expect("fixture attribute")
            })
            .collect()
    }

    /// Single attribute by letter.
    pub fn attr(&self, name: &str) -> AttrId {
        self.catalog.attr(name).expect("fixture attribute")
    }

    /// Subject id by name (`"H"`, `"U"`, …).
    pub fn subject(&self, name: &str) -> SubjectId {
        self.subjects.id(name).expect("fixture subject")
    }

    /// Plan node by fixture name: `base_hosp`, `select_d`, `base_ins`,
    /// `join`, `group`, `having`.
    pub fn node(&self, name: &str) -> NodeId {
        *self.named_nodes.get(name).expect("fixture node name")
    }

    /// The five-patient `Hosp` sample used by the examples and tests
    /// (rows in catalog column order `S, B, D, T`).
    /// Three of the four stroke patients are on tPA, giving the
    /// running example's `HAVING avg(P) > 100` a non-trivial answer.
    pub fn sample_hosp_rows() -> Vec<Vec<Value>> {
        let d = |s: &str| Value::Date(mpq_algebra::Date::parse(s).expect("fixture date"));
        vec![
            vec![
                Value::str("alice"),
                d("1969-03-01"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
            vec![
                Value::str("bob"),
                d("1975-07-12"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
            vec![
                Value::str("carol"),
                d("1981-11-30"),
                Value::str("flu"),
                Value::str("rest"),
            ],
            vec![
                Value::str("dave"),
                d("1958-01-21"),
                Value::str("stroke"),
                Value::str("surgery"),
            ],
            vec![
                Value::str("erin"),
                d("1990-05-05"),
                Value::str("stroke"),
                Value::str("tPA"),
            ],
        ]
    }

    /// The matching `Ins` sample (rows in catalog column order `C, P`).
    pub fn sample_ins_rows() -> Vec<Vec<Value>> {
        vec![
            vec![Value::str("alice"), Value::Num(150.0)],
            vec![Value::str("bob"), Value::Num(210.0)],
            vec![Value::str("carol"), Value::Num(75.0)],
            vec![Value::str("dave"), Value::Num(95.0)],
            vec![Value::str("erin"), Value::Num(180.0)],
        ]
    }

    /// The Fig. 7(a) minimally extended plan: selection at `H`, join
    /// and group-by at provider `X`, having at provider `Y`, result to
    /// the user — the assignment the paper walks through in §5–§6.
    ///
    /// Ready to feed to `mpq_core::keys::plan_keys` and the `mpq-dist`
    /// runtimes; used by doc-examples and the session-reuse tests.
    pub fn fig7a_extended(&self) -> crate::extend::ExtendedPlan {
        let cands = crate::candidates::candidates(
            &self.plan,
            &self.catalog,
            &self.policy,
            &self.subjects,
            &crate::capability::CapabilityPolicy::default(),
            true,
        );
        let mut a = crate::extend::Assignment::new();
        for (node, s) in [
            ("select_d", "H"),
            ("join", "X"),
            ("group", "X"),
            ("having", "Y"),
        ] {
            a.set(self.node(node), self.subject(s));
        }
        crate::extend::minimally_extend(
            &self.plan,
            &self.catalog,
            &self.policy,
            &self.subjects,
            &cands,
            &a,
            Some(self.subject("U")),
        )
        .expect("the fig7a assignment is drawn from Λ")
    }

    /// The non-leaf nodes in post-order (the operations that need
    /// assignees): `select_d`, `join`, `group`, `having`.
    pub fn operations(&self) -> Vec<NodeId> {
        vec![
            self.node("select_d"),
            self.node("join"),
            self.node("group"),
            self.node("having"),
        ]
    }
}

impl Default for RunningExample {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_consistent() {
        let ex = RunningExample::new();
        ex.plan.validate(&ex.catalog).unwrap();
        assert_eq!(ex.subjects.len(), 6);
        assert_eq!(ex.plan.postorder().len(), 6);
        assert_eq!(ex.attrs("SDT").len(), 3);
        // Authorities registered.
        let hosp = ex.catalog.relation("Hosp").unwrap().rel;
        assert_eq!(ex.subjects.authority(hosp), Some(ex.subject("H")));
    }
}
