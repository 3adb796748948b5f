//! Semantic analysis and logical planning.
//!
//! Resolves label names against the model vocabularies, decides the
//! execution mode (online streaming vs offline top-K), and reduces the
//! predicate expression to the engine's query shapes: a plain
//! [`ActionQuery`] when the predicate is the canonical single-action
//! conjunction, or a [`CnfQuery`] for the footnote extensions.

use crate::ast::{Expr, SelectItem, Statement};
use svq_core::expr::CnfQuery;
use svq_types::{
    ActionClass, ActionQuery, ObjectClass, Predicate, SvqError, SvqResult, Vocabulary,
};

/// How the statement executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Streaming: SVAQD over a video stream.
    Online,
    /// Repository: RVAQ over ingested metadata, top-K.
    Offline { k: usize },
}

/// The resolved predicate in engine form.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedPredicate {
    /// Canonical `{o_1 … o_I; a}` conjunction.
    Simple(ActionQuery),
    /// CNF with extensions (multiple/disjunctive actions, relationships).
    Cnf(CnfQuery),
}

/// The online engine runs either shape as CNF.
impl From<&PlannedPredicate> for CnfQuery {
    fn from(p: &PlannedPredicate) -> Self {
        match p {
            PlannedPredicate::Simple(q) => q.clone().into(),
            PlannedPredicate::Cnf(q) => q.clone(),
        }
    }
}

/// A validated, executable plan.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    pub source: String,
    pub mode: QueryMode,
    pub predicate: PlannedPredicate,
}

impl LogicalPlan {
    /// Analyse a parsed statement.
    pub fn from_statement(stmt: &Statement) -> SvqResult<Self> {
        // Mode: ORDER BY RANK + LIMIT → offline; otherwise online.
        let mode = if stmt.order_by_rank {
            let k = stmt
                .limit
                .ok_or_else(|| SvqError::InvalidQuery("ORDER BY RANK requires LIMIT K".into()))?;
            QueryMode::Offline { k: k as usize }
        } else {
            if stmt.select.contains(&SelectItem::Rank) {
                return Err(SvqError::InvalidQuery(
                    "RANK in SELECT requires ORDER BY RANK … LIMIT K".into(),
                ));
            }
            QueryMode::Online
        };

        let predicate = Self::plan_predicate(&stmt.predicate)?;
        Ok(Self {
            source: stmt.from.source.clone(),
            mode,
            predicate,
        })
    }

    fn resolve_object(name: &str) -> SvqResult<ObjectClass> {
        ObjectClass::lookup(name).ok_or_else(|| SvqError::UnknownLabel {
            kind: "object",
            name: name.to_string(),
        })
    }

    fn resolve_action(name: &str) -> SvqResult<ActionClass> {
        ActionClass::lookup(name).ok_or_else(|| SvqError::UnknownLabel {
            kind: "action",
            name: name.to_string(),
        })
    }

    fn plan_predicate(expr: &Expr) -> SvqResult<PlannedPredicate> {
        let cnf = expr.to_cnf();
        // Resolve every leaf.
        let mut clauses: Vec<Vec<Predicate>> = Vec::with_capacity(cnf.len());
        for clause in &cnf {
            let mut resolved = Vec::with_capacity(clause.len());
            for leaf in clause {
                match leaf {
                    Expr::ActionEq(a) => resolved.push(Predicate::Action(Self::resolve_action(a)?)),
                    Expr::ObjInclude(objs) => {
                        debug_assert_eq!(objs.len(), 1, "to_cnf splits includes");
                        resolved.push(Predicate::Object(Self::resolve_object(&objs[0])?))
                    }
                    Expr::LeftOf(a, b) => resolved.push(Predicate::LeftOf(
                        Self::resolve_object(a)?,
                        Self::resolve_object(b)?,
                    )),
                    Expr::And(..) | Expr::Or(..) => unreachable!("CNF leaves only"),
                }
            }
            clauses.push(resolved);
        }

        // Canonical shape: all clauses singleton, exactly one action, no
        // relationships.
        let singleton = clauses.iter().all(|c| c.len() == 1);
        let actions: Vec<ActionClass> = clauses
            .iter()
            .flatten()
            .filter_map(|p| match p {
                Predicate::Action(a) => Some(*a),
                _ => None,
            })
            .collect();
        let has_relationship = clauses
            .iter()
            .flatten()
            .any(|p| matches!(p, Predicate::LeftOf(..)));
        if singleton && actions.len() == 1 && !has_relationship {
            let objects: Vec<ObjectClass> = clauses
                .iter()
                .flatten()
                .filter_map(|p| match p {
                    Predicate::Object(o) => Some(*o),
                    _ => None,
                })
                .collect();
            return Ok(PlannedPredicate::Simple(ActionQuery::new(
                actions[0], objects,
            )));
        }
        if actions.is_empty() {
            return Err(SvqError::InvalidQuery(
                "query needs at least one action predicate".into(),
            ));
        }
        Ok(PlannedPredicate::Cnf(CnfQuery::new(clauses)))
    }

    /// Human-readable plan, the `EXPLAIN` output.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match self.mode {
            QueryMode::Online => {
                out.push_str("OnlineScan (SVAQD)\n");
            }
            QueryMode::Offline { k } => {
                out.push_str(&format!("TopK k={k} (RVAQ: TBClip + bounds + skip)\n"));
                out.push_str("  Intersect P_a ⊗ P_o… (interval sweep, Eq. 12)\n");
            }
        }
        out.push_str(&format!("  Source: {}\n", self.source));
        match &self.predicate {
            PlannedPredicate::Simple(q) => {
                out.push_str(&format!("  Predicate: {q}\n"));
            }
            PlannedPredicate::Cnf(q) => {
                out.push_str("  Predicate (CNF):\n");
                for clause in &q.clauses {
                    let parts: Vec<String> = clause.iter().map(|p| p.to_string()).collect();
                    out.push_str(&format!("    ({})\n", parts.join(" OR ")));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn canonical_statement_plans_to_simple_query() {
        let stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('car','person')",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        assert_eq!(plan.mode, QueryMode::Online);
        match plan.predicate {
            PlannedPredicate::Simple(q) => {
                assert_eq!(q, ActionQuery::named("jumping", &["car", "person"]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn offline_mode_from_order_by_limit() {
        let stmt = parse(
            "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' ORDER BY RANK(act,obj) LIMIT 7",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        assert_eq!(plan.mode, QueryMode::Offline { k: 7 });
    }

    #[test]
    fn disjunction_plans_to_cnf() {
        let stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE (act='jumping' OR act='kissing') AND obj.include('person')",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        match plan.predicate {
            PlannedPredicate::Cnf(q) => {
                assert_eq!(q.clauses.len(), 2);
                assert_eq!(q.clauses[0].len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_labels_are_reported() {
        let stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='no such action'",
        )
        .unwrap();
        let err = LogicalPlan::from_statement(&stmt).unwrap_err();
        assert!(err.to_string().contains("unknown action"), "{err}");
    }

    #[test]
    fn rank_without_order_by_rejected() {
        let stmt = parse(
            "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping'",
        )
        .unwrap();
        assert!(LogicalPlan::from_statement(&stmt).is_err());
    }

    #[test]
    fn object_only_query_rejected() {
        let stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE obj.include('car')",
        )
        .unwrap();
        let err = LogicalPlan::from_statement(&stmt).unwrap_err();
        assert!(err.to_string().contains("action predicate"), "{err}");
    }

    #[test]
    fn explain_renders_mode_and_predicates() {
        let stmt = parse(
            "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS movie PRODUCE clipID) \
             WHERE act='smoking' AND obj.include('cup') \
             ORDER BY RANK(act,obj) LIMIT 3",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let text = plan.explain();
        assert!(text.contains("TopK k=3"));
        assert!(text.contains("movie"));
        assert!(text.contains("smoking"));
    }
}
