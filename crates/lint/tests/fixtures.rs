//! Fixture self-tests: every rule fires on the seeded `bad_ws` fixture,
//! stays silent on the `clean_ws` mirror, and the real workspace has no
//! finding at all.

use std::path::{Path, PathBuf};
use svq_lint::{lint_workspace, Rule};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn count(findings: &[svq_lint::Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn every_rule_fires_on_the_seeded_fixture() {
    let findings = lint_workspace(&fixture("bad_ws")).expect("fixture walks");
    assert_eq!(count(&findings, Rule::Determinism), 5, "{findings:#?}");
    assert_eq!(count(&findings, Rule::PanicDiscipline), 3, "{findings:#?}");
    assert_eq!(count(&findings, Rule::FloatEq), 2, "{findings:#?}");
    // Two in the library fixture + one stdout theft in the stderr-only
    // daemon fixture (whose `eprintln!` must stay silent).
    assert_eq!(count(&findings, Rule::PrintDiscipline), 3, "{findings:#?}");
    assert!(
        findings.iter().any(|f| f.rule == Rule::PrintDiscipline
            && f.path.starts_with("crates/server")
            && f.message.contains("stderr-only")),
        "{findings:#?}"
    );
    assert!(
        !findings
            .iter()
            .any(|f| f.path.starts_with("crates/server") && f.message.starts_with("`eprintln")),
        "daemon stderr logging must not fire: {findings:#?}"
    );
    assert_eq!(count(&findings, Rule::ForbidUnsafe), 1, "{findings:#?}");
    // The concurrency passes: two ABBA cycles (the reverse acquisition one
    // call hop from the forward one; and one whose forward half is a call
    // through a field-typed receiver), two blocking-under-lock seeds (a
    // sleep one call away, a direct sleep).
    assert_eq!(count(&findings, Rule::LockCycle), 2, "{findings:#?}");
    assert!(
        findings.iter().any(|f| f.rule == Rule::LockCycle
            && f.witness
                .iter()
                .any(|step| step.contains("locks::conn::Writer::enqueue"))),
        "the cycle through `self.writer.enqueue(..)` needs the field's type: {findings:#?}"
    );
    assert_eq!(
        count(&findings, Rule::BlockingUnderLock),
        2,
        "{findings:#?}"
    );
}

#[test]
fn lock_cycle_findings_carry_file_line_witnesses() {
    let findings = lint_workspace(&fixture("bad_ws")).expect("fixture walks");
    let cycle = findings
        .iter()
        .find(|f| f.rule == Rule::LockCycle && f.message.contains("Pair.a"))
        .expect("the ABBA seed fires");
    assert!(
        !cycle.witness.is_empty(),
        "a cycle without a witness path is unactionable: {cycle:#?}"
    );
    // Every witness step names a source site, and both locks of the ABBA
    // pair appear somewhere in the path.
    for step in &cycle.witness {
        assert!(
            step.contains("crates/locks/src/lib.rs:"),
            "witness step without a file:line site: {step}"
        );
    }
    let joined = cycle.witness.join("\n");
    assert!(
        joined.contains("Pair.a") && joined.contains("Pair.b"),
        "{joined}"
    );

    // The one-call-hop blocking finding names the leaf sleep through its
    // chain, not just the call site.
    let hop = findings
        .iter()
        .find(|f| f.rule == Rule::BlockingUnderLock && !f.witness.is_empty())
        .expect("the call-hop seed carries a chain witness");
    assert!(hop.witness.iter().any(|s| s.contains("sleep")), "{hop:#?}");
}

#[test]
fn seeded_fixture_fails_check() {
    // `svq-lint --check` exits non-zero on any finding, so every rule that
    // fires on the seeded fixture fails the check.
    let findings = lint_workspace(&fixture("bad_ws")).expect("fixture walks");
    let failing_rules: std::collections::BTreeSet<Rule> = findings.iter().map(|f| f.rule).collect();
    for rule in Rule::ALL {
        assert!(failing_rules.contains(&rule), "{rule} did not fail --check");
    }
}

#[test]
fn clean_fixture_has_zero_findings() {
    let findings = lint_workspace(&fixture("clean_ws")).expect("fixture walks");
    assert!(findings.is_empty(), "{findings:#?}");
}

#[test]
fn real_workspace_checks_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace two levels up")
        .to_path_buf();
    let findings = lint_workspace(&root).expect("workspace walks");
    assert!(
        findings.is_empty(),
        "lint findings in the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
