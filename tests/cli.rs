//! Smoke tests for the `actfort` command-line tool.

use std::process::Command;

fn run(args: &[&str]) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_actfort"))
        .args(args)
        .output()
        .expect("binary runs");
    (String::from_utf8_lossy(&out.stdout).into_owned(), out.status.success())
}

#[test]
fn audit_prints_measurement_summary() {
    let (stdout, ok) = run(&["audit"]);
    assert!(ok);
    assert!(stdout.contains("44 services analysed"));
    assert!(stdout.contains("SMS-only"));
    assert!(stdout.contains("resistant"));
}

#[test]
fn chain_finds_known_routes() {
    let (stdout, ok) = run(&["chain", "paypal"]);
    assert!(ok);
    assert!(stdout.contains("gmail ⇒ paypal"));
    let (stdout, ok) = run(&["chain", "union-bank"]);
    assert!(ok);
    assert!(stdout.contains("no chain reaches union-bank"));
}

#[test]
fn report_emits_markdown() {
    let (stdout, ok) = run(&["report", "web"]);
    assert!(ok);
    assert!(stdout.starts_with("# ActFort ecosystem risk report"));
    assert!(stdout.contains("| ctrip |"));
}

#[test]
fn graph_emits_dot() {
    let (stdout, ok) = run(&["graph", "mobile"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph tdg {"));
    assert!(stdout.trim_end().ends_with('}'));
}

#[test]
fn breach_and_list_work() {
    let (stdout, ok) = run(&["breach", "web"]);
    assert!(ok);
    assert!(stdout.contains("downstream accounts"));
    let (stdout, ok) = run(&["list"]);
    assert!(ok);
    assert!(stdout.contains("gmail"));
    assert!(stdout.contains("alipay"));
}

#[test]
fn bad_usage_fails() {
    let (_, ok) = run(&[]);
    assert!(!ok);
    let (_, ok) = run(&["frobnicate"]);
    assert!(!ok);
    let (_, ok) = run(&["report", "desktop"]);
    assert!(!ok);
    let (_, ok) = run(&["chain"]);
    assert!(!ok);
    // An unknown id is an error, not an empty answer.
    let (stdout, ok) = run(&["chain", "not-a-service"]);
    assert!(!ok);
    assert!(!stdout.contains("no chain reaches"), "{stdout}");
}
