//! The `repro` command line: an unknown section is a usage error, and a
//! reduced run leaves no records behind.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// An empty directory of this test's own, removed first if a previous run
/// left it behind.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_section_exits_2_without_a_panic() {
    let out = repro().arg("fig7_99").output().expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown section `fig7_99`"), "{stderr}");
    assert!(
        stderr.contains("ablation"),
        "lists the valid sections: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn roles_is_a_known_section() {
    let out = repro().arg("fig7_99").output().expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let valid = stderr
        .split("valid sections:")
        .nth(1)
        .unwrap_or_else(|| panic!("lists the valid sections: {stderr}"));
    assert!(
        valid.split_whitespace().any(|s| s == "roles"),
        "`roles` is listed: {stderr}"
    );
}

#[test]
fn reduced_runs_write_no_results() {
    for flag in ["--quick", "--smoke"] {
        let dir = fresh_dir(&flag[2..]);
        let out = repro()
            .args(["ablation", flag])
            .current_dir(&dir)
            .output()
            .expect("run repro");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "repro ablation {flag} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("[channels]"), "prints its tables: {stdout}");
        assert!(
            !dir.join("results").exists(),
            "a {flag} run must not create results/"
        );
        std::fs::remove_dir_all(&dir).expect("remove temp dir");
    }
}
