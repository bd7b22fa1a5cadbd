//! End-to-end tests of the `fsim` command-line binary.

use std::process::Command;

fn fsim_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fsim"))
}

fn write_sample_graphs(dir: &std::path::Path) -> (String, String) {
    let g1 = "n 0 a\nn 1 b\ne 0 1\n";
    let g2 = "n 0 a\nn 1 b\nn 2 b\ne 0 1\ne 0 2\n";
    let p1 = dir.join("g1.txt");
    let p2 = dir.join("g2.txt");
    std::fs::write(&p1, g1).unwrap();
    std::fs::write(&p2, g2).unwrap();
    (
        p1.to_string_lossy().into_owned(),
        p2.to_string_lossy().into_owned(),
    )
}

/// A fresh directory per call: the tests run on parallel threads, and a
/// shared one let a test rewrite `g1.txt` while another's `fsim` read it.
fn tempdir() -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fsim-cli-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn stats_prints_counts() {
    let dir = tempdir();
    let (p1, _) = write_sample_graphs(&dir);
    let out = fsim_bin().args(["stats", &p1]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("|V|=2"), "got: {stdout}");
    assert!(stdout.contains("|E|=1"));
}

#[test]
fn score_pair_reports_exact_simulation_as_one() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args(["score", &p1, &p2, "--variant", "s", "--pair", "0,0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FSims(0,0) = 1.000000"), "got: {stdout}");
}

#[test]
fn score_approximate_reports_certified_bound() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args([
            "score",
            &p1,
            &p2,
            "--variant",
            "s",
            "--convergence",
            "approx",
            "--tolerance",
            "0.5",
            "--pair",
            "0,0",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("certified max score error"),
        "got: {stderr}"
    );
    // Tolerance without the approximate mode is an error.
    let out = fsim_bin()
        .args(["score", &p1, &p2, "--tolerance", "0.5"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // An invalid (zero) tolerance surfaces the ConfigError.
    let out = fsim_bin()
        .args([
            "score",
            &p1,
            &p2,
            "--convergence",
            "approx",
            "--tolerance",
            "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tolerance"), "got: {stderr}");
}

#[test]
fn update_approximate_verifies_within_bound() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let script = dir.join("edits.txt");
    std::fs::write(&script, "add 2 1 2\nflush\ndel 2 1 2\n").unwrap();
    let out = fsim_bin()
        .args([
            "update",
            &p1,
            &p2,
            "--script",
            script.to_str().unwrap(),
            "--variant",
            "s",
            "--convergence",
            "approx",
            "--verify",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("batch 2: verified within bound"),
        "got: {stderr}"
    );
}

#[test]
fn exact_checks_pairs() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args([
            "exact",
            &p1,
            &p2,
            "--variant",
            "bj",
            "--pair",
            "0,0",
            "--pair",
            "1,2",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // u0 has 1 child, v0 has 2 → not bijective; leaves do bj-simulate? u1
    // has in-degree 1 and v2 has in-degree 1 with simulating parents — but
    // parents are not bj-similar, so check the exact oracle's own answer.
    assert!(stdout.contains("0 ~ 0: false"), "got: {stdout}");
}

#[test]
fn generate_writes_parseable_graph() {
    let dir = tempdir();
    let out_path = dir.join("gen.txt");
    let out = fsim_bin()
        .args([
            "generate",
            "--dataset",
            "Yeast",
            "--scale",
            "0.2",
            "--seed",
            "7",
            "-o",
            out_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    let g = fsim::graph::io::from_text(&text).unwrap();
    assert!(g.node_count() > 10);
    // And stats works on the generated file.
    let out = fsim_bin()
        .args(["stats", out_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn topk_outputs_k_rows() {
    let dir = tempdir();
    let (_, p2) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args(["topk", &p2, "-k", "2", "--variant", "b"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "got: {stdout}");
}

#[test]
fn align_maps_identical_graphs() {
    let dir = tempdir();
    let (p1, _) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args(["align", &p1, &p1, "--method", "fsim"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 -> 0"), "got: {stdout}");
    assert!(stdout.contains("1 -> 1"), "got: {stdout}");
}

#[test]
fn update_replays_edit_script_with_verification() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let script = dir.join("edits.txt");
    std::fs::write(
        &script,
        "# first batch: densify g2\n\
         add 2 1 2\n\
         flush\n\
         # second batch: relabel + retract on g2, edit g1\n\
         relabel 2 2 a\n\
         del 2 0 2\n\
         add 1 1 0\n",
    )
    .unwrap();
    let out = fsim_bin()
        .args([
            "update",
            &p1,
            &p2,
            "--script",
            script.to_str().unwrap(),
            "--variant",
            "b",
            "--verify",
            "--top",
            "3",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("batch 1:"), "got: {stderr}");
    assert!(
        stderr.contains("batch 2: verified bitwise against cold recompute"),
        "got: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 3, "got: {stdout}");
}

#[test]
fn update_single_graph_mirrors_edits() {
    let dir = tempdir();
    let (_, p2) = write_sample_graphs(&dir);
    let script = dir.join("self-edits.txt");
    std::fs::write(&script, "add 1 2 0\nrelabel 1 1 a\n").unwrap();
    let out = fsim_bin()
        .args([
            "update",
            &p2,
            "--script",
            script.to_str().unwrap(),
            "--verify",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("verified bitwise"), "got: {stderr}");
}

#[test]
fn update_rejects_out_of_range_edits() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let script = dir.join("bad.txt");
    std::fs::write(&script, "add 1 0 99\n").unwrap();
    let out = fsim_bin()
        .args(["update", &p1, &p2, "--script", script.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("node 99"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = fsim_bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn bad_variant_is_reported() {
    let dir = tempdir();
    let (p1, p2) = write_sample_graphs(&dir);
    let out = fsim_bin()
        .args(["score", &p1, &p2, "--variant", "zz"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown variant"));
}
