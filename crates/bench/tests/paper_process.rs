//! The `paper` binary against the golden of the per-artifact output
//! (`tests/golden/paper_artifacts.txt`, in the `== NAME ==` layout `paper`
//! prints when it prints several artifacts): every deterministic artifact
//! byte for byte, the nondeterministic CAS table by shape, and usage errors
//! for anything that is not an artifact or `--full`.

use std::process::{Command, Output};

const GOLDEN: &str = include_str!("../../../tests/golden/paper_artifacts.txt");

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

fn stdout(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

/// The golden split into `(name, output)` sections.
fn golden_sections() -> Vec<(&'static str, &'static str)> {
    let mut sections = Vec::new();
    let mut rest = GOLDEN;
    while let Some(header) = rest.strip_prefix("== ") {
        let (name, body) = header.split_once(" ==\n").expect("section header");
        let end = body.find("\n== ").map_or(body.len(), |i| i + 1);
        sections.push((name, &body[..end]));
        rest = &body[end..];
    }
    assert!(rest.is_empty(), "trailing golden text: {rest:?}");
    sections
}

#[test]
fn each_deterministic_artifact_matches_the_golden() {
    let sections = golden_sections();
    assert_eq!(sections.len(), 9);
    for (name, expected) in sections {
        assert_eq!(stdout(&paper(&[name])), expected, "paper {name}");
    }
}

#[test]
fn all_artifacts_print_under_headers_in_table_order() {
    // Everything but the CAS table is the golden verbatim.
    let all = stdout(&paper(&[]));
    let cas = all
        .find("== cas_time_complexity ==\n")
        .expect("CAS section");
    let next = cas + all[cas + 1..].find("\n== ").expect("section after CAS") + 2;
    assert_eq!(format!("{}{}", &all[..cas], &all[next..]), GOLDEN);
}

#[test]
fn full_table1_runs() {
    let full = stdout(&paper(&["table1", "--full"]));
    assert!(full.starts_with("Table 1 — "), "{full}");
}

#[test]
fn cas_time_complexity_has_one_row_per_thread_count() {
    let text = stdout(&paper(&["cas_time_complexity"]));
    // Rows are the lines that start with the (right-aligned) thread count.
    let rows: Vec<Vec<&str>> = text
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() == 5 && cells[0].parse::<usize>().is_ok())
        .collect();
    assert_eq!(rows.len(), 4, "{text}");
    for row in rows {
        let per_write: f64 = row[3].parse().expect("avg attempts/write");
        assert!(per_write >= 1.0, "{row:?}");
    }
}

#[test]
fn unknown_arguments_are_usage_errors() {
    for arg in ["nope", "--ful"] {
        let out = paper(&[arg]);
        assert_eq!(out.status.code(), Some(2), "paper {arg}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: paper"), "{stderr}");
        assert!(
            out.stdout.is_empty(),
            "paper {arg} printed {:?}",
            out.stdout
        );
    }
}
