//! Output checks: each paper binary's stdout against its section of the
//! recorded transcript `experiments_output.txt`.
//!
//! Simulated quantities are bit-stable, so every line must match exactly.
//! The only exceptions are wall-clock fields, which jitter from run to run:
//!
//! * `table1`: the six data columns and the "minimum speedup" figure;
//! * `ablation_minslice` and `ablation_granularity`: the trailing
//!   `hybrid wall (us)` column.
//!
//! On a line that differs, only those fields may differ, and each must
//! still read as a number on both sides. Everything else — including every
//! digit of every simulated percentage — is compared exactly.

use std::collections::BTreeMap;

/// Splits the transcript written by `scripts/repro_all.sh` into each
/// binary's exact stdout, keyed by binary name.
pub fn transcript_sections(text: &str) -> Result<BTreeMap<String, String>, String> {
    let rule = "=".repeat(64);
    let mut sections = BTreeMap::new();
    // Each section starts with "\n<rule>\n$ cargo run ... --bin <name> ...\n<rule>\n";
    // the leading newline is the blank line repro_all.sh echoes, not part of
    // the previous binary's output.
    let header = format!("\n{rule}\n$ cargo run -p mesh-bench --bin ");
    let mut rest = match text.find(&header) {
        Some(i) => &text[i..],
        None => return Err("transcript has no binary sections".to_string()),
    };
    while let Some(stripped) = rest.strip_prefix(header.as_str()) {
        let (command, after) = stripped
            .split_once('\n')
            .ok_or("transcript ends inside a section header")?;
        let name = command
            .split_whitespace()
            .next()
            .ok_or("section header names no binary")?;
        let body = after
            .strip_prefix(&format!("{rule}\n"))
            .ok_or("section header is missing its closing rule")?;
        let end = body.find(&header).unwrap_or(body.len());
        sections.insert(name.to_string(), body[..end].to_string());
        rest = &body[end..];
    }
    Ok(sections)
}

/// Which tokens of a differing line are wall-clock fields.
fn timing_token(bin: &str, index: usize, tokens: usize) -> bool {
    match bin {
        "table1" => index > 0,
        "ablation_minslice" | "ablation_granularity" => index + 1 == tokens,
        _ => false,
    }
}

fn numeric(token: &str) -> bool {
    token
        .strip_suffix('x')
        .unwrap_or(token)
        .parse::<f64>()
        .is_ok()
}

/// Checks one binary's stdout against its expected transcript section.
pub fn check_output(bin: &str, expected: &str, actual: &str) -> Result<(), String> {
    if expected == actual {
        return Ok(());
    }
    let exp: Vec<&str> = expected.split('\n').collect();
    let act: Vec<&str> = actual.split('\n').collect();
    if exp.len() != act.len() {
        return Err(format!(
            "{bin}: {} lines, expected {}",
            act.len(),
            exp.len()
        ));
    }
    for (n, (e, a)) in exp.iter().zip(&act).enumerate() {
        if e == a {
            continue;
        }
        let et: Vec<&str> = e.split_whitespace().collect();
        let at: Vec<&str> = a.split_whitespace().collect();
        let same = et.len() == at.len()
            && et.iter().zip(&at).enumerate().all(|(i, (x, y))| {
                x == y || (timing_token(bin, i, et.len()) && numeric(x) && numeric(y))
            });
        if !same {
            return Err(format!(
                "{bin}: line {} differs\n  expected: {e}\n  actual:   {a}",
                n + 1
            ));
        }
    }
    Ok(())
}

/// The accuracy figure of a paper pass: the mean of every MESH average
/// |error| (in %) that the three accuracy figures print — Figure 4's two
/// per-cache averages, Figure 5's average and Figure 6's seven per-idle
/// averages.
pub fn paper_mesh_error(outputs: &BTreeMap<&str, String>) -> Result<f64, String> {
    let mut errors = Vec::new();
    for bin in ["fig4", "fig5"] {
        let text = outputs.get(bin).ok_or(format!("no {bin} output"))?;
        for line in text.lines().filter(|l| l.starts_with("average |error|")) {
            let mut tokens = line.split_whitespace();
            tokens.find(|t| *t == "MESH");
            let value = tokens
                .next()
                .and_then(|t| t.trim_end_matches('%').parse::<f64>().ok())
                .ok_or(format!("{bin}: no MESH error in {line:?}"))?;
            errors.push(value);
        }
    }
    let fig6 = outputs.get("fig6").ok_or("no fig6 output")?;
    for line in fig6.lines() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let [idle, mesh, _analytical] = tokens[..] {
            if let (Ok(_), Ok(mesh)) = (idle.parse::<f64>(), mesh.parse::<f64>()) {
                errors.push(mesh);
            }
        }
    }
    if errors.len() != 10 {
        return Err(format!(
            "found {} MESH error figures, expected 10",
            errors.len()
        ));
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transcript() -> String {
        std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../experiments_output.txt"
        ))
        .expect("transcript readable")
    }

    fn section(bin: &str) -> String {
        transcript_sections(&transcript()).expect("parses")[bin].clone()
    }

    /// The transcript-diff recipe the text checks used before: strip every
    /// line's trailing number.
    fn awk_strip(text: &str) -> String {
        text.lines()
            .map(|l| {
                l.trim_end_matches(|c: char| c.is_ascii_digit() || c == '.')
                    .trim_end()
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn transcript_checks_against_itself() {
        let sections = transcript_sections(&transcript()).expect("parses");
        let names: Vec<&str> = sections.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = crate::workload::PAPER_BINS.to_vec();
        expected.sort_unstable();
        assert_eq!(names, expected);
        for (bin, text) in &sections {
            check_output(bin, text, text).expect("identical output passes");
        }
        assert!(sections["noc_sweep"].ends_with("every point\n"));
        assert!(sections["fig4"].ends_with("MESH   10.0%\n\n"));
    }

    #[test]
    fn perturbed_fig6_error_digit_fails() {
        let good = section("fig6");
        let bad = good.replace("905.7977", "905.7978");
        assert_ne!(good, bad);
        assert!(check_output("fig6", &good, &bad).is_err());
        // Stripping trailing numbers would have hidden the change.
        assert_eq!(awk_strip(&good), awk_strip(&bad));
    }

    #[test]
    fn perturbed_simulated_column_fails_even_where_timings_are_masked() {
        let good = section("ablation_minslice");
        let bad = good.replacen("0.2600", "0.2601", 1);
        assert!(check_output("ablation_minslice", &good, &bad).is_err());
    }

    #[test]
    fn perturbed_timings_pass() {
        let good = section("table1");
        let bad = good
            .replace("0.000009", "0.000011")
            .replace("10165x", "9999x")
            .replace("2574x (paper", "1402x (paper");
        assert_ne!(good, bad);
        check_output("table1", &good, &bad).expect("timing fields are masked");
        let good = section("ablation_granularity");
        let bad = good.replace("65.9", "101.25");
        check_output("ablation_granularity", &good, &bad).expect("wall column is masked");
        // A masked field must still be a number.
        let broken = section("table1").replace("10165x", "--");
        assert!(check_output("table1", &section("table1"), &broken).is_err());
    }

    #[test]
    fn paper_mesh_error_reads_the_accuracy_figures() {
        let sections = transcript_sections(&transcript()).expect("parses");
        let outputs: BTreeMap<&str, String> = ["fig4", "fig5", "fig6"]
            .into_iter()
            .map(|b| (b, sections[b].clone()))
            .collect();
        let err = paper_mesh_error(&outputs).expect("ten figures");
        let by_hand =
            (8.7 + 10.0 + 5.5 + 5.7198 + 6.0585 + 6.0250 + 5.7527 + 4.7856 + 6.0962 + 6.0594)
                / 10.0;
        assert!((err - by_hand).abs() < 1e-9, "{err} vs {by_hand}");
    }
}
