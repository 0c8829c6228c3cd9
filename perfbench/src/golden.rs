//! The per-section split of `run_all --quick`'s golden report, so each
//! section rendered in-process can be compared on its own.

/// Where the golden report lives, relative to the repository root.
pub const GOLDEN_PATH: &str = "tests/golden/run_all_quick.txt";

/// The banner `run_all` prints before each section's name.
const RULE: &str = "================================================================";

/// The line `run_all` prints after the last section.
const TRAILER: &str = "\nwrote BENCH_harness.json\n";

/// Splits a `run_all` report into `(section name, section body)` pairs in
/// report order. A body is exactly the string the section's `figures`
/// function returned.
///
/// `run_all` prints each section as `"\n" RULE "\n== name\n" RULE "\n\n"`
/// followed by the body, and ends the report with [`TRAILER`].
pub fn split_sections(report: &str) -> Result<Vec<(String, String)>, String> {
    let header = format!("\n{RULE}\n== ");
    let mut chunks = report.split(header.as_str());
    if chunks.next() != Some("") {
        return Err("report does not start with a section banner".to_string());
    }
    let mut sections = Vec::new();
    for chunk in chunks {
        let (name, rest) = chunk
            .split_once('\n')
            .ok_or_else(|| format!("section banner without a newline: {chunk:.40}"))?;
        let body = rest
            .strip_prefix(RULE)
            .and_then(|r| r.strip_prefix("\n\n"))
            .ok_or_else(|| format!("section {name}: malformed banner"))?;
        sections.push((name.to_string(), body.to_string()));
    }
    let (_, last) = sections
        .last_mut()
        .ok_or_else(|| "report has no sections".to_string())?;
    *last = last
        .strip_suffix(TRAILER)
        .ok_or_else(|| "report does not end with the BENCH_harness.json line".to_string())?
        .to_string();
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders sections the way `run_all` prints them (the inverse of
    /// [`split_sections`]).
    fn join_sections(sections: &[(String, String)]) -> String {
        let mut out = String::new();
        for (name, body) in sections {
            out.push_str(&format!("\n{RULE}\n== {name}\n{RULE}\n\n{body}"));
        }
        out.push_str(TRAILER);
        out
    }

    fn golden() -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(GOLDEN_PATH);
        std::fs::read_to_string(path).expect("golden report is checked in")
    }

    #[test]
    fn golden_splits_into_the_nine_quick_sections() {
        let sections = split_sections(&golden()).unwrap();
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, crate::catalog::QUICK_SECTIONS);
        assert!(sections[0].1.starts_with("Fig. 3: the AMBSA"));
        for (name, body) in &sections {
            assert!(body.ends_with('\n'), "{name} body ends mid-line");
            assert!(!body.contains(RULE), "{name} swallowed a banner");
        }
    }

    #[test]
    fn split_then_join_is_byte_identical() {
        let text = golden();
        assert_eq!(join_sections(&split_sections(&text).unwrap()), text);
    }

    #[test]
    fn body_may_start_and_end_with_blank_lines() {
        let sections = vec![
            ("a".to_string(), "\nx\n\n".to_string()),
            ("b".to_string(), String::new()),
        ];
        assert_eq!(split_sections(&join_sections(&sections)).unwrap(), sections);
    }

    #[test]
    fn malformed_reports_are_rejected() {
        assert!(split_sections("").is_err());
        assert!(split_sections("no banner\n").is_err());
        let truncated = golden().replace(TRAILER, "\n");
        assert!(split_sections(&truncated).is_err());
    }
}
