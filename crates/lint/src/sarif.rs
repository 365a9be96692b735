//! SARIF 2.1.0 export, hand-assembled like the JSON report (strings
//! escape through `hotspots_telemetry::json::write_str`).
//!
//! CI uploads this file as an artifact so code-scanning UIs can
//! annotate PRs with the findings. One run, one driver
//! (`hotspots-lint`), rule metadata sourced from [`RULE_DOCS`] — the
//! same table `--explain` and the DESIGN.md §6 drift test read, so the
//! three can never disagree.

use hotspots_telemetry::json::write_str;

use crate::rules::RULE_DOCS;
use crate::scan::WorkspaceReport;

/// The schema/version header every SARIF consumer checks first.
const SARIF_VERSION: &str = "2.1.0";
const SARIF_SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";

/// Renders the report as one SARIF log with a single run.
pub fn render(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\"version\":");
    write_str(&mut out, SARIF_VERSION);
    out.push_str(",\"$schema\":");
    write_str(&mut out, SARIF_SCHEMA);
    out.push_str(",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"hotspots-lint\"");
    out.push_str(",\"informationUri\":\"https://github.com/hotspots/hotspots\"");
    out.push_str(",\"rules\":[");
    for (i, doc) in RULE_DOCS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        write_str(&mut out, doc.rule.id());
        out.push_str(",\"name\":");
        write_str(&mut out, doc.rule.name());
        out.push_str(",\"shortDescription\":{\"text\":");
        write_str(&mut out, doc.guarantee);
        out.push_str("},\"help\":{\"text\":");
        write_str(
            &mut out,
            &format!("example violation: {}\nwaiver: {}", doc.example, doc.waiver),
        );
        out.push_str("}}");
    }
    out.push_str("]}},\"results\":[");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"ruleId\":");
        write_str(&mut out, d.rule.id());
        out.push_str(",\"level\":\"error\",\"message\":{\"text\":");
        write_str(&mut out, &d.message);
        out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
        write_str(&mut out, &d.path);
        out.push_str(&format!(
            "}},\"region\":{{\"startLine\":{}}}}}}}]}}",
            d.line.max(1)
        ));
    }
    out.push_str("]}]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{analyze_source, finalize};

    #[test]
    fn sarif_log_carries_rules_and_results() {
        let ws = finalize(vec![analyze_source(
            "crates/stats/src/x.rs",
            "pub fn f() { panic!(\"boom\") }",
        )]);
        let sarif = render(&ws);
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("\"name\":\"hotspots-lint\""));
        assert!(sarif.contains("\"id\":\"D5\""));
        assert!(sarif.contains("\"ruleId\":\"D5\""));
        assert!(sarif.contains("\"startLine\":1"));
        // every rule family ships metadata, violations or not
        for id in ["D1", "D2", "D3", "D4", "R6", "R7", "R8"] {
            assert!(sarif.contains(&format!("\"id\":\"{id}\"")), "{id} missing");
        }
    }
}
