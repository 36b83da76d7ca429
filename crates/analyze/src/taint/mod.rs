//! Untrusted-input taint audit.
//!
//! The whole-program audit ([`crate::audit`]) proves hot paths
//! panic/alloc/block-free but is blind to *where sizes come from*: a
//! `Vec::with_capacity(n)` is invisible to it when `n` was read off a
//! socket. This module closes that hole with an interprocedural
//! source→sanitizer→sink dataflow over the same per-function models
//! and call graph: sources (socket reads, framed-file bytes, store
//! segment directories, CLI args) are declared in `taint.toml`, sinks
//! are tainted-size allocation, tainted slice indexing and tainted
//! arithmetic used as a length, and sanitizers — explicit bound
//! checks against declared limit names, `checked_*` chains,
//! `try_into` — kill taint down to `Bounded`. The lattice is
//! `Clean < Bounded < Tainted` ([`local::Taint`]), mirroring the
//! audit's `Free < Guarded < May`; only `Tainted` at a sink is a
//! violation, and every violation carries a full source→sink witness
//! chain (`read_line (net.rs:131) → handle_connection (server.rs:304)
//! → … → Vec::with_capacity (…)`).
//!
//! Propagation is bottom-up over the Tarjan SCC condensation
//! ([`crate::audit::graph::condense`]): each function gets a summary
//! (return taint, per-parameter flow caps, out-parameter taint,
//! parameter-reaches-sink paths), cyclic components iterate to a
//! fixpoint (the lattice is finite and updates are monotone), and
//! findings are emitted in the function where the taint *originates*,
//! so each defect is reported exactly once with its true source site.
//!
//! Suppression policy matches the audit: only an adjacent comment of
//! the form `ams-taint` allow(rule) followed by `: justification`
//! excuses a sink, and a bare allow is itself a
//! `taint-bad-suppression` error. (The pattern is spelled indirectly
//! here for the same reason the audit does it: the taint pass scans
//! this file too.)

pub mod config;
pub mod local;

use crate::audit::graph;
use crate::audit::model::{self, WorkspaceModel};
use crate::diagnostic::{Diagnostic, Location, Report};
use crate::lint::workspace_sources;
use config::TaintConfig;
use local::{AllowIndex, Finding, Summary};
use std::collections::BTreeMap;
use std::path::Path;

/// Run statistics, recorded into `results/BENCH_check.json` by the
/// `--bench` flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaintStats {
    pub files: usize,
    pub functions: usize,
    /// Edges of the unbound call graph the taint flows over.
    pub edges: usize,
    /// Source sites that introduced taint somewhere in the workspace.
    pub sources: usize,
    /// Tainted-sink violations (unsuppressed).
    pub violations: usize,
}

/// One `ams-taint` allow(rule, …) marker occurrence.
#[derive(Debug, Clone)]
struct TaintAllow {
    rules: Vec<String>,
    justified: bool,
    file: String,
    line: usize,
    col: usize,
}

/// Scan file content for `ams-taint` allow marks. The model blanks
/// comments out of body lines, so marks are invisible to the
/// analysis; conversely, string and char literals are blanked *here*
/// (length-preserving, newlines restored so line numbers hold) so a
/// mark quoted inside a string — a test fixture, a rendered hint — is
/// never mistaken for a suppression.
fn allow_marks(label: &str, content: &str, out: &mut Vec<TaintAllow>) {
    let mut stripped = model::strip_strings(content).into_bytes();
    for (i, b) in content.bytes().enumerate() {
        if b == b'\n' {
            stripped[i] = b'\n';
        }
    }
    let stripped = String::from_utf8(stripped).unwrap_or_else(|_| content.to_string());
    for (i, line) in stripped.lines().enumerate() {
        let Some(tag) = line.find("ams-taint:") else { continue };
        let rest = &line[tag..];
        let Some(open_rel) = rest.find("allow(") else { continue };
        let after = &rest[open_rel + 6..];
        let Some(close) = after.find(')') else { continue };
        let rules: Vec<String> = after[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = after[close + 1..].trim();
        let justified = tail.strip_prefix(':').is_some_and(|j| !j.trim().is_empty());
        out.push(TaintAllow {
            rules,
            justified,
            file: label.to_string(),
            line: i + 1,
            col: tag + 1,
        });
    }
}

/// Upper bound on fixpoint sweeps inside one SCC. Each sweep either
/// raises some finite-lattice entry or terminates, so this is a
/// safety net, not a correctness knob.
fn max_sweeps(comp_len: usize) -> usize {
    3 * comp_len + 2
}

/// Tiers-only fingerprint of a summary, for fixpoint convergence.
fn fingerprint(s: &Summary) -> (u8, Vec<u8>, Vec<u8>, Vec<bool>) {
    (
        s.ret as u8,
        s.param_ret.iter().map(|&t| t as u8).collect(),
        s.param_out.iter().map(|&t| t as u8).collect(),
        s.param_sink.iter().map(Option::is_some).collect(),
    )
}

/// Run the taint audit over in-memory sources. Infallible: every
/// problem is a diagnostic, not an `Err`.
pub fn taint_sources(sources: &[(String, String)], cfg: &TaintConfig) -> (Report, TaintStats) {
    let mut model = WorkspaceModel::default();
    let mut marks = Vec::new();
    for (label, content) in sources {
        model::parse_file(label, content, &mut model);
        allow_marks(label, content, &mut marks);
    }
    let mut report = Report::new();

    // Suppressions must justify themselves.
    let mut allows = AllowIndex::new();
    for mark in &marks {
        if mark.justified {
            allows
                .entry((mark.file.clone(), mark.line))
                .or_default()
                .extend(mark.rules.iter().cloned());
        } else {
            report.extend(vec![Diagnostic::error(
                "taint-bad-suppression",
                Location::Source { file: mark.file.clone(), line: mark.line, col: mark.col },
                format!("`ams-taint` allow({}) without a justification", mark.rules.join(", ")),
            )
            .with_hint("append `: <reason>` — every taint suppression must explain itself")]);
        }
    }

    let g = graph::build(&model, &BTreeMap::new());
    let mut stats = TaintStats {
        files: model.files,
        functions: model.fns.len(),
        edges: g.edge_count(),
        sources: 0,
        violations: 0,
    };

    // Bottom-up summaries over the SCC condensation; Tarjan emits
    // components callees-first, so one ordered pass (with an inner
    // fixpoint for cycles) converges.
    let adj: Vec<Vec<usize>> =
        g.edges.iter().map(|es| es.iter().map(|e| e.callee).collect()).collect();
    let (_, comps) = graph::condense(model.fns.len(), &adj);
    let mut summaries = vec![Summary::default(); model.fns.len()];
    for comp in &comps {
        for _sweep in 0..max_sweeps(comp.len()) {
            let mut changed = false;
            for &i in comp {
                let before = fingerprint(&summaries[i]);
                let (s, _) =
                    local::analyze_fn(&model.fns[i], &model, cfg, &g.edges[i], &summaries, &allows);
                if fingerprint(&s) != before {
                    changed = true;
                }
                summaries[i] = s;
            }
            if !changed {
                break;
            }
        }
    }

    // Final sweep with converged summaries collects the findings.
    let mut findings: Vec<Finding> = Vec::new();
    let mut source_sites: std::collections::BTreeSet<(String, usize)> =
        std::collections::BTreeSet::new();
    for (i, fun) in model.fns.iter().enumerate() {
        let (_, fnd) = local::analyze_fn(fun, &model, cfg, &g.edges[i], &summaries, &allows);
        for f in &fnd {
            if let Some(first) = f.chain.first() {
                source_sites.insert((first.file.clone(), first.line));
            }
        }
        findings.extend(fnd);
    }
    stats.sources = source_sites.len();

    // One defect can surface through several units of the same
    // origin function; report each sink site once.
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.col == b.col
    });

    stats.violations = findings.len();
    for f in &findings {
        let chain = f
            .chain
            .iter()
            .map(|h| format!("{} ({}:{})", h.label, h.file, h.line))
            .collect::<Vec<_>>()
            .join(" → ");
        report.extend(vec![Diagnostic::error(
            &f.rule,
            Location::Source { file: f.file.clone(), line: f.line, col: f.col },
            format!("`{}` sized by untrusted input via {}", f.sink_label, chain),
        )
        .with_hint(
            "bound the value against a declared limit before the sink, or — if provably \
             benign — suppress at the site with an `ams-taint` allow comment carrying a \
             justification",
        )]);
    }
    if findings.is_empty() {
        report.extend(vec![Diagnostic::info(
            "taint-clean",
            Location::Global,
            format!(
                "taint: {} function(s) / {} edge(s) analyzed, {} source(s) declared — no \
                 unsanitized source→sink flow",
                stats.functions,
                stats.edges,
                cfg.sources.len()
            ),
        )]);
    }
    report.sort();
    (report, stats)
}

/// Read + taint-audit a set of files. Labels are `root`-relative when
/// the file sits under `root`, the raw path otherwise.
pub fn taint_files(
    root: &Path,
    paths: &[std::path::PathBuf],
    cfg: &TaintConfig,
) -> Result<(Report, TaintStats), String> {
    let mut sources = Vec::with_capacity(paths.len());
    for path in paths {
        let label = path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/");
        let content = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push((label, content));
    }
    Ok(taint_sources(&sources, cfg))
}

/// Taint-audit every *production* workspace source under `root`
/// against the `taint.toml` at `config`. Integration tests, benches
/// and the `perfbench/` benchmark workspace are excluded: they forge
/// inputs on purpose (corruption fixtures, synthetic loads) and none
/// of their code ships.
pub fn taint_workspace(root: &Path, config: &Path) -> Result<(Report, TaintStats), String> {
    let text = std::fs::read_to_string(config)
        .map_err(|e| format!("cannot read {}: {e}", config.display()))?;
    let cfg = config::parse(&text)?;
    let mut paths = workspace_sources(root)?;
    paths.retain(|p| ships(p.strip_prefix(root).unwrap_or(p)));
    taint_files(root, &paths, &cfg)
}

/// Whether the source at `rel` (relative to the workspace root) is
/// production code.
fn ships(rel: &Path) -> bool {
    let s = format!("/{}", rel.to_string_lossy().replace('\\', "/"));
    !s.starts_with("/perfbench/") && !s.contains("/tests/") && !s.contains("/benches/")
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: &str = "[[source]]\n\
                       name = \"read_line\"\n\
                       token = \".read_line(\"\n\
                       \n\
                       [[sink]]\n\
                       rule = \"tainted-alloc\"\n\
                       token = \"Vec::with_capacity(\"\n\
                       \n\
                       [[sanitizer]]\n\
                       token = \".min(\"\n\
                       \n\
                       [limits]\n\
                       names = [\"MAX_\"]\n";

    fn cfg() -> TaintConfig {
        config::parse(CFG).unwrap()
    }

    fn run(src: &str) -> (Report, TaintStats) {
        taint_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &cfg())
    }

    #[test]
    fn the_workspace_scan_skips_perfbench_but_not_crates() {
        // The same unsanitized flow in the benchmark workspace and in a
        // shipped crate: only the crate's copy is reported.
        let flow = |name: &str| {
            format!(
                "fn {name}(r: &mut Reader) -> usize {{\n\
                 \x20   let mut line = String::new();\n\
                 \x20   let n = r.read_line(&mut line);\n\
                 \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                 \x20   v.len()\n\
                 }}\n"
            )
        };
        let root = std::env::temp_dir().join(format!("ams-taint-scope-{}", std::process::id()));
        for (dir, name) in [("perfbench/src", "bench_load"), ("crates/x/src", "shipped_load")] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
            std::fs::write(root.join(dir).join("a.rs"), flow(name)).unwrap();
        }
        let config = root.join("taint.toml");
        std::fs::write(&config, CFG).unwrap();
        let scanned = taint_workspace(&root, &config);
        let _ = std::fs::remove_dir_all(&root);
        let (report, stats) = scanned.unwrap();
        let text = report.render_text();
        assert_eq!(stats.violations, 1, "{text}");
        assert!(text.contains("shipped_load (crates/x/src/a.rs:4)"), "{text}");
        assert!(!text.contains("perfbench/"), "{text}");
    }

    #[test]
    fn interprocedural_finding_renders_the_full_chain() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   mid(n)\n\
                   }\n\
                   fn mid(n: usize) -> usize {\n\
                   \x20   grow(n)\n\
                   }\n\
                   fn grow(n: usize) -> usize {\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 1, "{}", report.render_text());
        let v = report.diagnostics.iter().find(|d| d.rule == "tainted-alloc").unwrap();
        assert!(v.message.contains("read_line (crates/x/src/a.rs:3)"), "{}", v.message);
        assert!(v.message.contains("outer (crates/x/src/a.rs:4)"), "{}", v.message);
        assert!(v.message.contains("mid (crates/x/src/a.rs:7)"), "{}", v.message);
        assert!(v.message.contains("grow (crates/x/src/a.rs:10)"), "{}", v.message);
        assert!(v.message.contains("Vec::with_capacity"), "{}", v.message);
        match &v.location {
            Location::Source { file, line, .. } => {
                assert_eq!(file, "crates/x/src/a.rs");
                assert_eq!(*line, 10);
            }
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn sanitizer_on_the_path_and_clean_info() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   grow(n.min(MAX_REQ))\n\
                   }\n\
                   fn grow(n: usize) -> usize {\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 0, "{}", report.render_text());
        assert!(report.diagnostics.iter().any(|d| d.rule == "taint-clean"));
    }

    #[test]
    fn recursion_converges_and_still_reports() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   ping(n)\n\
                   }\n\
                   fn ping(n: usize) -> usize {\n\
                   \x20   pong(n)\n\
                   }\n\
                   fn pong(n: usize) -> usize {\n\
                   \x20   if n == 0 {\n\
                   \x20       return ping(n);\n\
                   \x20   }\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 1, "{}", report.render_text());
    }

    #[test]
    fn justified_allow_suppresses_and_bare_allow_errors() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   // ams-taint: allow(tainted-alloc): counter-tested, capped by caller\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n\
                   fn other(r: &mut Reader) -> usize {\n\
                   \x20   // ams-taint: allow(tainted-alloc)\n\
                   \x20   0\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 0, "{}", report.render_text());
        let bad = report.diagnostics.iter().find(|d| d.rule == "taint-bad-suppression").unwrap();
        assert!(bad.message.contains("without a justification"));
        match &bad.location {
            Location::Source { line, .. } => assert_eq!(*line, 9),
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn a_mark_inside_a_string_literal_is_not_a_suppression() {
        // The mark pattern quoted in a string (a test fixture, a
        // rendered hint) must neither suppress nor trip the
        // bad-suppression rule — only real comments count.
        let src = "fn outer() -> &'static str {\n\
                   \x20   \"// ams-taint: allow(tainted-alloc)\"\n\
                   }\n";
        let (report, _) = run(src);
        assert!(
            !report.diagnostics.iter().any(|d| d.rule == "taint-bad-suppression"),
            "{}",
            report.render_text()
        );
    }
}
