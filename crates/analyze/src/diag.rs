//! The diagnostic data model: stable codes, severities, locations and the
//! human-text / JSON renderers shared by `banger check` and
//! `Project::diagnose`.

use banger_calc::Pos;
use std::fmt;

/// How bad a finding is.
///
/// `Error` findings make a design unschedulable/unrunnable; `Warning`
/// findings are suspicious but legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; execution proceeds.
    Warning,
    /// The design is rejected by `schedule`/`run`/`codegen`.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges group the passes:
/// `B00x` races, `B01x` PITL/PITS interface checks, `B02x` compound port
/// bindings, `B03x` graph hygiene, `B04x` abstract interpretation of
/// task program bodies (value-range safety).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// Two tasks write the same storage item with no precedence path
    /// between them (write/write race).
    B001,
    /// A read of a multi-writer storage item is not ordered against every
    /// write by the rest of the graph (racy read).
    B002,
    /// A task names a program that is missing from the library.
    B010,
    /// A task receives an arc variable its program does not declare `in`.
    B011,
    /// A task emits an arc variable its program does not declare `out`.
    B012,
    /// A declared `out` variable is never assigned in the program body.
    B013,
    /// A declared `in` variable is never read in the program body.
    B014,
    /// The program assigns a variable it never declares (implicit local).
    B015,
    /// A declared `in` variable of a non-entry task is supplied by no arc
    /// and will fall back to the external input map at run time.
    B016,
    /// An arc crosses a compound boundary with no port binding for its
    /// variable.
    B020,
    /// A compound port binding names an inner node that does not exist.
    B021,
    /// The design contains a cycle.
    B030,
    /// A task is connected to nothing (no arcs in or out).
    B031,
    /// A task weight or storage size is zero, negative or non-finite.
    B032,
    /// A storage item has no arcs at all (dead storage).
    B033,
    /// A variable is read before it is assigned (error when on every
    /// path, warning when only on some).
    B040,
    /// An array index provably outside the declared or flowed bounds
    /// (error when definite against flowed bounds, warning when possible
    /// or against declared sizes).
    B041,
    /// A definite arithmetic domain escape: division by a constant zero,
    /// `sqrt` of a wholly negative interval, `log` of a non-positive one.
    /// Always a warning — the calculator completes with IEEE NaN/inf.
    B042,
    /// A `while` loop none of whose condition variables is assigned in
    /// the body — no decreasing variant, step-limit risk.
    B043,
    /// Dead assignment, or an `out` variable not written on some path.
    B044,
}

impl Code {
    /// The stable `B0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::B001 => "B001",
            Code::B002 => "B002",
            Code::B010 => "B010",
            Code::B011 => "B011",
            Code::B012 => "B012",
            Code::B013 => "B013",
            Code::B014 => "B014",
            Code::B015 => "B015",
            Code::B016 => "B016",
            Code::B020 => "B020",
            Code::B021 => "B021",
            Code::B030 => "B030",
            Code::B031 => "B031",
            Code::B032 => "B032",
            Code::B033 => "B033",
            Code::B040 => "B040",
            Code::B041 => "B041",
            Code::B042 => "B042",
            Code::B043 => "B043",
            Code::B044 => "B044",
        }
    }

    /// One-line description of what the code means (the `B0xx` table).
    pub fn summary(self) -> &'static str {
        match self {
            Code::B001 => "write/write storage race",
            Code::B002 => "unordered read of a multi-writer storage item",
            Code::B010 => "task program missing from the library",
            Code::B011 => "arc variable not declared `in` by the receiving program",
            Code::B012 => "arc variable not declared `out` by the sending program",
            Code::B013 => "declared `out` variable never assigned",
            Code::B014 => "declared `in` variable never read",
            Code::B015 => "assignment to an undeclared variable",
            Code::B016 => "`in` variable supplied by no arc",
            Code::B020 => "unbound compound port",
            Code::B021 => "port binding names a missing inner node",
            Code::B030 => "design contains a cycle",
            Code::B031 => "task connected to nothing",
            Code::B032 => "bad task weight or storage size",
            Code::B033 => "storage item with no arcs",
            Code::B040 => "variable read before assignment",
            Code::B041 => "array index out of bounds",
            Code::B042 => "definite arithmetic domain error",
            Code::B043 => "`while` loop with no decreasing variant",
            Code::B044 => "dead assignment or `out` variable unset on some path",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points. All parts optional; renderers print the ones
/// that are present.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Location {
    /// Qualified node name(s) in the design (`Factor.fl21`).
    pub nodes: Vec<String>,
    /// An arc `(src, dst, label)` in the design.
    pub arc: Option<(String, String, String)>,
    /// The PITS program the finding is about.
    pub program: Option<String>,
    /// Source position inside that program (from the calc parser).
    pub span: Option<Pos>,
}

impl Location {
    /// Location naming one design node.
    pub fn node(name: impl Into<String>) -> Self {
        Location {
            nodes: vec![name.into()],
            ..Default::default()
        }
    }

    /// Location naming several design nodes.
    pub fn nodes(names: Vec<String>) -> Self {
        Location {
            nodes: names,
            ..Default::default()
        }
    }

    /// Location naming a program (optionally with a source span).
    pub fn program(name: impl Into<String>, span: Option<Pos>) -> Self {
        Location {
            program: Some(name.into()),
            span,
            ..Default::default()
        }
    }
}

/// One finding produced by the analysis passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// What the finding points at.
    pub location: Location,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional suggestion for fixing it.
    pub help: Option<String>,
}

impl Diagnostic {
    /// A new error-severity diagnostic.
    pub fn error(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// A new warning-severity diagnostic.
    pub fn warning(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            location,
            message: message.into(),
            help: None,
        }
    }

    /// Attaches a help suggestion.
    pub fn with_help(mut self, help: impl Into<String>) -> Self {
        self.help = Some(help.into());
        self
    }

    /// Deterministic ordering key: errors first, then by code, then by
    /// location and message.
    fn sort_key(&self) -> (u8, Code, &[String], &str) {
        let sev = match self.severity {
            Severity::Error => 0,
            Severity::Warning => 1,
        };
        (sev, self.code, &self.location.nodes, &self.message)
    }
}

/// Sorts diagnostics into the stable presentation order (errors first,
/// then by code, location and message).
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.sort_key().cmp(&b.sort_key()).then_with(|| {
            let la = (&a.location.arc, &a.location.program, a.help.is_some());
            let lb = (&b.location.arc, &b.location.program, b.help.is_some());
            la.cmp(&lb)
        })
    });
}

/// True when any diagnostic has error severity.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Renders one diagnostic as human-readable text (possibly multi-line,
/// no trailing newline).
pub fn render_text(d: &Diagnostic) -> String {
    let mut out = format!("{}[{}]: {}", d.severity, d.code, d.message);
    let mut at = Vec::new();
    for n in &d.location.nodes {
        at.push(format!("node `{n}`"));
    }
    if let Some((src, dst, label)) = &d.location.arc {
        at.push(format!("arc `{src}` -> `{dst}` (label `{label}`)"));
    }
    if let Some(p) = &d.location.program {
        match d.location.span {
            Some(pos) => at.push(format!("program `{p}` at {pos}")),
            None => at.push(format!("program `{p}`")),
        }
    }
    if !at.is_empty() {
        out.push_str("\n    at ");
        out.push_str(&at.join(", "));
    }
    if let Some(h) = &d.help {
        out.push_str("\n  help: ");
        out.push_str(h);
    }
    out
}

/// Renders a full report: every diagnostic plus a summary line.
pub fn render_report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&render_text(d));
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!(
        "{errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    ));
    out
}

fn json_string(s: &str, out: &mut String) {
    out.push('"');
    banger_taskgraph::json::escape_into(s, out);
    out.push('"');
}

/// Renders the diagnostics as a JSON array (one object per finding) —
/// hand-rolled, since the workspace carries no serde.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"code\":");
        json_string(d.code.as_str(), &mut out);
        out.push_str(",\"severity\":");
        json_string(&d.severity.to_string(), &mut out);
        out.push_str(",\"message\":");
        json_string(&d.message, &mut out);
        if !d.location.nodes.is_empty() {
            out.push_str(",\"nodes\":[");
            for (j, n) in d.location.nodes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(n, &mut out);
            }
            out.push(']');
        }
        if let Some((src, dst, label)) = &d.location.arc {
            out.push_str(",\"arc\":{\"src\":");
            json_string(src, &mut out);
            out.push_str(",\"dst\":");
            json_string(dst, &mut out);
            out.push_str(",\"label\":");
            json_string(label, &mut out);
            out.push('}');
        }
        if let Some(p) = &d.location.program {
            out.push_str(",\"program\":");
            json_string(p, &mut out);
        }
        if let Some(pos) = d.location.span {
            out.push_str(&format!(",\"line\":{},\"col\":{}", pos.line, pos.col));
        }
        if let Some(h) = &d.help {
            out.push_str(",\"help\":");
            json_string(h, &mut out);
        }
        out.push('}');
    }
    out.push_str("\n]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::B001.as_str(), "B001");
        assert_eq!(Code::B033.to_string(), "B033");
        assert!(!Code::B016.summary().is_empty());
        assert_eq!(Code::B040.as_str(), "B040");
        assert_eq!(Code::B044.to_string(), "B044");
        for c in [Code::B040, Code::B041, Code::B042, Code::B043, Code::B044] {
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn sorting_puts_errors_first() {
        let mut ds = vec![
            Diagnostic::warning(Code::B014, Location::default(), "w"),
            Diagnostic::error(Code::B030, Location::default(), "e"),
            Diagnostic::error(Code::B001, Location::node("a"), "e2"),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(ds[0].code, Code::B001);
        assert_eq!(ds[1].code, Code::B030);
        assert_eq!(ds[2].code, Code::B014);
        assert!(has_errors(&ds));
    }

    #[test]
    fn text_render_includes_code_and_location() {
        let d = Diagnostic::error(
            Code::B001,
            Location::nodes(vec!["a".into(), "b".into()]),
            "race on `s`",
        )
        .with_help("order the writers");
        let s = render_text(&d);
        assert!(s.contains("error[B001]"), "{s}");
        assert!(s.contains("node `a`, node `b`"), "{s}");
        assert!(s.contains("help: order the writers"), "{s}");
    }

    #[test]
    fn report_counts_severities() {
        let ds = vec![
            Diagnostic::error(Code::B030, Location::default(), "e"),
            Diagnostic::warning(Code::B033, Location::default(), "w"),
            Diagnostic::warning(Code::B031, Location::default(), "w2"),
        ];
        let r = render_report(&ds);
        assert!(r.ends_with("1 error, 2 warnings"), "{r}");
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let d = Diagnostic::warning(
            Code::B015,
            Location::program("P", Some(Pos { line: 3, col: 7 })),
            "assigns \"x\"\nimplicitly",
        );
        let j = render_json(&[d]);
        assert!(j.contains("\\\"x\\\""), "{j}");
        assert!(j.contains("\\n"), "{j}");
        assert!(j.contains("\"line\":3"), "{j}");
        assert!(j.contains("\"col\":7"), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
    }

    #[test]
    fn empty_json_is_an_array() {
        assert_eq!(render_json(&[]), "[\n]");
    }
}
