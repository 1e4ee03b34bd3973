//! Structured diagnostics shared by the validator and the race checker.

use std::fmt;

/// One finding — a proven violation of a checked invariant: which rule
/// fired, on what, and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier (kebab-case), e.g. `conflict-edge-unoriented`.
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The offending task pair, when the rule is about a pair.
    pub tasks: Option<(u32, u32)>,
    /// A minimal witness: for ordering violations, a dependency path whose
    /// endpoints prove the violation (e.g. the path that would close a
    /// cycle); for batch violations, the two co-batched tasks.
    pub witness: Vec<u32>,
}

impl Diagnostic {
    /// A diagnostic for `rule` with no task pair or witness yet.
    pub fn error(rule: &'static str, message: impl Into<String>) -> Self {
        Self {
            rule,
            message: message.into(),
            tasks: None,
            witness: Vec::new(),
        }
    }

    /// Attaches the offending task pair.
    pub fn with_tasks(mut self, a: u32, b: u32) -> Self {
        self.tasks = Some((a, b));
        self
    }

    /// Attaches a witness path.
    pub fn with_witness(mut self, witness: Vec<u32>) -> Self {
        self.witness = witness;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error [{}] {}", self.rule, self.message)?;
        if let Some((a, b)) = self.tasks {
            write!(f, " (tasks {a}, {b})")?;
        }
        if !self.witness.is_empty() {
            write!(f, " witness: ")?;
            for (i, t) in self.witness.iter().enumerate() {
                if i > 0 {
                    write!(f, " -> ")?;
                }
                write!(f, "{t}")?;
            }
        }
        Ok(())
    }
}

/// The outcome of one validation pass: every diagnostic plus counters of
/// what was actually checked (so "clean" is distinguishable from "checked
/// nothing").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// All findings, in discovery order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of tasks examined.
    pub tasks_checked: usize,
    /// Number of conflict edges examined.
    pub conflict_edges_checked: usize,
}

impl ValidationReport {
    /// Whether no diagnostic was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Panics with every diagnostic if the report is not clean — the
    /// debug-assert-style entry point used by the router's `validate` flag.
    ///
    /// # Panics
    ///
    /// If any diagnostic was recorded.
    pub fn assert_clean(&self, context: &str) {
        assert!(self.is_clean(), "{context}: {self}");
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Merges another report into this one (diagnostics append, counters
    /// add).
    pub fn merge(&mut self, other: ValidationReport) {
        self.diagnostics.extend(other.diagnostics);
        self.tasks_checked += other.tasks_checked;
        self.conflict_edges_checked += other.conflict_edges_checked;
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tasks, {} conflict edges checked, {} finding(s)",
            self.tasks_checked,
            self.conflict_edges_checked,
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_report_asserts_quietly() {
        let r = ValidationReport {
            tasks_checked: 3,
            ..Default::default()
        };
        assert!(r.is_clean());
        r.assert_clean("ctx");
    }

    #[test]
    #[should_panic(expected = "pattern: ")]
    fn dirty_report_panics_with_context() {
        let mut r = ValidationReport::default();
        r.push(Diagnostic::error("some-rule", "broken").with_tasks(1, 2));
        r.assert_clean("pattern");
    }

    #[test]
    fn display_includes_witness_path() {
        let d = Diagnostic::error("cycle", "a cycle exists")
            .with_tasks(0, 2)
            .with_witness(vec![0, 1, 2, 0]);
        let s = d.to_string();
        assert!(s.contains("error [cycle]"));
        assert!(s.contains("0 -> 1 -> 2 -> 0"));
        assert!(s.contains("(tasks 0, 2)"));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ValidationReport {
            tasks_checked: 2,
            conflict_edges_checked: 1,
            ..Default::default()
        };
        let mut b = ValidationReport::default();
        b.push(Diagnostic::error("r", "m"));
        b.tasks_checked = 3;
        a.merge(b);
        assert_eq!(a.tasks_checked, 5);
        assert_eq!(a.diagnostics.len(), 1);
        assert!(!a.is_clean());
    }
}
