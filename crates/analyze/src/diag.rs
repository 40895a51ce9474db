//! Diagnostic vocabulary of the tape validator: stable codes, severities,
//! and the [`Report`] a validation pass returns.
//!
//! Codes are *stable*: tests and CI logs key on them, so a code is never
//! renumbered or reused. See `DESIGN.md` for the
//! mapping from each code to the paper equation it guards.

use std::fmt;

/// Stable diagnostic codes of the tape validator (`A0xx`). Source codes
/// (`L0xx`, `S0xx`) live in [`crate::sound::codes`]. Codes `A008` (optimized-plan
/// structure) and `A009` (pass-report drift) are retired with the plan
/// passes whose rewrites they checked; they are not reused.
pub mod codes {
    /// Symbolic shape inference failed or disagrees with the recorded shape
    /// (operand fan-in mismatch, wrong rank, inconsistent tape).
    pub const SHAPE: &str = "A001";
    /// A parameter has no path to any analysis root: the backward sweep of
    /// the Eq 21 joint loss would never produce a gradient for it.
    pub const DISCONNECTED_PARAM: &str = "A002";
    /// Non-parameter nodes unreachable from every analysis root: computed,
    /// held in memory, never used.
    pub const DEAD_SUBGRAPH: &str = "A003";
    /// Division whose denominator is not provably bounded away from zero.
    pub const DIV_UNCONSTRAINED: &str = "A004";
    /// Square root whose input is not provably nonnegative.
    pub const SQRT_UNCONSTRAINED: &str = "A005";
    /// A softmax row whose every logit is masked (≤ −1e30) or non-finite:
    /// the Eq 12 attention head has no valid target.
    pub const MASKED_SOFTMAX: &str = "A006";
    /// A recorded forward value is already non-finite (NaN/±inf).
    pub const NONFINITE: &str = "A007";
}

/// How a diagnostic gates the pipeline that requested validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational only.
    Note,
    /// Suspicious but not provably wrong; surfaced, never blocking.
    Warn,
    /// The tape is malformed; trainers refuse to start and the serve
    /// registry refuses to swap the candidate in.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        })
    }
}

/// One finding of the tape validator.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code from [`codes`].
    pub code: &'static str,
    /// Gate level.
    pub severity: Severity,
    /// Tape id of the offending node, when the finding is node-local.
    pub node: Option<usize>,
    /// Op provenance (the [`stgnn_tensor::autograd::Op`] name, plus the
    /// parameter name for param nodes).
    pub op: String,
    /// Human-readable finding. For shape findings this is the `Display` of
    /// the same [`stgnn_tensor::Error`] the runtime kernel would raise, so
    /// pre-execution and runtime reports read identically.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code, self.severity)?;
        if let Some(n) = self.node {
            write!(f, " node #{n}")?;
        }
        if !self.op.is_empty() {
            write!(f, " ({})", self.op)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Cost estimate for one op kind, aggregated over the tape.
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Op name (see [`stgnn_tensor::autograd::Op::name`]).
    pub op: String,
    /// Number of nodes recording this op.
    pub count: usize,
    /// Estimated forward FLOPs.
    pub flops: u64,
    /// Bytes of forward values resident on the tape (the backward sweep
    /// roughly doubles this with gradient buffers).
    pub bytes: u64,
}

/// The result of validating one tape: diagnostics plus per-op cost totals.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in tape order per pass.
    pub diagnostics: Vec<Diagnostic>,
    /// Nodes on the analyzed tape.
    pub nodes: usize,
    /// Parameter nodes on the analyzed tape.
    pub params: usize,
    /// Estimated total forward FLOPs.
    pub flops: u64,
    /// Total bytes of forward values resident on the tape.
    pub tape_bytes: u64,
    /// Per-op cost breakdown, heaviest first.
    pub by_op: Vec<OpCost>,
}

impl Report {
    /// Number of findings at [`Severity::Deny`].
    pub fn deny_count(&self) -> usize {
        self.count(Severity::Deny)
    }

    /// Number of findings at [`Severity::Warn`].
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, s: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == s).count()
    }

    /// True when nothing blocks execution (no `Deny` findings).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Findings at exactly `severity`.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// First finding with the given stable code, if any.
    pub fn find(&self, code: &str) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.code == code)
    }

    /// One line for logs and error messages:
    /// `"3 findings (1 deny, 2 warn): A001, A004 ×2"`.
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            return format!("clean ({} nodes, {} params)", self.nodes, self.params);
        }
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for d in &self.diagnostics {
            match counts.iter_mut().find(|(c, _)| *c == d.code) {
                Some((_, n)) => *n += 1,
                None => counts.push((d.code, 1)),
            }
        }
        let codes = counts
            .iter()
            .map(|(c, n)| {
                if *n == 1 {
                    (*c).to_string()
                } else {
                    format!("{c} ×{n}")
                }
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{} findings ({} deny, {} warn): {}",
            self.diagnostics.len(),
            self.deny_count(),
            self.warn_count(),
            codes
        )
    }

    /// Full multi-line rendering: every diagnostic plus the cost table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tape: {} nodes, {} params, ~{} MFLOPs forward, {:.1} KiB values\n",
            self.nodes,
            self.params,
            self.flops / 1_000_000,
            self.tape_bytes as f64 / 1024.0
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!("  verdict: {}\n", self.summary()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: &'static str, severity: Severity) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            node: Some(3),
            op: "matmul".into(),
            message: "matmul: incompatible shapes [2, 3] and [2, 3]".into(),
        }
    }

    #[test]
    fn severity_orders_deny_highest() {
        assert!(Severity::Deny > Severity::Warn);
        assert!(Severity::Warn > Severity::Note);
    }

    #[test]
    fn report_counts_and_summary() {
        let mut r = Report::default();
        assert!(r.is_clean());
        assert!(r.summary().contains("clean"));
        r.diagnostics.push(diag(codes::SHAPE, Severity::Deny));
        r.diagnostics
            .push(diag(codes::DIV_UNCONSTRAINED, Severity::Warn));
        r.diagnostics
            .push(diag(codes::DIV_UNCONSTRAINED, Severity::Warn));
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 2);
        assert!(!r.is_clean());
        assert!(r.find(codes::SHAPE).is_some());
        assert!(r.find(codes::NONFINITE).is_none());
        let s = r.summary();
        assert!(s.contains("1 deny"), "{s}");
        assert!(s.contains("A004 ×2"), "{s}");
    }

    #[test]
    fn diagnostic_display_carries_code_node_and_op() {
        let d = diag(codes::SHAPE, Severity::Deny);
        let s = d.to_string();
        assert!(s.contains("A001"), "{s}");
        assert!(s.contains("deny"), "{s}");
        assert!(s.contains("node #3"), "{s}");
        assert!(s.contains("matmul"), "{s}");
    }
}
