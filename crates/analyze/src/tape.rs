//! Pre-execution validation of an autodiff tape.
//!
//! [`validate_tape`] takes a [`TapeSnapshot`] (from
//! [`stgnn_tensor::autograd::Graph::snapshot`]) plus the analysis *roots* —
//! the loss node for training, the demand/supply output nodes for serving —
//! and runs five passes without executing a single kernel:
//!
//! 1. **Symbolic shape inference** ([`infer_shape`]): re-derives every
//!    node's output shape from its parents' shapes and the static op
//!    payload, then cross-checks against the shape the tape recorded at
//!    build time. Failures reuse [`stgnn_tensor::Error`], so a
//!    pre-execution `A001` reads identically to the runtime kernel error.
//! 2. **Gradient-path reachability**: a parameter with no path to any root
//!    (`A002`) would silently never train — the exact failure mode the Eq 20
//!    predictor + Eq 21 joint loss make easy to introduce when refactoring.
//!    Non-parameter nodes feeding no root are flagged as dead (`A003`).
//! 3. **NaN-risk abstract interpretation**: a lower-bound domain
//!    ([`lower_bounds`]) proves denominators positive (`A004`) and sqrt
//!    inputs nonnegative (`A005`). The FCG row normalisation (Eq 10/14,
//!    `sum_cols().add_scalar(1e-6)`) and the Eq 21 `sqrt` over a sum of
//!    squares both verify cleanly; an unguarded division does not.
//! 4. **Value scan**: forward values already non-finite (`A007`) and
//!    fully-masked softmax rows (`A006`, every Eq 12 attention logit
//!    ≤ −1e30) are caught before anything downstream consumes them.
//! 5. **Cost accounting**: per-op FLOP and resident-byte estimates.

use crate::diag::{codes, Diagnostic, OpCost, Report, Severity};
use stgnn_tensor::autograd::{Op, TapeSnapshot};
use stgnn_tensor::{Error, Shape};

/// Logits at or below this are treated as masked-out attention targets.
const MASK_THRESHOLD: f32 = -1e30;

/// Cap on per-code node-level diagnostics so a degenerate tape cannot
/// produce an unreadable report; the overflow is summarized in one `Note`.
const MAX_PER_CODE: usize = 8;

/// Symbolically infers the output shape of `op` from its parents' shapes,
/// without running the kernel. Mirrors the shape rules (and the error
/// construction) of the corresponding `Tensor` kernels exactly.
///
/// `Op::Leaf` / `Op::Param` have no parents and no inferable shape; the
/// recorded shape is their ground truth and this function rejects them.
pub fn infer_shape(op: &Op, parents: &[&Shape]) -> stgnn_tensor::Result<Shape> {
    let arity_err = |expected: usize| {
        Error::InvalidArgument(format!(
            "{op}: expected {expected} operand(s), got {}",
            parents.len()
        ))
    };
    let one = || parents.first().copied().ok_or_else(|| arity_err(1));
    let two = || match parents {
        [a, b] => Ok((*a, *b)),
        _ => Err(arity_err(2)),
    };
    match op {
        Op::Leaf | Op::Param => Err(Error::InvalidArgument(format!(
            "{op}: leaves record, not infer, their shape"
        ))),

        Op::Add | Op::Sub | Op::Mul | Op::Div => {
            let (a, b) = two()?;
            if a == b {
                Ok(a.clone())
            } else {
                Err(Error::shape_mismatch(op.name(), a, b))
            }
        }

        Op::AddScalar(_)
        | Op::MulScalar(_)
        | Op::Neg
        | Op::Relu
        | Op::Elu
        | Op::Sigmoid
        | Op::Tanh
        | Op::Exp
        | Op::Square
        | Op::Abs
        | Op::Sqrt
        | Op::Dropout { .. } => {
            if parents.len() != 1 {
                return Err(arity_err(1));
            }
            Ok(one()?.clone())
        }

        Op::Matmul => {
            let (a, b) = two()?;
            let (m, k) = a.as_matrix("matmul")?;
            let (k2, n) = b.as_matrix("matmul")?;
            if k != k2 {
                return Err(Error::shape_mismatch("matmul", a, b));
            }
            Ok(Shape::matrix(m, n))
        }

        Op::Transpose => {
            let (r, c) = one()?.as_matrix("transpose")?;
            Ok(Shape::matrix(c, r))
        }

        Op::Reshape(target) => {
            let src = one()?;
            if target.len() != src.len() {
                return Err(Error::InvalidArgument(format!(
                    "cannot reshape {src} ({} elems) into {target} ({} elems)",
                    src.len(),
                    target.len()
                )));
            }
            Ok(target.clone())
        }

        Op::SliceRows { start, end } => {
            let (r, c) = one()?.as_matrix("slice_rows")?;
            if start > end || *end > r {
                return Err(Error::InvalidArgument(format!(
                    "slice_rows {start}..{end} out of bounds for {r} rows"
                )));
            }
            Ok(Shape::matrix(end - start, c))
        }

        Op::SoftmaxRows => {
            let s = one()?;
            s.as_matrix("softmax_rows")?;
            Ok(s.clone())
        }

        Op::AddRowBroadcast => {
            let (a, row) = two()?;
            let (r, c) = a.as_matrix("add_row_broadcast")?;
            let (rr, rc) = row.as_matrix("add_row_broadcast")?;
            if rr != 1 || rc != c {
                return Err(Error::shape_mismatch("add_row_broadcast", a, row));
            }
            Ok(Shape::matrix(r, c))
        }

        Op::AddColBroadcast | Op::MulColBroadcast => {
            let (a, col) = two()?;
            let (r, c) = a.as_matrix(op.name())?;
            let (cr, cc) = col.as_matrix(op.name())?;
            if cr != r || cc != 1 {
                return Err(Error::shape_mismatch(op.name(), a, col));
            }
            Ok(Shape::matrix(r, c))
        }

        Op::RowsMaxPool => {
            let (x, mask) = two()?;
            let (rows, cols) = x.as_matrix("rows_max_pool")?;
            let (out_rows, mask_cols) = mask.as_matrix("rows_max_pool")?;
            if mask_cols != rows {
                return Err(Error::shape_mismatch("rows_max_pool", x, mask));
            }
            Ok(Shape::matrix(out_rows, cols))
        }

        Op::SumAll | Op::MeanAll => {
            one()?;
            Ok(Shape::scalar())
        }

        Op::SumCols => {
            let (r, _) = one()?.as_matrix("sum_cols")?;
            Ok(Shape::matrix(r, 1))
        }

        Op::SumRows => {
            let (_, c) = one()?.as_matrix("sum_rows")?;
            Ok(Shape::matrix(1, c))
        }

        Op::ConcatCols => {
            let first = one()?;
            let (rows, _) = first.as_matrix("concat_cols")?;
            let mut total_cols = 0;
            for p in parents {
                let (r, c) = p.as_matrix("concat_cols")?;
                if r != rows {
                    return Err(Error::shape_mismatch("concat_cols", first, p));
                }
                total_cols += c;
            }
            Ok(Shape::matrix(rows, total_cols))
        }
    }
}

/// Per-node lower bounds on every element, or `None` when nothing is
/// provable. Leaves and parameters take the minimum of their recorded
/// value; everything else follows sound interval rules (e.g. `relu ≥ 0`,
/// `add_scalar` shifts, products of nonnegatives stay nonnegative).
pub fn lower_bounds(tape: &TapeSnapshot) -> Vec<Option<f32>> {
    let mut lo: Vec<Option<f32>> = Vec::with_capacity(tape.len());
    for info in &tape.nodes {
        let p = |i: usize| -> Option<f32> { *info.parents.get(i).and_then(|&id| lo.get(id))? };
        let bound = match &info.op {
            Op::Leaf | Op::Param => {
                let mut min = f32::INFINITY;
                for &v in info.value.data() {
                    if !v.is_finite() {
                        min = f32::NEG_INFINITY;
                        break;
                    }
                    min = min.min(v);
                }
                if min.is_finite() {
                    Some(min)
                } else {
                    None
                }
            }
            Op::Relu => Some(p(0).map_or(0.0, |l| l.max(0.0))),
            Op::Abs | Op::Square | Op::Exp | Op::Sigmoid | Op::Sqrt | Op::SoftmaxRows => Some(0.0),
            // Both are monotonic with range floored at −1, so the exact
            // transfer of the parent's bound is sound (elu uses α = 1).
            Op::Elu => Some(p(0).map_or(-1.0, |l| {
                if l > 0.0 {
                    l
                } else {
                    (l.exp() - 1.0).max(-1.0)
                }
            })),
            Op::Tanh => Some(p(0).map_or(-1.0, |l| l.tanh())),
            Op::Add | Op::AddRowBroadcast | Op::AddColBroadcast => match (p(0), p(1)) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
            Op::Mul | Op::MulColBroadcast | Op::Matmul => match (p(0), p(1)) {
                // x ≥ a ≥ 0, y ≥ b ≥ 0 ⇒ xy ≥ ab (and any sum of such
                // products stays ≥ 0, which covers matmul).
                (Some(a), Some(b)) if a >= 0.0 && b >= 0.0 => {
                    if matches!(info.op, Op::Matmul) {
                        Some(0.0)
                    } else {
                        Some(a * b)
                    }
                }
                _ => None,
            },
            Op::Div => match (p(0), p(1)) {
                (Some(a), Some(b)) if a >= 0.0 && b > 0.0 => Some(0.0),
                _ => None,
            },
            Op::AddScalar(s) => p(0).map(|l| l + s),
            Op::MulScalar(s) if *s >= 0.0 => p(0).map(|l| l * s),
            Op::MulScalar(_) | Op::Neg | Op::Sub => None,
            Op::Dropout { rate } => p(0).map(|l| if l >= 0.0 { 0.0 } else { l / (1.0 - rate) }),
            Op::Transpose | Op::Reshape(_) | Op::SliceRows { .. } | Op::RowsMaxPool => p(0),
            Op::SumAll | Op::MeanAll | Op::SumCols | Op::SumRows => p(0).map(|l| {
                if l >= 0.0 {
                    0.0
                } else {
                    // k elements each ≥ l ⇒ sum ≥ k·l (mean ≥ l, but k·l is
                    // still sound and keeps one rule).
                    l * info
                        .parents
                        .first()
                        .map_or(1.0, |&id| tape.nodes[id].shape.len() as f32)
                }
            }),
            Op::ConcatCols => {
                let mut min: Option<f32> = Some(f32::INFINITY);
                for i in 0..info.parents.len() {
                    match (min, p(i)) {
                        (Some(m), Some(l)) => min = Some(m.min(l)),
                        _ => {
                            min = None;
                            break;
                        }
                    }
                }
                min.filter(|m| m.is_finite())
            }
        };
        lo.push(bound);
    }
    lo
}

/// Estimated forward FLOPs of one node. Transcendental-heavy ops are
/// weighted ×8; matmul uses the exact `2·m·k·n`.
fn node_flops(op: &Op, parents: &[&Shape], out: &Shape) -> u64 {
    match op {
        Op::Leaf | Op::Param => 0,
        Op::Matmul => {
            let (Ok((m, k)), Ok((_, n))) = (
                parents
                    .first()
                    .map_or(Err(()), |s| s.as_matrix("").map_err(|_| ())),
                parents
                    .get(1)
                    .map_or(Err(()), |s| s.as_matrix("").map_err(|_| ())),
            ) else {
                return 0;
            };
            2 * (m * k * n) as u64
        }
        Op::Elu | Op::Sigmoid | Op::Tanh | Op::Exp | Op::Sqrt | Op::SoftmaxRows => {
            8 * out.len() as u64
        }
        // One comparison per mask entry and output column: the dense bound,
        // since which entries select a row is data.
        Op::RowsMaxPool => {
            let cols = out.dims().get(1).copied().unwrap_or(1);
            parents.get(1).map_or(0, |mask| (mask.len() * cols) as u64)
        }
        Op::SumAll | Op::MeanAll | Op::SumCols | Op::SumRows => {
            parents.first().map_or(0, |s| s.len() as u64)
        }
        _ => out.len() as u64,
    }
}

/// Validates `tape` against the given analysis roots (node ids whose values
/// the caller actually consumes — the loss for training, the prediction
/// heads for serving). Never executes a kernel; see the module docs for the
/// passes. The returned [`Report`] gates callers via [`Report::is_clean`].
pub fn validate_tape(tape: &TapeSnapshot, roots: &[usize]) -> Report {
    let mut report = Report {
        nodes: tape.len(),
        ..Report::default()
    };
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    let mut push = |report: &mut Report, d: Diagnostic| {
        let entry = match counts.iter_mut().find(|(c, _)| *c == d.code) {
            Some(e) => e,
            None => {
                counts.push((d.code, 0));
                counts.last_mut().expect("just pushed")
            }
        };
        entry.1 += 1;
        if entry.1 <= MAX_PER_CODE {
            report.diagnostics.push(d);
        } else if entry.1 == MAX_PER_CODE + 1 {
            report.diagnostics.push(Diagnostic {
                code: d.code,
                severity: Severity::Note,
                node: None,
                op: String::new(),
                message: format!("further {} findings suppressed", d.code),
            });
        }
    };

    // Pass 1: structure + symbolic shape inference, cross-checked against
    // the recorded shapes.
    let mut structurally_sound = true;
    for (id, info) in tape.nodes.iter().enumerate() {
        if info.param.is_some() {
            report.params += 1;
        }
        if let Some(&bad) = info.parents.iter().find(|&&p| p >= id) {
            structurally_sound = false;
            push(
                &mut report,
                Diagnostic {
                    code: codes::SHAPE,
                    severity: Severity::Deny,
                    node: Some(id),
                    op: info.op.name().to_string(),
                    message: format!(
                        "tape order violated: node #{id} lists parent #{bad} at or after itself"
                    ),
                },
            );
            continue;
        }
        if matches!(info.op, Op::Leaf | Op::Param) {
            continue;
        }
        let parent_shapes: Vec<&Shape> =
            info.parents.iter().map(|&p| &tape.nodes[p].shape).collect();
        match infer_shape(&info.op, &parent_shapes) {
            Ok(inferred) if inferred == info.shape => {}
            Ok(inferred) => push(
                &mut report,
                Diagnostic {
                    code: codes::SHAPE,
                    severity: Severity::Deny,
                    node: Some(id),
                    op: info.op.name().to_string(),
                    message: format!(
                        "inferred output shape {inferred} but the tape recorded {}",
                        info.shape
                    ),
                },
            ),
            Err(e) => push(
                &mut report,
                Diagnostic {
                    code: codes::SHAPE,
                    severity: Severity::Deny,
                    node: Some(id),
                    op: info.op.name().to_string(),
                    message: e.to_string(),
                },
            ),
        }
    }

    // Pass 2: reachability from the roots (ancestor walk over parent
    // edges). Skipped when parent ids are unusable.
    if structurally_sound {
        let mut reachable = vec![false; tape.len()];
        let mut stack: Vec<usize> = roots.iter().copied().filter(|&r| r < tape.len()).collect();
        for &r in roots {
            if r >= tape.len() {
                push(
                    &mut report,
                    Diagnostic {
                        code: codes::SHAPE,
                        severity: Severity::Deny,
                        node: Some(r),
                        op: String::new(),
                        message: format!(
                            "analysis root #{r} is not on the {}-node tape",
                            tape.len()
                        ),
                    },
                );
            }
        }
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut reachable[id], true) {
                continue;
            }
            stack.extend_from_slice(&tape.nodes[id].parents);
        }
        let mut dead = Vec::new();
        for (id, info) in tape.nodes.iter().enumerate() {
            if reachable[id] {
                continue;
            }
            if let Some(name) = &info.param {
                push(
                    &mut report,
                    Diagnostic {
                        code: codes::DISCONNECTED_PARAM,
                        severity: Severity::Deny,
                        node: Some(id),
                        op: format!("param {name}"),
                        message: format!(
                            "parameter \"{name}\" has no path to any analysis root: \
                             the backward sweep will never produce a gradient for it"
                        ),
                    },
                );
            } else {
                dead.push((id, info.op.name()));
            }
        }
        if !dead.is_empty() {
            let preview = dead
                .iter()
                .take(6)
                .map(|(id, op)| format!("#{id} {op}"))
                .collect::<Vec<_>>()
                .join(", ");
            let suffix = if dead.len() > 6 { ", …" } else { "" };
            push(
                &mut report,
                Diagnostic {
                    code: codes::DEAD_SUBGRAPH,
                    severity: Severity::Warn,
                    node: Some(dead[0].0),
                    op: dead[0].1.to_string(),
                    message: format!(
                        "{} node(s) feed no analysis root ({preview}{suffix}): \
                         computed and held on the tape but never consumed",
                        dead.len()
                    ),
                },
            );
        }
    }

    // Pass 3: NaN-risk via the lower-bound domain.
    let lo = lower_bounds(tape);
    for (id, info) in tape.nodes.iter().enumerate() {
        match &info.op {
            Op::Div => {
                let denom = info.parents.get(1).and_then(|&p| lo[p]);
                if !matches!(denom, Some(l) if l > 0.0) {
                    let shown = denom.map_or("unknown".to_string(), |l| format!("{l:e}"));
                    push(
                        &mut report,
                        Diagnostic {
                            code: codes::DIV_UNCONSTRAINED,
                            severity: Severity::Warn,
                            node: Some(id),
                            op: "div".to_string(),
                            message: format!(
                                "denominator is not provably positive (lower bound: {shown}); \
                                 a zero row would produce ±inf — guard with .add_scalar(ε) as \
                                 the Eq 10/14 row normalisation does"
                            ),
                        },
                    );
                }
            }
            Op::Sqrt => {
                let arg = info.parents.first().and_then(|&p| lo[p]);
                if !matches!(arg, Some(l) if l >= 0.0) {
                    let shown = arg.map_or("unknown".to_string(), |l| format!("{l:e}"));
                    push(
                        &mut report,
                        Diagnostic {
                            code: codes::SQRT_UNCONSTRAINED,
                            severity: Severity::Warn,
                            node: Some(id),
                            op: "sqrt".to_string(),
                            message: format!(
                                "input is not provably nonnegative (lower bound: {shown}); \
                                 a negative radicand is NaN"
                            ),
                        },
                    );
                }
            }
            _ => {}
        }
    }

    // Pass 4: recorded-value scan — non-finite forwards and fully-masked
    // softmax rows.
    for (id, info) in tape.nodes.iter().enumerate() {
        if let Some(&bad) = info.value.data().iter().find(|v| !v.is_finite()) {
            push(
                &mut report,
                Diagnostic {
                    code: codes::NONFINITE,
                    severity: Severity::Deny,
                    node: Some(id),
                    op: info.op.name().to_string(),
                    message: format!(
                        "forward value contains {bad} — already non-finite on the tape"
                    ),
                },
            );
        }
        if matches!(info.op, Op::SoftmaxRows) {
            let Some(&pid) = info.parents.first() else {
                continue;
            };
            let logits = &tape.nodes[pid].value;
            let Ok((r, c)) = logits.shape().as_matrix("softmax_rows") else {
                continue;
            };
            for row in 0..r {
                let data = logits.row(row);
                let _ = c;
                if data.iter().all(|&v| !v.is_finite() || v <= MASK_THRESHOLD) {
                    push(
                        &mut report,
                        Diagnostic {
                            code: codes::MASKED_SOFTMAX,
                            severity: Severity::Deny,
                            node: Some(id),
                            op: "softmax_rows".to_string(),
                            message: format!(
                                "row {row} is fully masked (every logit ≤ {MASK_THRESHOLD:e}): \
                                 the Eq 12 attention head has no valid target and the kernel \
                                 falls back to a uniform distribution"
                            ),
                        },
                    );
                }
            }
        }
    }

    // Pass 5: cost accounting.
    let mut by_op: Vec<OpCost> = Vec::new();
    for info in &tape.nodes {
        let parent_shapes: Vec<&Shape> = info
            .parents
            .iter()
            .filter_map(|&p| tape.nodes.get(p))
            .map(|n| &n.shape)
            .collect();
        let flops = node_flops(&info.op, &parent_shapes, &info.shape);
        let bytes = (info.shape.len() * std::mem::size_of::<f32>()) as u64;
        report.flops += flops;
        report.tape_bytes += bytes;
        match by_op.iter_mut().find(|c| c.op == info.op.name()) {
            Some(c) => {
                c.count += 1;
                c.flops += flops;
                c.bytes += bytes;
            }
            None => by_op.push(OpCost {
                op: info.op.name().to_string(),
                count: 1,
                flops,
                bytes,
            }),
        }
    }
    by_op.sort_by_key(|c| std::cmp::Reverse(c.flops));
    report.by_op = by_op;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use stgnn_tensor::autograd::{Graph, NodeInfo, Param};
    use stgnn_tensor::Tensor;

    fn t(rows: &[&[f32]]) -> Tensor {
        Tensor::from_rows(rows)
    }

    /// A hand-built node whose recorded value is all-zeros of `shape`.
    fn node(op: Op, parents: Vec<usize>, shape: Shape) -> NodeInfo {
        NodeInfo {
            op,
            parents,
            shape: shape.clone(),
            value: Tensor::zeros(shape),
            param: None,
        }
    }

    #[test]
    fn clean_guarded_tape_validates() {
        // A miniature of the real pipeline: relu-masked weights, an
        // ε-guarded row normalisation (Eq 10/14) and the Eq 21 √-loss.
        let g = Graph::new();
        let p = Param::new("w", t(&[&[0.5, -0.2], &[0.1, 0.8]]));
        let x = g.leaf(t(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = g.param(&p);
        let raw = x.matmul(&w).relu();
        let sums = raw.sum_cols().add_scalar(1e-6);
        let ones = g.leaf(Tensor::ones(Shape::matrix(2, 1)));
        let inv = ones.div(&sums);
        let normed = raw.mul_col_broadcast(&inv);
        let loss = normed.square().mean_all().sqrt();
        let report = validate_tape(&g.snapshot(), &[loss.id()]);
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.warn_count(), 0, "{}", report.render());
        assert_eq!(report.params, 1);
        assert!(report.flops > 0);
        assert!(report.tape_bytes > 0);
    }

    #[test]
    fn disconnected_param_is_denied_with_a002() {
        let g = Graph::new();
        let used = Param::new("w_used", t(&[&[1.0]]));
        let orphan = Param::new("w_orphan", t(&[&[2.0]]));
        let a = g.param(&used);
        let _unused = g.param(&orphan);
        let loss = a.sum_all();
        let report = validate_tape(&g.snapshot(), &[loss.id()]);
        let d = report
            .find(codes::DISCONNECTED_PARAM)
            .expect("A002 expected");
        assert_eq!(d.severity, Severity::Deny);
        assert!(d.message.contains("w_orphan"), "{}", d.message);
        assert!(!report.is_clean());
    }

    #[test]
    fn matmul_fan_in_mismatch_reads_like_the_runtime_error() {
        // The Var API panics before recording an inconsistent matmul, so
        // seed the defect on a hand-assembled snapshot — the exact artifact
        // a deserialized/corrupted tape would present.
        let a = Shape::matrix(2, 3);
        let b = Shape::matrix(2, 3); // inner dims clash: 3 vs 2
        let tape = TapeSnapshot {
            nodes: vec![
                node(Op::Leaf, vec![], a.clone()),
                node(Op::Leaf, vec![], b.clone()),
                node(Op::Matmul, vec![0, 1], Shape::matrix(2, 3)),
            ],
        };
        let report = validate_tape(&tape, &[2]);
        let d = report.find(codes::SHAPE).expect("A001 expected");
        assert_eq!(d.severity, Severity::Deny);
        let runtime_err = Tensor::zeros(a)
            .matmul(&Tensor::zeros(b))
            .unwrap_err()
            .to_string();
        assert_eq!(
            d.message, runtime_err,
            "analyzer and runtime must read identically"
        );
    }

    #[test]
    fn recorded_shape_disagreeing_with_inference_is_denied() {
        let tape = TapeSnapshot {
            nodes: vec![
                node(Op::Leaf, vec![], Shape::matrix(2, 3)),
                // transpose of 2×3 must be 3×2, tape claims 2×3
                node(Op::Transpose, vec![0], Shape::matrix(2, 3)),
            ],
        };
        let report = validate_tape(&tape, &[1]);
        let d = report.find(codes::SHAPE).expect("A001 expected");
        assert!(d.message.contains("[3, 2]"), "{}", d.message);
        assert!(d.message.contains("[2, 3]"), "{}", d.message);
    }

    #[test]
    fn fully_masked_softmax_row_is_denied_with_a006() {
        let g = Graph::new();
        let logits = g.leaf(t(&[&[0.1, 0.9], &[-1e38, -1e38]]));
        let alpha = logits.softmax_rows();
        let report = validate_tape(&g.snapshot(), &[alpha.id()]);
        let d = report.find(codes::MASKED_SOFTMAX).expect("A006 expected");
        assert_eq!(d.severity, Severity::Deny);
        assert!(d.message.contains("row 1"), "{}", d.message);
        // The kernel's uniform fallback keeps the value finite, so A007
        // must NOT fire — A006 is the only signal.
        assert!(report.find(codes::NONFINITE).is_none());
    }

    #[test]
    fn unguarded_div_warns_and_guarded_div_does_not() {
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0, 2.0]]));
        let y = g.leaf(t(&[&[0.5, -0.5]])); // sign-indefinite denominator
        let bad = x.div(&y);
        let report = validate_tape(&g.snapshot(), &[bad.id()]);
        let d = report
            .find(codes::DIV_UNCONSTRAINED)
            .expect("A004 expected");
        assert_eq!(d.severity, Severity::Warn);
        assert!(report.is_clean(), "A004 is warn-level");

        let g2 = Graph::new();
        let x2 = g2.leaf(t(&[&[1.0, 2.0]]));
        let y2 = g2.leaf(t(&[&[0.5, -0.5]]));
        let good = x2.div(&y2.relu().add_scalar(1e-6));
        let report2 = validate_tape(&g2.snapshot(), &[good.id()]);
        assert!(
            report2.find(codes::DIV_UNCONSTRAINED).is_none(),
            "{}",
            report2.render()
        );
    }

    #[test]
    fn sqrt_of_indefinite_input_warns_and_square_root_of_square_does_not() {
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0, -4.0]]));
        let bad = x.mean_all().sqrt();
        let report = validate_tape(&g.snapshot(), &[bad.id()]);
        assert!(
            report.find(codes::SQRT_UNCONSTRAINED).is_some(),
            "{}",
            report.render()
        );

        let g2 = Graph::new();
        let x2 = g2.leaf(t(&[&[1.0, -4.0]]));
        let good = x2.square().mean_all().sqrt(); // Eq 21 shape
        let report2 = validate_tape(&g2.snapshot(), &[good.id()]);
        assert!(
            report2.find(codes::SQRT_UNCONSTRAINED).is_none(),
            "{}",
            report2.render()
        );
    }

    #[test]
    fn non_finite_forward_value_is_denied_with_a007() {
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0, f32::INFINITY]]));
        let y = x.mul_scalar(2.0);
        let report = validate_tape(&g.snapshot(), &[y.id()]);
        assert_eq!(report.at(Severity::Deny).count(), 2); // leaf + product
        assert!(report.find(codes::NONFINITE).is_some());
    }

    #[test]
    fn dead_subgraph_warns_with_a003() {
        let g = Graph::new();
        let a = g.leaf(t(&[&[1.0, 2.0]]));
        let _dead = a.mul_scalar(3.0).square();
        let loss = a.sum_all();
        let report = validate_tape(&g.snapshot(), &[loss.id()]);
        let d = report.find(codes::DEAD_SUBGRAPH).expect("A003 expected");
        assert_eq!(d.severity, Severity::Warn);
        assert!(d.message.contains("2 node(s)"), "{}", d.message);
    }

    #[test]
    fn multiple_roots_keep_both_heads_alive() {
        // Serving probes pass both prediction heads as roots (Eq 20 emits
        // demand and supply); neither must count as dead.
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let demand = x.relu();
        let supply = x.neg().relu();
        let report = validate_tape(&g.snapshot(), &[demand.id(), supply.id()]);
        assert!(
            report.find(codes::DEAD_SUBGRAPH).is_none(),
            "{}",
            report.render()
        );
        assert!(report.is_clean());
    }

    #[test]
    fn out_of_range_root_is_denied() {
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0]]));
        let report = validate_tape(&g.snapshot(), &[x.id(), 99]);
        assert!(!report.is_clean());
        assert!(report
            .find(codes::SHAPE)
            .unwrap()
            .message
            .contains("root #99"));
    }

    #[test]
    fn tape_order_violation_is_denied() {
        let tape = TapeSnapshot {
            nodes: vec![node(Op::Relu, vec![0], Shape::matrix(1, 1))], // self-parent
        };
        let report = validate_tape(&tape, &[0]);
        assert!(!report.is_clean());
        assert!(report
            .find(codes::SHAPE)
            .unwrap()
            .message
            .contains("tape order"));
    }

    #[test]
    fn infer_shape_covers_structural_ops() {
        let m23 = Shape::matrix(2, 3);
        let m32 = Shape::matrix(3, 2);
        assert_eq!(
            infer_shape(&Op::Matmul, &[&m23, &m32]).unwrap(),
            Shape::matrix(2, 2)
        );
        assert_eq!(infer_shape(&Op::Transpose, &[&m23]).unwrap(), m32);
        assert_eq!(
            infer_shape(&Op::ConcatCols, &[&m23, &m23, &m23]).unwrap(),
            Shape::matrix(2, 9)
        );
        assert_eq!(
            infer_shape(&Op::SliceRows { start: 0, end: 1 }, &[&m23]).unwrap(),
            Shape::matrix(1, 3)
        );
        assert_eq!(
            infer_shape(&Op::SumCols, &[&m23]).unwrap(),
            Shape::matrix(2, 1)
        );
        assert_eq!(
            infer_shape(&Op::SumRows, &[&m23]).unwrap(),
            Shape::matrix(1, 3)
        );
        assert_eq!(infer_shape(&Op::MeanAll, &[&m23]).unwrap(), Shape::scalar());
        assert_eq!(
            infer_shape(&Op::RowsMaxPool, &[&m23, &Shape::matrix(4, 2)]).unwrap(),
            Shape::matrix(4, 3)
        );
        assert!(infer_shape(&Op::RowsMaxPool, &[&m23, &m23]).is_err());
        assert_eq!(
            infer_shape(&Op::AddRowBroadcast, &[&m23, &Shape::matrix(1, 3)]).unwrap(),
            m23
        );
        assert_eq!(
            infer_shape(&Op::MulColBroadcast, &[&m23, &Shape::matrix(2, 1)]).unwrap(),
            m23
        );
        // arity violations are errors, not panics
        assert!(infer_shape(&Op::Add, &[&m23]).is_err());
        assert!(infer_shape(&Op::Relu, &[&m23, &m32]).is_err());
        assert!(infer_shape(&Op::Leaf, &[]).is_err());
    }

    #[test]
    fn matmul_flops_are_2mkn() {
        let g = Graph::new();
        let a = g.leaf(Tensor::ones(Shape::matrix(4, 5)));
        let b = g.leaf(Tensor::ones(Shape::matrix(5, 6)));
        let y = a.matmul(&b).sum_all();
        let report = validate_tape(&g.snapshot(), &[y.id()]);
        let mm = report.by_op.iter().find(|c| c.op == "matmul").unwrap();
        assert_eq!(mm.flops, 2 * 4 * 5 * 6);
        assert_eq!(mm.count, 1);
    }

    #[test]
    fn per_code_diagnostics_are_capped() {
        let g = Graph::new();
        let x = g.leaf(t(&[&[1.0]]));
        let y = g.leaf(t(&[&[-1.0]]));
        let mut last = x.div(&y);
        for _ in 0..20 {
            last = last.div(&y);
        }
        let report = validate_tape(&g.snapshot(), &[last.id()]);
        let mut a004 = report
            .diagnostics
            .iter()
            .filter(|d| d.code == codes::DIV_UNCONSTRAINED);
        assert!(a004.clone().count() <= MAX_PER_CODE + 1);
        assert!(a004.next_back().unwrap().message.contains("suppressed"));
    }
}
