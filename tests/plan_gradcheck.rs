//! Finite-difference gradient checks through the compiled plan.
//!
//! The eager tape and the plan share each op's forward and backward, so
//! comparing the two cannot catch a wrong backward formula. These checks
//! can: for every [`Op`] variant a small scalar tape is compiled with
//! [`Plan::compile`], its parameter cells are perturbed and the plan
//! replayed, and central differences of the replayed loss must match the
//! gradients [`Plan::backward`] deposits. The plan runs the op table's
//! backward for every op but `Matmul`, whose backward goes through the
//! plan's layout-flag GEMM (the op-table `Matmul` backward keeps its own
//! finite-difference check in `stgnn-tensor`'s autograd tests), plus the
//! in-place rewrites wherever liveness allows them. Extra cases pin an
//! in-place rewrite at every (op, slot) pair a training plan allows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use stgnn_djd::tensor::autograd::{Graph, Op, Param, ParamSet, Var};
use stgnn_djd::tensor::plan::{Plan, PlanExec, PlanSpec};
use stgnn_djd::tensor::{Shape, Tensor};

/// Central-difference step: large, because the loss is f32.
const EPS: f32 = 1e-2;
/// Relative tolerance between the plan gradient and the central difference.
const TOL: f32 = 2e-2;

/// A deterministic `r×c` matrix with distinct, non-zero, mixed-sign entries
/// kept away from the kinks of `relu`/`abs` and from ties in max-pooling.
fn mat(r: usize, c: usize, seed: u32) -> Tensor {
    let data = (0..r * c)
        .map(|i| {
            let k = (i as u32 * 7 + seed * 13) % 17;
            (k as f32 - 8.3) * 0.23
        })
        .collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

/// A strictly positive matrix (for `sqrt` and divisors).
fn pos(r: usize, c: usize, seed: u32) -> Tensor {
    mat(r, c, seed).abs().add_scalar(0.5)
}

/// Builds a case's tape from its parameter vars.
type Build = Box<dyn Fn(&Graph, &[Var]) -> Var>;

/// One gradcheck case: the parameters' starting values and the tape built
/// from their vars, ending in the value the loss weights and sums.
struct Case {
    params: Vec<Tensor>,
    build: Build,
}

fn case(params: Vec<Tensor>, build: impl Fn(&Graph, &[Var]) -> Var + 'static) -> Case {
    Case {
        params,
        build: Box::new(build),
    }
}

/// The case for `op`'s variant. The match has no wildcard arm, so a new
/// `Op` variant fails to compile here until it has a case.
fn case_for(op: &Op) -> Case {
    match op {
        Op::Leaf => case(vec![mat(2, 3, 1)], |g, x| x[0].mul(&g.leaf(mat(2, 3, 2)))),
        Op::Param => case(vec![mat(2, 3, 1)], |_, x| x[0].clone()),
        Op::Add => case(vec![mat(2, 3, 1), mat(2, 3, 2)], |_, x| x[0].add(&x[1])),
        Op::Sub => case(vec![mat(2, 3, 1), mat(2, 3, 2)], |_, x| x[0].sub(&x[1])),
        Op::Mul => case(vec![mat(2, 3, 1), mat(2, 3, 2)], |_, x| x[0].mul(&x[1])),
        Op::Div => case(vec![mat(2, 3, 1), pos(2, 3, 2)], |_, x| x[0].div(&x[1])),
        Op::AddScalar(_) => case(vec![mat(2, 3, 1)], |_, x| x[0].add_scalar(0.7)),
        Op::MulScalar(_) => case(vec![mat(2, 3, 1)], |_, x| x[0].mul_scalar(-1.3)),
        Op::Neg => case(vec![mat(2, 3, 1)], |_, x| x[0].neg()),
        Op::Matmul => case(vec![mat(2, 3, 1), mat(3, 4, 2)], |_, x| x[0].matmul(&x[1])),
        Op::Transpose => case(vec![mat(2, 3, 1)], |_, x| x[0].transpose()),
        Op::Reshape(_) => case(vec![mat(1, 6, 1)], |_, x| x[0].reshape(Shape::matrix(2, 3))),
        Op::SliceRows { .. } => case(vec![mat(4, 3, 1)], |_, x| x[0].slice_rows(1, 3)),
        Op::Relu => case(vec![mat(2, 3, 1)], |_, x| x[0].relu()),
        Op::Elu => case(vec![mat(2, 3, 1)], |_, x| x[0].elu()),
        Op::Sigmoid => case(vec![mat(2, 3, 1)], |_, x| x[0].sigmoid()),
        Op::Tanh => case(vec![mat(2, 3, 1)], |_, x| x[0].tanh()),
        Op::Exp => case(vec![mat(2, 3, 1)], |_, x| x[0].exp()),
        Op::Square => case(vec![mat(2, 3, 1)], |_, x| x[0].square()),
        Op::Abs => case(vec![mat(2, 3, 1)], |_, x| x[0].abs()),
        Op::Sqrt => case(vec![pos(2, 3, 1)], |_, x| x[0].sqrt()),
        Op::SoftmaxRows => case(vec![mat(2, 3, 1)], |_, x| x[0].softmax_rows()),
        Op::Dropout { .. } => case(vec![mat(4, 4, 1)], |_, x| {
            x[0].dropout(0.5, &mut StdRng::seed_from_u64(0))
        }),
        Op::AddRowBroadcast => case(vec![mat(3, 2, 1), mat(1, 2, 2)], |_, x| {
            x[0].add_row_broadcast(&x[1])
        }),
        Op::AddColBroadcast => case(vec![mat(3, 2, 1), mat(3, 1, 2)], |_, x| {
            x[0].add_col_broadcast(&x[1])
        }),
        Op::MulColBroadcast => case(vec![mat(3, 2, 1), mat(3, 1, 2)], |_, x| {
            x[0].mul_col_broadcast(&x[1])
        }),
        Op::RowsMaxPool => case(vec![mat(3, 2, 1)], |g, x| {
            let mask = Tensor::from_rows(&[
                &[1.0, 1.0, 0.0],
                &[0.0, 1.0, 1.0],
                &[1.0, 0.0, 1.0],
                &[1.0, 1.0, 1.0],
            ]);
            x[0].rows_max_pool(&g.leaf(mask))
        }),
        Op::SumAll => case(vec![mat(2, 3, 1)], |_, x| x[0].square().sum_all()),
        Op::MeanAll => case(vec![mat(2, 3, 1)], |_, x| x[0].square().mean_all()),
        Op::SumCols => case(vec![mat(2, 3, 1)], |_, x| x[0].sum_cols()),
        Op::SumRows => case(vec![mat(2, 3, 1)], |_, x| x[0].sum_rows()),
        Op::ConcatCols => case(vec![mat(2, 3, 1), mat(2, 1, 2)], |g, x| {
            g.concat_cols(&[&x[0], &x[1]])
        }),
    }
}

/// One representative of every `Op` variant, in declaration order.
fn every_op() -> Vec<Op> {
    vec![
        Op::Leaf,
        Op::Param,
        Op::Add,
        Op::Sub,
        Op::Mul,
        Op::Div,
        Op::AddScalar(0.0),
        Op::MulScalar(0.0),
        Op::Neg,
        Op::Matmul,
        Op::Transpose,
        Op::Reshape(Shape::scalar()),
        Op::SliceRows { start: 0, end: 0 },
        Op::Relu,
        Op::Elu,
        Op::Sigmoid,
        Op::Tanh,
        Op::Exp,
        Op::Square,
        Op::Abs,
        Op::Sqrt,
        Op::SoftmaxRows,
        Op::Dropout { rate: 0.0 },
        Op::AddRowBroadcast,
        Op::AddColBroadcast,
        Op::MulColBroadcast,
        Op::RowsMaxPool,
        Op::SumAll,
        Op::MeanAll,
        Op::SumCols,
        Op::SumRows,
        Op::ConcatCols,
    ]
}

/// One plan forward from the current parameter cells, returning the loss.
/// Each replay draws from a fresh, identically seeded stream, so every
/// forward samples the same dropout mask and the loss is a deterministic
/// function of the parameters.
fn replay(plan: &Plan, exec: &mut PlanExec) -> f32 {
    let mut rng = StdRng::seed_from_u64(9);
    plan.forward_with_rng(exec, &[], &mut rng).unwrap();
    plan.loss_value(exec).unwrap()
}

/// Traces `case`, weights its output with a fixed non-uniform leaf (so no
/// gradient is trivially uniform), compiles the scalar loss, and compares
/// the plan gradient of every parameter element with a central difference
/// of replayed losses. Returns the plan's in-place node count and the traced
/// op names so callers can check what the tape exercised.
fn check(case: &Case, what: &str) -> (usize, Vec<&'static str>) {
    let mut set = ParamSet::new();
    let params: Vec<Rc<Param>> = case
        .params
        .iter()
        .enumerate()
        .map(|(i, v)| set.add(format!("p{i}"), v.clone()))
        .collect();
    let g = Graph::new();
    let vars: Vec<Var> = params.iter().map(|p| g.param(p)).collect();
    let y = (case.build)(&g, &vars);
    let weight = mat(1, y.value().len(), 5).reshape(y.shape()).unwrap();
    let loss = y.mul(&g.leaf(weight)).sum_all();
    let spec = PlanSpec {
        loss: Some(loss.id()),
        ..PlanSpec::default()
    };
    let snapshot = g.snapshot();
    let names = snapshot.nodes.iter().map(|n| n.op.name()).collect();
    let plan = Plan::compile(&snapshot, &set, spec).unwrap();
    let mut exec = plan.executor();
    replay(&plan, &mut exec);
    set.zero_grads();
    plan.backward(&mut exec, 1.0).unwrap();
    for (pi, p) in params.iter().enumerate() {
        let auto = p.grad();
        let base = p.value();
        for i in 0..base.len() {
            let mut loss_at = |d: f32| {
                let mut v = base.clone();
                v.data_mut()[i] += d;
                p.set_value(v);
                replay(&plan, &mut exec)
            };
            let num = (loss_at(EPS) - loss_at(-EPS)) / (2.0 * EPS);
            p.set_value(base.clone());
            let a = auto.data()[i];
            assert!(
                (a - num).abs() <= TOL * (1.0 + num.abs()),
                "{what}: param {pi} element {i}: plan gradient {a} vs central \
                 difference {num}"
            );
        }
    }
    (plan.in_place_nodes(), names)
}

#[test]
fn every_op_gradient_matches_finite_differences_through_the_plan() {
    for op in every_op() {
        let (_, names) = check(&case_for(&op), op.name());
        assert!(
            names.contains(&op.name()),
            "the {op} case never records a {op} node: {names:?}"
        );
    }
}

#[test]
fn in_place_rewrite_backward_matches_finite_differences() {
    // (a ⊙ b) + c: the sum overwrites the dying product's buffer.
    let in_place = case(vec![mat(3, 4, 1), mat(3, 4, 2), mat(3, 4, 3)], |_, x| {
        x[0].mul(&x[1]).add(&x[2])
    });
    let (in_place_nodes, _) = check(&in_place, "in-place rewrite");
    assert!(in_place_nodes >= 1, "in_place={in_place_nodes}");
}

#[test]
fn in_place_rewrite_at_every_training_slot_matches_finite_differences() {
    // `mm` is the one parent each rewrite may steal: a single-reader
    // matmul whose own backward survives the steal. Every other operand is
    // a parameter, which is never stolen, so exactly one in-place node
    // means the rewrite took `mm` at the slot under test.
    fn mm(x: &[Var]) -> Var {
        x[0].matmul(&x[1])
    }
    let two = || vec![mat(2, 3, 1), mat(3, 2, 2)];
    let three = |third: Tensor| vec![mat(2, 3, 1), mat(3, 2, 2), third];
    let rewrites = [
        (
            "add slot 0",
            case(three(mat(2, 2, 3)), |_, x| mm(x).add(&x[2])),
        ),
        (
            "add slot 1",
            case(three(mat(2, 2, 3)), |_, x| x[2].add(&mm(x))),
        ),
        (
            "sub slot 0",
            case(three(mat(2, 2, 3)), |_, x| mm(x).sub(&x[2])),
        ),
        (
            "sub slot 1",
            case(three(mat(2, 2, 3)), |_, x| x[2].sub(&mm(x))),
        ),
        ("add_scalar", case(two(), |_, x| mm(x).add_scalar(0.7))),
        ("mul_scalar", case(two(), |_, x| mm(x).mul_scalar(-1.3))),
        ("neg", case(two(), |_, x| mm(x).neg())),
        ("elu", case(two(), |_, x| mm(x).elu())),
        ("sigmoid", case(two(), |_, x| mm(x).sigmoid())),
        ("tanh", case(two(), |_, x| mm(x).tanh())),
        ("exp", case(two(), |_, x| mm(x).exp())),
        (
            "sqrt",
            case(vec![pos(2, 3, 1), pos(3, 2, 2)], |_, x| mm(x).sqrt()),
        ),
        (
            "add_row_broadcast",
            case(three(mat(1, 2, 3)), |_, x| mm(x).add_row_broadcast(&x[2])),
        ),
        (
            "add_col_broadcast",
            case(three(mat(2, 1, 3)), |_, x| mm(x).add_col_broadcast(&x[2])),
        ),
    ];
    for (what, rewrite) in &rewrites {
        let (in_place_nodes, _) = check(rewrite, what);
        assert_eq!(in_place_nodes, 1, "{what}: in_place={in_place_nodes}");
    }
}
