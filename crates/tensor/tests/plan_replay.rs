//! Bit-identity tests for compiled tape replay.
//!
//! The contract under test: a [`Plan`] compiled from one eager trace,
//! re-run on fresh inputs, produces byte-for-byte the same forward values
//! and parameter gradients as re-tracing the same expression eagerly on
//! those inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use stgnn_tensor::autograd::{Graph, Param, ParamSet, Var};
use stgnn_tensor::plan::{LeafBinding, Plan, PlanSpec};
use stgnn_tensor::{Shape, Tensor};

fn random_tensor(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
    let data: Vec<f32> = (0..r * c).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    Tensor::from_vec(Shape::matrix(r, c), data).unwrap()
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs: {x} vs {y}"
        );
    }
}

/// A deterministic random expression over square matrices: the same
/// `choices` sequence rebuilds the identical tape structure, so one build
/// is traced into a plan and the other serves as the eager reference.
fn build_expr(_g: &Graph, inputs: &[Var], params: &[Var], choices: &[u32]) -> Var {
    let mut pool: Vec<Var> = inputs.to_vec();
    pool.extend_from_slice(params);
    for chunk in choices.chunks(3) {
        let (op, i, j) = (chunk[0], chunk[1] as usize, chunk[2] as usize);
        let a = pool[i % pool.len()].clone();
        let b = pool[j % pool.len()].clone();
        let out = match op % 12 {
            0 => a.add(&b),
            1 => a.sub(&b),
            2 => a.mul(&b),
            3 => a.matmul(&b),
            4 => a.transpose(),
            5 => a.relu(),
            6 => a.tanh(),
            7 => a.sigmoid(),
            8 => a.mul_scalar(0.5).add(&b.mul_scalar(1.5)),
            9 => a.softmax_rows(),
            10 => a.add_scalar(0.25).square(),
            11 => a.neg().elu(),
            _ => unreachable!(),
        };
        pool.push(out);
    }
    pool.last().unwrap().square().mean_all()
}

/// Traces `build` eagerly, compiles the tape, then checks replay on fresh
/// inputs against a fresh eager trace — values and param grads bitwise.
fn check_replay_matches_eager(
    n: usize,
    num_inputs: usize,
    params: &[Rc<Param>],
    pset: &ParamSet,
    choices: &[u32],
    rng: &mut StdRng,
) {
    // Trace once to get the tape.
    let trace_inputs: Vec<Tensor> = (0..num_inputs).map(|_| random_tensor(rng, n, n)).collect();
    let g = Graph::new();
    let leaves: Vec<Var> = trace_inputs.iter().map(|t| g.leaf(t.clone())).collect();
    let pvars: Vec<Var> = params.iter().map(|p| g.param(p)).collect();
    let root = build_expr(&g, &leaves, &pvars, choices);
    let snapshot = g.snapshot();

    let spec = PlanSpec {
        bindings: leaves
            .iter()
            .enumerate()
            .map(|(i, v)| (v.id(), LeafBinding::Input(i)))
            .collect(),
        roots: vec![root.id()],
        loss: Some(root.id()),
    };
    let plan = Plan::compile(&snapshot, pset, spec).unwrap();
    let mut exec = plan.executor();

    // Replay several times on fresh inputs; each replay must match a fresh
    // eager trace bit-for-bit.
    for step in 0..3 {
        let inputs: Vec<Tensor> = (0..num_inputs).map(|_| random_tensor(rng, n, n)).collect();

        pset.zero_grads();
        let ge = Graph::new();
        let eleaves: Vec<Var> = inputs.iter().map(|t| ge.leaf(t.clone())).collect();
        let epvars: Vec<Var> = params.iter().map(|p| ge.param(p)).collect();
        let eroot = build_expr(&ge, &eleaves, &epvars, choices);
        eroot.backward();
        let eager_value = eroot.value();
        let eager_grads: Vec<Tensor> = params.iter().map(|p| p.grad()).collect();

        pset.zero_grads();
        let loss = plan.step(&mut exec, &inputs, 1.0).unwrap();
        assert_eq!(
            loss.to_bits(),
            eager_value.scalar().to_bits(),
            "step {step}: loss differs"
        );
        let root_value = plan.outputs(&exec).pop().unwrap();
        assert_bits_eq(&root_value, &eager_value, "root value");
        for (p, eg) in params.iter().zip(&eager_grads) {
            p.with_grad(|pg| assert_bits_eq(pg, eg, &format!("grad of {}", p.name())));
        }
    }
}

#[test]
fn randomized_tapes_replay_bit_identical_to_eager() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for case in 0..12 {
        let n = 1 + (case % 5);
        let mut pset = ParamSet::new();
        let pa = pset.add("w_a", random_tensor(&mut rng, n, n));
        let pb = pset.add("w_b", random_tensor(&mut rng, n, n));
        let choices: Vec<u32> = (0..24).map(|_| rng.gen::<u32>()).collect();
        check_replay_matches_eager(n, 2, &[pa, pb], &pset, &choices, &mut rng);
    }
}

#[test]
fn dropout_replay_consumes_rng_stream_like_eager() {
    let n = 6;
    let mut setup = StdRng::seed_from_u64(41);
    let mut pset = ParamSet::new();
    let w = pset.add("w", random_tensor(&mut setup, n, n));
    let trace_input = random_tensor(&mut setup, n, n);

    let build = |_g: &Graph, x: &Var, wv: &Var, rng: &mut StdRng| -> Var {
        x.matmul(wv)
            .relu()
            .dropout(0.3, rng)
            .matmul(wv)
            .dropout(0.3, rng)
            .square()
            .mean_all()
    };

    let mut trace_rng = StdRng::seed_from_u64(7);
    let g = Graph::new();
    let xl = g.leaf(trace_input.clone());
    let wv = g.param(&w);
    let root = build(&g, &xl, &wv, &mut trace_rng);
    let plan = Plan::compile(
        &g.snapshot(),
        &pset,
        PlanSpec {
            bindings: vec![(xl.id(), LeafBinding::Input(0))],
            roots: vec![root.id()],
            loss: Some(root.id()),
        },
    )
    .unwrap();
    assert!(plan.needs_rng());
    let mut exec = plan.executor();

    // Dropout tapes must refuse the RNG-less entry point.
    assert!(plan
        .forward(&mut exec, std::slice::from_ref(&trace_input))
        .is_err());

    let input = random_tensor(&mut setup, n, n);

    // Eager reference: fresh trace drawing masks from a seeded stream.
    pset.zero_grads();
    let mut rng_e = StdRng::seed_from_u64(99);
    let ge = Graph::new();
    let xe = ge.leaf(input.clone());
    let we = ge.param(&w);
    let eroot = build(&ge, &xe, &we, &mut rng_e);
    eroot.backward();
    let eager_value = eroot.value();
    let eager_grad = w.grad();

    // Plan replay from an identically-seeded stream: identical masks in
    // node order, hence identical bytes everywhere.
    pset.zero_grads();
    let mut rng_p = StdRng::seed_from_u64(99);
    plan.step_with_rng(&mut exec, &[input], 1.0, &mut rng_p)
        .unwrap();
    assert_bits_eq(
        &plan.outputs(&exec).pop().unwrap(),
        &eager_value,
        "dropout root",
    );
    w.with_grad(|pg| assert_bits_eq(pg, &eager_grad, "dropout grad"));
}

#[test]
fn structured_ops_replay_bit_identical() {
    // rows_max_pool (constant mask) + concat_cols + broadcasts — the ops
    // whose backward routes gradients through recorded structure.
    let mut rng = StdRng::seed_from_u64(17);
    let (r, c) = (8, 5);
    let mut pset = ParamSet::new();
    let w = pset.add("w", random_tensor(&mut rng, c, c));
    // Output rows pool input rows {0,3,5}, {1,2} and {4,6,7}.
    let mut mask = Tensor::zeros(Shape::matrix(3, r));
    for (i, group) in [&[0, 3, 5][..], &[1, 2], &[4, 6, 7]].iter().enumerate() {
        for &j in *group {
            mask.data_mut()[i * r + j] = 1.0;
        }
    }

    let build = |g: &Graph, x: &Var, col: &Var, wv: &Var| -> Var {
        let h = x.matmul(wv).relu();
        let pooled = h.rows_max_pool(&g.leaf(mask.clone()));
        let both = g.concat_cols(&[&pooled, &pooled.neg()]);
        both.mul_col_broadcast(col).square().mean_all()
    };

    let trace_x = random_tensor(&mut rng, r, c);
    let trace_col = random_tensor(&mut rng, 3, 1);
    let g = Graph::new();
    let xl = g.leaf(trace_x.clone());
    let cl = g.leaf(trace_col.clone());
    let wv = g.param(&w);
    let root = build(&g, &xl, &cl, &wv);
    let plan = Plan::compile(
        &g.snapshot(),
        &pset,
        PlanSpec {
            bindings: vec![
                (xl.id(), LeafBinding::Input(0)),
                (cl.id(), LeafBinding::Input(1)),
            ],
            roots: vec![root.id()],
            loss: Some(root.id()),
        },
    )
    .unwrap();
    let mut exec = plan.executor();

    for _ in 0..3 {
        let x = random_tensor(&mut rng, r, c);
        let col = random_tensor(&mut rng, 3, 1);

        pset.zero_grads();
        let ge = Graph::new();
        let xe = ge.leaf(x.clone());
        let ce = ge.leaf(col.clone());
        let we = ge.param(&w);
        let eroot = build(&ge, &xe, &ce, &we);
        eroot.backward();
        let eager_value = eroot.value();
        let eager_grad = w.grad();

        pset.zero_grads();
        plan.step(&mut exec, &[x, col], 1.0).unwrap();
        assert_bits_eq(
            &plan.outputs(&exec).pop().unwrap(),
            &eager_value,
            "structured root",
        );
        w.with_grad(|pg| assert_bits_eq(pg, &eager_grad, "structured grad"));
    }
}

#[test]
fn max_pool_replays_the_structure_each_input_derives() {
    // The pooling groups are data: a mask derived from an upstream
    // activation, as the FCG max aggregator pools over each slot's flow
    // graph. A plan traced on one input must pool over the mask each
    // replayed input derives, not over the traced one.
    let (n, c) = (6, 3);
    let mut rng = StdRng::seed_from_u64(31);
    let mut pset = ParamSet::new();
    let w = pset.add("w", random_tensor(&mut rng, c, c));

    // Row i pools itself and every row whose first feature has its sign.
    let mask_of = move |h: &Tensor| {
        let mut m = Tensor::zeros(Shape::matrix(n, n));
        for i in 0..n {
            for j in 0..n {
                if i == j || (h.get2(i, 0) > 0.0) == (h.get2(j, 0) > 0.0) {
                    m.data_mut()[i * n + j] = 1.0;
                }
            }
        }
        m
    };

    let build = |g: &Graph, x: &Tensor, wv: &Var| -> (Var, Var, Var) {
        let xl = g.leaf(x.clone());
        let h = xl.matmul(wv).tanh();
        let mask = g.leaf(mask_of(&h.value()));
        let root = h.rows_max_pool(&mask).square().mean_all();
        (xl, mask, root)
    };

    let trace_x = random_tensor(&mut rng, n, c);
    let g = Graph::new();
    let wv = g.param(&w);
    let (xl, mask, root) = build(&g, &trace_x, &wv);
    let traced_mask = mask.value();
    let h_id = mask.id() - 1; // tanh node traced immediately before the mask leaf
    let plan = Plan::compile(
        &g.snapshot(),
        &pset,
        PlanSpec {
            bindings: vec![
                (xl.id(), LeafBinding::Input(0)),
                (
                    mask.id(),
                    LeafBinding::derived(vec![h_id], move |values| Ok(mask_of(&values[h_id]))),
                ),
            ],
            roots: vec![root.id()],
            loss: Some(root.id()),
        },
    )
    .unwrap();
    let mut exec = plan.executor();

    for _ in 0..3 {
        let x = random_tensor(&mut rng, n, c);

        pset.zero_grads();
        let ge = Graph::new();
        let we = ge.param(&w);
        let (_, emask, eroot) = build(&ge, &x, &we);
        assert_ne!(
            emask.value().data(),
            traced_mask.data(),
            "the replayed input must derive a different mask"
        );
        eroot.backward();
        let eager_value = eroot.value();
        let eager_grad = w.grad();

        pset.zero_grads();
        plan.step(&mut exec, &[x], 1.0).unwrap();
        assert_bits_eq(
            &plan.outputs(&exec).pop().unwrap(),
            &eager_value,
            "max-pool root",
        );
        w.with_grad(|pg| assert_bits_eq(pg, &eager_grad, "max-pool grad"));
    }
}

#[test]
fn derived_leaves_recompute_from_upstream_values() {
    // A derived leaf mirrors eager's out-of-tape computation: here a mask
    // thresholded from an upstream activation, like the flow-conservation
    // gate the model computes from fused flow estimates.
    let n = 4;
    let mut rng = StdRng::seed_from_u64(23);
    let mut pset = ParamSet::new();
    let w = pset.add("w", random_tensor(&mut rng, n, n));

    let mask_of = |h: &Tensor| h.map(|v| if v > 0.5 { 1.0 } else { 0.0 });

    let build = |g: &Graph, x: &Tensor, wv: &Var| -> (Var, Var, Var) {
        let xl = g.leaf(x.clone());
        let h = xl.matmul(wv).sigmoid();
        let mask = g.leaf(mask_of(&h.value()));
        let root = h.mul(&mask).square().mean_all();
        (xl, mask, root)
    };

    let trace_x = random_tensor(&mut rng, n, n);
    let g = Graph::new();
    let wv = g.param(&w);
    let (xl, mask, root) = build(&g, &trace_x, &wv);
    let h_id = mask.id() - 1; // sigmoid node traced immediately before the mask leaf
    let plan = Plan::compile(
        &g.snapshot(),
        &pset,
        PlanSpec {
            bindings: vec![
                (xl.id(), LeafBinding::Input(0)),
                (
                    mask.id(),
                    LeafBinding::derived(vec![h_id], move |values| Ok(mask_of(&values[h_id]))),
                ),
            ],
            roots: vec![root.id()],
            loss: Some(root.id()),
        },
    )
    .unwrap();
    let mut exec = plan.executor();

    for _ in 0..3 {
        let x = random_tensor(&mut rng, n, n);

        pset.zero_grads();
        let ge = Graph::new();
        let we = ge.param(&w);
        let (_, _, eroot) = build(&ge, &x, &we);
        eroot.backward();
        let eager_value = eroot.value();
        let eager_grad = w.grad();

        pset.zero_grads();
        plan.step(&mut exec, &[x], 1.0).unwrap();
        assert_bits_eq(
            &plan.outputs(&exec).pop().unwrap(),
            &eager_value,
            "derived root",
        );
        w.with_grad(|pg| assert_bits_eq(pg, &eager_grad, "derived grad"));
    }
}

#[test]
fn backward_seed_scale_matches_eager_mul_scalar() {
    // Eager scales the loss by `s` before backward; the plan seeds the
    // un-scaled loss node with `s` directly. Same bytes either way.
    let n = 5;
    let mut rng = StdRng::seed_from_u64(29);
    let mut pset = ParamSet::new();
    let w = pset.add("w", random_tensor(&mut rng, n, n));
    let x = random_tensor(&mut rng, n, n);
    let scale = 0.037f32;

    pset.zero_grads();
    let ge = Graph::new();
    let xe = ge.leaf(x.clone());
    let sq = xe.matmul(&ge.param(&w)).square().sum_all();
    sq.mul_scalar(scale).backward();
    let eager_grad = w.grad();

    let g = Graph::new();
    let xl = g.leaf(x.clone());
    let root = xl.matmul(&g.param(&w)).square().sum_all();
    let plan = Plan::compile(
        &g.snapshot(),
        &pset,
        PlanSpec {
            bindings: vec![(xl.id(), LeafBinding::Input(0))],
            roots: vec![root.id()],
            loss: Some(root.id()),
        },
    )
    .unwrap();
    pset.zero_grads();
    let mut exec = plan.executor();
    plan.step(&mut exec, &[x], scale).unwrap();
    w.with_grad(|pg| assert_bits_eq(pg, &eager_grad, "seeded grad"));
}

#[test]
fn compile_rejects_malformed_specs() {
    let g = Graph::new();
    let mut pset = ParamSet::new();
    let w = pset.add("w", Tensor::ones(Shape::matrix(2, 2)));
    let x = g.leaf(Tensor::ones(Shape::matrix(2, 2)));
    let y = x.matmul(&g.param(&w)).sum_all();
    let snap = g.snapshot();

    // Binding a non-leaf node.
    let err = Plan::compile(
        &snap,
        &pset,
        PlanSpec {
            bindings: vec![(y.id(), LeafBinding::Input(0))],
            roots: vec![y.id()],
            loss: None,
        },
    );
    assert!(err.is_err());

    // Binding outside the tape.
    let err = Plan::compile(
        &snap,
        &pset,
        PlanSpec {
            bindings: vec![(snap.nodes.len() + 3, LeafBinding::Input(0))],
            roots: vec![],
            loss: None,
        },
    );
    assert!(err.is_err());

    // Root outside the tape.
    let err = Plan::compile(
        &snap,
        &pset,
        PlanSpec {
            bindings: vec![],
            roots: vec![snap.nodes.len()],
            loss: None,
        },
    );
    assert!(err.is_err());

    // Param missing from the set.
    let empty = ParamSet::new();
    let err = Plan::compile(&snap, &empty, PlanSpec::default());
    assert!(err.is_err());

    // Input count mismatch at replay time.
    let plan = Plan::compile(
        &snap,
        &pset,
        PlanSpec {
            bindings: vec![(x.id(), LeafBinding::Input(0))],
            roots: vec![y.id()],
            loss: Some(y.id()),
        },
    )
    .unwrap();
    let mut exec = plan.executor();
    assert!(plan.forward(&mut exec, &[]).is_err());
    // Shape mismatch on a bound input.
    assert!(plan
        .forward(&mut exec, &[Tensor::ones(Shape::matrix(3, 3))])
        .is_err());
}
