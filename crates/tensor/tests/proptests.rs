//! Property tests of the tensor substrate, driven by the crate's own
//! seeded RNG instead of `proptest` so the whole suite is deterministic and
//! dependency-free: every case is a pure function of the loop index.

use dinar_tensor::{conv, Rng, Tensor};

const CASES: u64 = 48;

/// Per-case RNG: independent, reproducible stream per (property, case).
fn case_rng(property: u64, case: u64) -> Rng {
    Rng::seed_from(0xD1AA_0000 + property * 10_007 + case)
}

/// Samples a dimension in `1..=max`.
fn dim(rng: &mut Rng, max: usize) -> usize {
    1 + rng.below(max)
}

/// Reshape never changes the underlying data.
#[test]
fn reshape_preserves_data() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let (r, c) = (dim(&mut rng, 7), dim(&mut rng, 7));
        let t = Tensor::from_fn(&[r, c], |i| i as f32);
        let flat = t.reshape(&[r * c]).unwrap();
        assert_eq!(t.as_slice(), flat.as_slice());
        let back = flat.reshape(&[r, c]).unwrap();
        assert_eq!(back, t);
    }
}

/// matmul distributes over addition: A(B + C) = AB + AC.
#[test]
fn matmul_distributes() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let (m, k, n) = (dim(&mut rng, 4), dim(&mut rng, 4), dim(&mut rng, 4));
        let a = rng.randn(&[m, k]);
        let b = rng.randn(&[k, n]);
        let c = rng.randn(&[k, n]);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3), "case {case}");
    }
}

/// matmul_t and t_matmul agree with the explicit-transpose forms.
#[test]
fn fused_transpose_products_agree() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let (m, k, n) = (dim(&mut rng, 5), dim(&mut rng, 5), dim(&mut rng, 5));
        let a = rng.randn(&[m, k]);
        let b = rng.randn(&[n, k]);
        assert!(
            a.matmul_t(&b)
                .unwrap()
                .approx_eq(&a.matmul(&b.transpose().unwrap()).unwrap(), 1e-3),
            "case {case}"
        );
        let c = rng.randn(&[k, m]);
        let d = rng.randn(&[k, n]);
        assert!(
            c.t_matmul(&d)
                .unwrap()
                .approx_eq(&c.transpose().unwrap().matmul(&d).unwrap(), 1e-3),
            "case {case}"
        );
    }
}

/// The L2 norm satisfies the triangle inequality and scaling axiom.
#[test]
fn norm_axioms() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let len = dim(&mut rng, 63);
        let v: Vec<f32> = (0..len).map(|_| (rng.uniform() - 0.5) * 100.0).collect();
        let k = (rng.uniform() - 0.5) * 8.0;
        let a = Tensor::from_slice(&v);
        let b = a.mul_scalar(k);
        assert!(
            (b.norm_l2() - k.abs() * a.norm_l2()).abs() < 1e-2 * (1.0 + a.norm_l2()),
            "case {case}"
        );
        let sum = a.add(&b).unwrap();
        assert!(
            sum.norm_l2() <= a.norm_l2() + b.norm_l2() + 1e-3,
            "case {case}"
        );
    }
}

/// im2col/col2im stay adjoint for arbitrary geometries.
#[test]
fn conv_lowering_adjointness() {
    let mut checked = 0u32;
    for case in 0..CASES * 2 {
        let mut rng = case_rng(5, case);
        let geom = conv::Conv2dGeom {
            channels: dim(&mut rng, 2),
            height: 2 + dim(&mut rng, 5),
            width: 0, // patched below to stay square
            kernel_h: 0,
            kernel_w: 0,
            stride: dim(&mut rng, 2),
            padding: rng.below(2),
        };
        let k = dim(&mut rng, 3);
        let geom = conv::Conv2dGeom {
            width: geom.height,
            kernel_h: k,
            kernel_w: k,
            ..geom
        };
        if geom.output_size().is_err() {
            continue; // the analogue of prop_assume!
        }
        checked += 1;
        let (c, hw) = (geom.channels, geom.height);
        let x = rng.randn(&[1, c, hw, hw]);
        let cols = conv::im2col2d(&x, &geom).unwrap();
        let y = rng.randn(cols.shape());
        let lhs = cols.dot(&y).unwrap() as f64;
        let rhs = x.dot(&conv::col2im2d(&y, 1, &geom).unwrap()).unwrap() as f64;
        assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "case {case}");
    }
    assert!(checked >= CASES as u32 / 2, "too few valid geometries");
}

/// gather_rows then row-reads reconstruct any row permutation.
#[test]
fn gather_rows_is_faithful() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let (r, c) = (dim(&mut rng, 9), dim(&mut rng, 5));
        let t = rng.randn(&[r, c]);
        let perm = rng.permutation(r);
        let g = t.gather_rows(&perm).unwrap();
        for (new_row, &old_row) in perm.iter().enumerate() {
            let got = g.row(new_row).unwrap();
            let expected = t.row(old_row).unwrap();
            assert_eq!(got.as_slice(), expected.as_slice(), "case {case}");
        }
    }
}

/// Dirichlet draws are valid simplex points for any alpha.
#[test]
fn dirichlet_is_simplex() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let alpha = 0.05 + f64::from(rng.uniform()) * 49.95;
        let k = dim(&mut rng, 19);
        let p = rng.dirichlet(alpha, k);
        assert_eq!(p.len(), k);
        assert!(
            p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)),
            "case {case}"
        );
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "case {case}");
    }
}
