//! Output checks for executed jobs, written with plain loops over the
//! generated data so that they share no kernel with the code under test
//! (no `reml_matrix` arithmetic).

use reml_matrix::{DenseMatrix, Matrix};
use reml_scripts::Dataset;

/// Largest allowed deviation of a regression coefficient from the
/// generator's ground truth.
pub const COEF_TOL: f64 = 0.05;
/// Smallest accepted L2SVM training accuracy.
pub const MIN_SVM_ACCURACY: f64 = 0.9;

/// What a script's model must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum ModelCheck {
    /// Every coefficient within [`COEF_TOL`] of `Dataset::truth`.
    Coefficients,
    /// Training accuracy above [`MIN_SVM_ACCURACY`].
    Accuracy,
    /// Finite model with a regularized multinomial negative
    /// log-likelihood below the zero model's.
    Multinomial { reg: f64 },
    /// Finite model with a Poisson deviance below the zero model's.
    Poisson,
}

fn dense(m: &Matrix) -> DenseMatrix {
    match m {
        Matrix::Dense(d) => d.clone(),
        other => other.to_dense(),
    }
}

/// Row-major `X %*% B` with plain loops.
fn linear_predictor(x: &DenseMatrix, b: &DenseMatrix) -> Vec<f64> {
    let (n, m, k) = (x.rows(), x.cols(), b.cols());
    let (xd, bd) = (x.data(), b.data());
    let mut eta = vec![0.0; n * k];
    for i in 0..n {
        let row = &xd[i * m..(i + 1) * m];
        let out = &mut eta[i * k..(i + 1) * k];
        for (j, &xij) in row.iter().enumerate() {
            let brow = &bd[j * k..(j + 1) * k];
            for c in 0..k {
                out[c] += xij * brow[c];
            }
        }
    }
    eta
}

fn multinomial_objective(eta: &[f64], k: usize, y: &[f64], b: &[f64], reg: f64) -> f64 {
    let mut nll = 0.0;
    for (i, &label) in y.iter().enumerate() {
        let row = &eta[i * k..(i + 1) * k];
        // log(1 + sum_j exp(eta_j)) evaluated stably: the script's
        // softmax carries an implicit reference logit of 0.
        let top = row.iter().fold(0.0f64, |a, &v| a.max(v));
        let lse = top + ((-top).exp() + row.iter().map(|&v| (v - top).exp()).sum::<f64>()).ln();
        let class = label as usize;
        let own = if (1..=k).contains(&class) {
            row[class - 1]
        } else {
            0.0
        };
        nll += lse - own;
    }
    nll + 0.5 * reg * b.iter().map(|v| v * v).sum::<f64>()
}

fn poisson_deviance(eta: &[f64], y: &[f64]) -> f64 {
    let mut dev = 0.0;
    for (&e, &yi) in eta.iter().zip(y) {
        let mu = e.exp();
        let term = if yi > 0.0 { yi * (yi / mu).ln() } else { 0.0 };
        dev += term - (yi - mu);
    }
    2.0 * dev
}

/// Check one job's model against its dataset. `Err` names what failed.
pub fn check_model(kind: ModelCheck, data: &Dataset, model: &Matrix) -> Result<(), String> {
    let b = dense(model);
    if b.data().iter().any(|v| !v.is_finite()) {
        return Err("model holds non-finite values".into());
    }
    let x = dense(&data.x);
    let y = dense(&data.y);
    let y = y.data();
    if b.rows() != x.cols() {
        return Err(format!(
            "model has {} rows, X has {} columns",
            b.rows(),
            x.cols()
        ));
    }
    match kind {
        ModelCheck::Coefficients => {
            let truth = data.truth.as_ref().ok_or("dataset has no ground truth")?;
            let worst = b
                .data()
                .iter()
                .zip(truth.data())
                .map(|(m, t)| (m - t).abs())
                .fold(0.0f64, f64::max);
            if worst <= COEF_TOL {
                Ok(())
            } else {
                Err(format!("coefficient off by {worst:.4} (> {COEF_TOL})"))
            }
        }
        ModelCheck::Accuracy => {
            let eta = linear_predictor(&x, &b);
            let hits = eta
                .iter()
                .zip(y)
                .filter(|(&s, &label)| (if s >= 0.0 { 1.0 } else { -1.0 }) == label)
                .count();
            let acc = hits as f64 / y.len().max(1) as f64;
            if acc > MIN_SVM_ACCURACY {
                Ok(())
            } else {
                Err(format!(
                    "training accuracy {acc:.3} (<= {MIN_SVM_ACCURACY})"
                ))
            }
        }
        ModelCheck::Multinomial { reg } => {
            let k = b.cols();
            let eta = linear_predictor(&x, &b);
            let obj = multinomial_objective(&eta, k, y, b.data(), reg);
            let zero = y.len() as f64 * (1.0 + k as f64).ln();
            if obj.is_finite() && obj < zero {
                Ok(())
            } else {
                Err(format!(
                    "objective {obj:.4} not below zero model's {zero:.4}"
                ))
            }
        }
        ModelCheck::Poisson => {
            let eta = linear_predictor(&x, &b);
            let dev = poisson_deviance(&eta, y);
            let zero = poisson_deviance(&vec![0.0; y.len()], y);
            if dev.is_finite() && dev < zero {
                Ok(())
            } else {
                Err(format!(
                    "deviance {dev:.4} not below zero model's {zero:.4}"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reml_scripts::data::{generate_dataset, LabelKind};

    #[test]
    fn ground_truth_passes_and_zero_model_fails() {
        let d = generate_dataset(300, 6, 1.0, LabelKind::Regression, 5);
        let truth = Matrix::Dense(d.truth.clone().unwrap());
        assert!(check_model(ModelCheck::Coefficients, &d, &truth).is_ok());
        let zero = Matrix::Dense(DenseMatrix::zeros(6, 1));
        assert!(check_model(ModelCheck::Coefficients, &d, &zero).is_err());
    }

    #[test]
    fn svm_accuracy_of_separator() {
        let d = generate_dataset(300, 6, 1.0, LabelKind::BinaryPm1, 5);
        let truth = reml_matrix::generate::rand_dense(6, 1, -1.0, 1.0, 6);
        assert!(check_model(ModelCheck::Accuracy, &d, &Matrix::Dense(truth.clone())).is_ok());
        let flipped = Matrix::Dense(
            DenseMatrix::from_vec(6, 1, truth.data().iter().map(|v| -v).collect()).unwrap(),
        );
        assert!(check_model(ModelCheck::Accuracy, &d, &flipped).is_err());
    }

    #[test]
    fn objectives_reject_zero_and_non_finite_models() {
        let d = generate_dataset(200, 4, 1.0, LabelKind::Counts, 3);
        let zero = Matrix::Dense(DenseMatrix::zeros(4, 1));
        assert!(check_model(ModelCheck::Poisson, &d, &zero).is_err());
        let nan = Matrix::Dense(DenseMatrix::filled(4, 1, f64::NAN));
        assert!(check_model(ModelCheck::Poisson, &d, &nan).is_err());
        let c = generate_dataset(200, 4, 1.0, LabelKind::Classes(3), 3);
        let zero = Matrix::Dense(DenseMatrix::zeros(4, 3));
        assert!(check_model(ModelCheck::Multinomial { reg: 0.01 }, &c, &zero).is_err());
    }
}
