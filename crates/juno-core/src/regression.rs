//! Least-squares polynomial regression.
//!
//! The paper trains "a simple polynomial regression model" offline that maps
//! the region density of a query projection to the distance threshold needed
//! to contain the top-100 search points (Section 4.1). This module implements
//! ordinary least squares over a polynomial basis via the normal equations,
//! solved with Gaussian elimination with partial pivoting — no linear-algebra
//! dependency required for a degree-2/3 fit on a few hundred samples.
//!
//! Densities span several orders of magnitude (Fig. 7(a) uses a log-scaled x
//! axis), so the regressor is typically fitted on `ln(1 + density)`; that
//! transformation is the caller's choice and [`crate::threshold`] applies it.

use juno_common::error::{Error, Result};

/// A fitted polynomial `y = c0 + c1·x + c2·x² + ...`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PolynomialRegression {
    coefficients: Vec<f64>,
}

impl PolynomialRegression {
    /// Fits a polynomial of the given degree to `(x, y)` samples by ordinary
    /// least squares.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyInput`] when no samples are provided,
    /// [`Error::InvalidConfig`] when the sample count is insufficient for the
    /// degree, and [`Error::Numeric`] when the normal equations are singular.
    pub(crate) fn fit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Self> {
        if xs.is_empty() {
            return Err(Error::empty_input("regression requires samples"));
        }
        if xs.len() != ys.len() {
            return Err(Error::invalid_config(format!(
                "x and y sample counts differ: {} vs {}",
                xs.len(),
                ys.len()
            )));
        }
        let terms = degree + 1;
        if xs.len() < terms {
            return Err(Error::invalid_config(format!(
                "degree-{degree} fit requires at least {terms} samples, got {}",
                xs.len()
            )));
        }
        // Normal equations: (XᵀX) c = Xᵀy with X the Vandermonde matrix.
        let mut xtx = vec![0.0f64; terms * terms];
        let mut xty = vec![0.0f64; terms];
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            let mut powers = vec![1.0f64; terms];
            for p in 1..terms {
                powers[p] = powers[p - 1] * x;
            }
            for i in 0..terms {
                xty[i] += powers[i] * y;
                for j in 0..terms {
                    xtx[i * terms + j] += powers[i] * powers[j];
                }
            }
        }
        let coefficients = solve_linear_system(&mut xtx, &mut xty, terms)?;
        Ok(Self { coefficients })
    }

    /// Rebuilds a fitted polynomial from persisted coefficients (lowest
    /// degree first).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupted`] when no coefficients are given or any is
    /// non-finite.
    pub(crate) fn from_coefficients(coefficients: Vec<f64>) -> Result<Self> {
        if coefficients.is_empty() {
            return Err(Error::corrupted("regression: no coefficients"));
        }
        if coefficients.iter().any(|c| !c.is_finite()) {
            return Err(Error::corrupted("regression: non-finite coefficient"));
        }
        Ok(Self { coefficients })
    }

    /// The fitted coefficients, lowest degree first.
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Evaluates the polynomial at `x`.
    pub(crate) fn predict(&self, x: f64) -> f64 {
        // Horner's rule.
        self.coefficients
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * x + c)
    }
}

/// Solves `A x = b` for a small dense system using Gaussian elimination with
/// partial pivoting. `a` is row-major `n × n` and is destroyed.
fn solve_linear_system(a: &mut [f64], b: &mut [f64], n: usize) -> Result<Vec<f64>> {
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * n + col].abs() < 1e-12 {
            return Err(Error::numeric(
                "singular normal equations in polynomial fit",
            ));
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
            }
            b.swap(col, pivot);
        }
        // Eliminate below.
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use juno_common::rng::{normal, seeded};

    /// Root-mean-square error of the fit's predictions over samples.
    fn rmse(fit: &PolynomialRegression, xs: &[f64], ys: &[f64]) -> f64 {
        let sse: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| (fit.predict(x) - y).powi(2))
            .sum();
        (sse / xs.len() as f64).sqrt()
    }

    #[test]
    fn recovers_exact_quadratic() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 - 3.0 * x + 0.5 * x * x).collect();
        let fit = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        let c = fit.coefficients();
        assert!((c[0] - 2.0).abs() < 1e-6);
        assert!((c[1] + 3.0).abs() < 1e-6);
        assert!((c[2] - 0.5).abs() < 1e-6);
        assert!(rmse(&fit, &xs, &ys) < 1e-6);
    }

    #[test]
    fn fits_noisy_decreasing_relationship() {
        // Mimic Fig. 7(a): threshold decreases with log-density, with noise.
        let mut rng = seeded(11);
        let xs: Vec<f64> = (0..300).map(|i| i as f64 * 0.05).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 150.0 - 9.0 * x + normal(&mut rng, 0.0, 2.0) as f64)
            .collect();
        let fit = PolynomialRegression::fit(&xs, &ys, 2).unwrap();
        // Predictions must be decreasing over the sampled range.
        assert!(fit.predict(1.0) > fit.predict(10.0));
        assert!(rmse(&fit, &xs, &ys) < 4.0);
    }

    #[test]
    fn degree_zero_fits_the_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 12.0, 8.0, 10.0];
        let fit = PolynomialRegression::fit(&xs, &ys, 0).unwrap();
        assert!((fit.predict(100.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_rejected() {
        assert!(PolynomialRegression::fit(&[], &[], 1).is_err());
        assert!(PolynomialRegression::fit(&[1.0], &[1.0, 2.0], 1).is_err());
        assert!(PolynomialRegression::fit(&[1.0, 2.0], &[1.0, 2.0], 3).is_err());
        // Singular system: all x identical with degree >= 1.
        assert!(PolynomialRegression::fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0], 1).is_err());
    }
}
