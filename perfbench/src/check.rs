//! Correctness checks, run outside every timed region.

/// Largest relative error the exact paths may show against a reference.
pub const REL_TOL: f64 = 1e-9;

/// Compares `got` against `want` at [`REL_TOL`], relative to `1 + max|want|`
/// (the scale the repository's own cross-checks use). Returns a description
/// of the first mismatch.
pub fn scores_match(got: &[f64], want: &[f64]) -> Result<(), String> {
    scores_match_at(got, want, want.iter().fold(0.0f64, |m, x| m.max(x.abs())))
}

/// [`scores_match`] for a sample of a score vector whose largest magnitude
/// is `max_abs`.
pub fn scores_match_at(got: &[f64], want: &[f64], max_abs: f64) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != reference length {}", got.len(), want.len()));
    }
    let scale = 1.0 + max_abs;
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        let close = (g - w).abs() <= REL_TOL * scale;
        if !close {
            return Err(format!("vertex {v}: {g} != reference {w} (scale {scale})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_scores_pass() {
        let want = vec![0.0, 12.5, 3.0e6, 7.0];
        assert!(scores_match(&want, &want).is_ok());
    }

    #[test]
    fn perturbed_scores_fail() {
        let want = vec![0.0, 12.5, 3.0e6, 7.0];
        let mut got = want.clone();
        got[1] += 1e-2;
        assert!(scores_match(&got, &want).is_err());
        got[1] = f64::NAN;
        assert!(scores_match(&got, &want).is_err());
        assert!(scores_match(&want[..3], &want).is_err());
    }
}
