//! fused-float: a fused multiply-add inside a bit-exact float module (the
//! strict fixture policy treats every path as one).

pub fn fused(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

pub fn fused_in_a_reduction(xs: &[f64], ys: &[f64]) -> f64 {
    xs.iter().zip(ys).fold(0.0, |acc, (x, y)| x.mul_add(*y, acc))
}

// The unfused spelling rounds the product, then the sum: never flagged.
pub fn unfused(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

// A free function that merely shares the name is not the f64 method.
pub fn mul_add(a: f64, b: f64, c: f64) -> f64 {
    a * b + c
}

pub fn justified(a: f64, b: f64, c: f64) -> f64 {
    // lint:allow(fused-float): telemetry-only estimate, never reaches a digest
    a.mul_add(b, c)
}

#[cfg(test)]
mod tests {
    // Test code may check against the fused form; the rule is masked here.
    #[test]
    fn fused_reference() {
        assert_eq!(2.0f64.mul_add(3.0, 1.0), 7.0);
    }
}
