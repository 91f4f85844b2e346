// Fixture: unreached-pub, clean. Every public item is reached by code
// outside the tests, so the rule stays silent.

pub trait Shape {
    fn area(&self) -> f64;
}

pub struct Square(pub f64);

impl Shape for Square {
    fn area(&self) -> f64 {
        self.0 * self.0
    }
}

pub const SIDE: f64 = 2.0;

pub type Area = f64;

pub fn total(shapes: &[Square]) -> Area {
    shapes.iter().map(Shape::area).sum()
}

fn main() {
    let _ = total(&[Square(SIDE)]);
}
