// Fixture: telemetry-clock. Bad, suppressed and clean sections.

// -- bad: wall-clock reads in library code ----------------------------------
use std::time::Instant;

pub fn bad_elapsed() -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_secs_f64()
}

pub fn bad_epoch() -> u64 {
    std::time::SystemTime::now().elapsed().unwrap_or_default().as_secs()
}

// -- suppressed: telemetry that never feeds observable output ---------------
pub fn timed_telemetry() -> f64 {
    let start = Instant::now(); // lint:allow(telemetry-clock): feeds StageStats telemetry only, never query output
    work();
    start.elapsed().as_secs_f64()
}

// -- clean: Duration values carry no ambient clock --------------------------
pub fn budget() -> std::time::Duration {
    std::time::Duration::from_micros(100)
}
