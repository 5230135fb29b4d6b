//! Mini-workspace source with one deliberate violation: an allow directive
//! naming a rule that is not in simlint's registry. The CLI and golden tests
//! assert simlint reports it as a `bad-allow` error and exits nonzero.

pub fn deterministic_and_fine(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

pub fn stale_directive() -> u64 {
    0 // simlint: allow(nondet-source)
}
