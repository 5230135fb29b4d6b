//! Mini-workspace source that defines none of simlint's registered indexed
//! queries. The CLI and golden tests assert simlint reports each registered
//! entry as not found and exits nonzero.

pub fn deterministic_and_fine(x: u64) -> u64 {
    x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}
