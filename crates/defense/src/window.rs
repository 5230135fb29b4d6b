//! One sort per window audit: the grouping the IDS and the rate shield
//! share.
//!
//! Each in-window access-log entry gets the key `group << 32 | ordinal`,
//! where `group` is a 32-bit grouping value (an IP, or a session's low
//! bits) and the ordinal is the entry's position in the window. The keys
//! are unique, so sorting them is deterministic and leaves each group's
//! entries next to each other in log order — chronological, even across
//! equal timestamps. That is O(m log m) for the m in-window entries, with
//! no per-group map.

use microsim::{AccessLog, AccessLogEntry};
use simnet::SimTime;

/// Visits the entries submitted in `[from, to)` in log order and returns
/// their keys, sorted; `visit` returns each entry's group.
///
/// # Panics
///
/// Panics if the window holds more than `u32::MAX` entries.
pub(crate) fn sorted_keys(
    log: &AccessLog,
    from: SimTime,
    to: SimTime,
    mut visit: impl FnMut(&AccessLogEntry) -> u32,
) -> Vec<u64> {
    let m = log.count_in(from, to);
    assert!(m <= u32::MAX as usize, "window ordinals must fit in u32");
    let mut keys: Vec<u64> = Vec::with_capacity(m);
    log.for_each_in(from, to, |e| {
        keys.push(u64::from(visit(e)) << 32 | keys.len() as u64);
    });
    keys.sort_unstable();
    keys
}

/// The group a key was built from.
pub(crate) fn group(key: u64) -> u32 {
    (key >> 32) as u32
}

/// The window position of the entry a key was built from.
pub(crate) fn ordinal(key: u64) -> usize {
    key as u32 as usize
}
