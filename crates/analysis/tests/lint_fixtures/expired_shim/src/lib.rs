//! Known-bad fixture (the package is v0.3.0): a shim whose milestone has
//! passed, one with no milestone, and one "since" a version not reached.

#[deprecated(since = "0.1.0", note = "use new_api; remove: v0.3")]
pub fn old_api() {}

#[deprecated(since = "0.2.0", note = "use new_api")]
pub fn undated_shim() {}

#[deprecated(since = "0.2.0", note = "use new_api; remove: v0.9")]
pub fn still_in_cycle() {}

#[deprecated(since = "0.4.0", note = "use new_api; remove: v0.9")]
pub fn shim_from_the_future() {}

pub fn new_api() {}
