//! The unarmed fast path, in a test binary of its own: `armed()` reads a
//! process-wide count of armed guards, so any test that arms a guard on
//! another thread of the same binary would race this one.

use whynot_guard::{armed, checkpoint, consume_eval_rows, consume_trace_tuples, current, enforce};

#[test]
fn unarmed_checks_are_free_and_ok() {
    assert!(!armed());
    assert!(current().is_none());
    assert!(checkpoint().is_ok());
    assert!(consume_trace_tuples(1_000_000).is_ok());
    assert!(consume_eval_rows(1_000_000).is_ok());
    enforce();
}
