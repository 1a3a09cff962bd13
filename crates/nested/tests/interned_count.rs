//! The interner's size, in a test binary of its own: `Sym::interned_count`
//! is process-wide, so any test interning a new name on another thread of the
//! same binary would race the "re-interning does not grow it" check.

use nested_data::Sym;

#[test]
fn interned_count_grows_monotonically() {
    let before = Sym::interned_count();
    Sym::intern("sym-test-count-probe");
    let after = Sym::interned_count();
    assert!(after >= before);
    Sym::intern("sym-test-count-probe");
    assert_eq!(Sym::interned_count(), after);
}
