//! An `EXA_TUNED` path that does not exist fails loudly instead of
//! silently meaning the frozen constants. The only test in its binary:
//! it sets the process environment and the table loads once per process.

#[test]
fn missing_explicit_table_names_the_path() {
    let path = "no_such_dir/TUNED.json";
    std::env::set_var("EXA_TUNED", path);
    let err = std::panic::catch_unwind(exa_tune::tuned)
        .expect_err("a missing EXA_TUNED file must not load");
    let msg = err
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    assert!(msg.contains(path), "message must name the path: {msg}");
}
