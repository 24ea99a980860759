//! An unparsable `EXA_TUNE_*` override fails loudly instead of falling
//! back to the table or the frozen constant. The only test in its
//! binary: it sets the process environment, which the resolver reads
//! first.

#[test]
fn unparsable_override_names_the_variable() {
    std::env::set_var("EXA_TUNE_FFT_OVERLAP_K", "eight");
    let err = std::panic::catch_unwind(|| exa_tune::knob("fft.overlap_k", 4))
        .expect_err("a non-integer override must not resolve");
    let msg = err
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    assert!(
        msg.contains("EXA_TUNE_FFT_OVERLAP_K") && msg.contains("eight"),
        "message must name the variable and the value: {msg}"
    );
}
