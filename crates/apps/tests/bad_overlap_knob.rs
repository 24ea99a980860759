//! A zero `fft.overlap_k` fails loudly instead of being clamped to one
//! chunk. The only test in its binary: it sets the process environment,
//! which the knob resolver reads first.

use exa_apps::gests::Gests;

#[test]
fn frontier_target_rejects_a_zero_overlap_depth() {
    std::env::set_var("EXA_TUNE_FFT_OVERLAP_K", "0");
    let err = std::panic::catch_unwind(Gests::frontier_target)
        .expect_err("fft.overlap_k = 0 must not build the Frontier target");
    let msg = err
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    assert!(
        msg.contains("fft.overlap_k = 0"),
        "message must name the knob and the value: {msg}"
    );
}
