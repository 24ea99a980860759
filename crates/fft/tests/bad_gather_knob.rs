//! A bad `fft.gather` value fails loudly instead of falling back to the
//! frozen strategy. The only test in its binary: it sets the process
//! environment, which the knob resolver reads first.

use exa_fft::ExecutedFft3d;

#[test]
fn tuned_plan_rejects_an_unknown_gather_value() {
    std::env::set_var("EXA_TUNE_FFT_GATHER", "7");
    let err = std::panic::catch_unwind(|| ExecutedFft3d::tuned(8))
        .expect_err("fft.gather = 7 must not build a plan");
    let msg = err
        .downcast_ref::<String>()
        .expect("the panic carries a formatted message");
    assert!(
        msg.contains("fft.gather") && msg.contains('7'),
        "message must name the knob and the value: {msg}"
    );
}
