//! The synthetic workloads check their own outputs: a wrong value must
//! surface as a failure, never as a fast result.

use tmi_perfbench::synth::{cell_specs, synth_pass, timer_overhead_ns, SynthKind};

#[test]
fn an_injected_wrong_value_is_counted_as_failed() {
    for kind in [SynthKind::Private, SynthKind::Contended] {
        let mut specs = cell_specs(kind, 11, 3, 3_000);
        for s in &mut specs {
            s.working_set = [4096; 4];
        }
        let clean = synth_pass(&specs, 2, None, timer_overhead_ns());
        assert!(clean.failures.is_empty(), "{kind:?}: {:?}", clean.failures);

        specs[1].corrupt_shadow = true;
        let pass = synth_pass(&specs, 2, None, timer_overhead_ns());
        let failed_frac = pass.failures.len() as f64 / pass.attempted as f64;
        assert!(failed_frac > 0.0, "{kind:?}");
        assert_eq!(pass.failures.len(), 1, "{:?}", pass.failures);
        assert!(
            pass.failures[0].starts_with("cell 1:"),
            "{:?}",
            pass.failures
        );
    }
}
