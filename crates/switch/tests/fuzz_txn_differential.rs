//! Differential fuzzing of the transaction lowering ("Testing
//! Compilers for Programmable Switches", PAPERS.md).
//!
//! Each case draws a seeded random `TxnProgram` plus a packet sequence,
//! compiles the program through the static verifier, and — when the
//! verifier accepts — runs every packet through both the lowered
//! stage-by-stage executor and the one-shot reference interpreter,
//! asserting identical emitted actions and identical final register
//! state. The lowered run also records its real access trace and
//! replays it through `check_discipline`, so the verifier's *static*
//! stage assignment is checked against the *runtime* ground truth on
//! every accepted program. Rejected programs must be rejected
//! deterministically, with the same error.
//!
//! The generator is the reproducer: a fuzzer finding is a seed plus its
//! expected verdict, pinned in `fixed_seed_sweep_covers_accept_and_reject`.
//!
//! Case count defaults to 256; set `TXN_FUZZ_CASES` to run more (the
//! acceptance sweep uses 10000).

use netlock_switch::analysis::layout::TofinoBudget;
use netlock_switch::analysis::trace::{check_discipline, new_sink};
use netlock_switch::txn::{gen, verify, LoweredTxn, TxnError, TxnInterpreter, VerifyError};
use proptest::prelude::*;

fn cases() -> u32 {
    std::env::var("TXN_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Run one differential case. Returns the verifier's rejection, if any.
fn differential(seed: u64) -> Result<(), TxnError> {
    let program = gen::program(seed);
    let budget = TofinoBudget::tofino_single_direction();
    let mut lowered = match LoweredTxn::compile(program.clone(), &budget) {
        Err(err) => {
            assert!(
                !matches!(err, TxnError::Discipline(_)),
                "seed {seed}: verifier accepted a stage assignment its own \
                 ground-truth check rejects: {err}"
            );
            let again = verify(program, &budget).expect_err("rejection must be deterministic");
            assert_eq!(err, again, "seed {seed}: unstable rejection");
            return Err(err);
        }
        Ok(lowered) => lowered,
    };

    let sink = new_sink();
    lowered.set_trace_sink(Some(sink.clone()));
    let mut interp = TxnInterpreter::new(&program);
    let packets = gen::packets(seed, program.num_fields, 16);
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for packet in &packets {
        got.clear();
        want.clear();
        lowered.run(packet, &mut got);
        interp.run(&program, packet, &mut want);
        assert_eq!(
            got, want,
            "seed {seed}: action divergence on packet {packet:?}\nprogram: {program:?}"
        );
    }
    assert_eq!(
        lowered.dump(),
        interp.dump(),
        "seed {seed}: register-state divergence\nprogram: {program:?}"
    );

    // Runtime ground truth: the trace the lowered execution actually
    // produced satisfies the hardware discipline the verifier promised.
    let records = sink.lock().unwrap().take();
    check_discipline(&records, program.max_recirculations)
        .unwrap_or_else(|v| panic!("seed {seed}: runtime trace violates discipline: {v}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The lowered executor and the reference interpreter agree on
    /// every accepted random program.
    #[test]
    fn lowered_executor_matches_interpreter(seed in any::<u64>()) {
        let _ = differential(seed);
    }
}

/// A fixed-seed sweep pinning the generator's accept/reject mix: most
/// programs must verify (the differential check actually exercises the
/// executor) while rejection paths stay represented. It also pins the
/// fuzzer's findings by seed: each keeps its verdict and rejection class.
#[test]
fn fixed_seed_sweep_covers_accept_and_reject() {
    let verdicts: Vec<Result<(), TxnError>> = (0..512).map(differential).collect();
    for seed in [5, 6, 7] {
        assert_eq!(verdicts[seed], Ok(()), "seed {seed} no longer verifies");
    }
    let rejection = |seed: usize| match &verdicts[seed] {
        Err(TxnError::Verify(err)) => *err,
        other => panic!("seed {seed}: expected a verifier rejection, got {other:?}"),
    };
    assert!(matches!(rejection(1), VerifyError::ReadAfterWrite { .. }));
    assert!(matches!(
        rejection(4),
        VerifyError::RecirculationBound { .. }
    ));
    assert!(matches!(rejection(32), VerifyError::StageConflict { .. }));

    let verified = verdicts.iter().filter(|v| v.is_ok()).count();
    let rejected = verdicts.len() - verified;
    assert!(
        verified >= 300,
        "only {verified}/512 generated programs verified; the differential \
         check is starving"
    );
    assert!(
        rejected >= 20,
        "only {rejected}/512 generated programs rejected; the verifier's \
         error paths are not being fuzzed"
    );
}

/// The NetLock grant-path program itself is differential-clean under
/// adversarial packet values (field 0 is only meaningfully 0/1, but the
/// transaction must not diverge even on garbage).
#[test]
fn netlock_grant_program_is_differential_clean() {
    for cap in [1u32, 2, 3, 7] {
        let program = netlock_switch::txn::netlock::fcfs_enqueue_program(cap);
        let budget = TofinoBudget::tofino_single_direction();
        let mut lowered = LoweredTxn::compile(program.clone(), &budget).unwrap();
        let mut interp = TxnInterpreter::new(&program);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for packet in gen::packets(u64::from(cap), program.num_fields, 64) {
            got.clear();
            want.clear();
            lowered.run(&packet, &mut got);
            interp.run(&program, &packet, &mut want);
            assert_eq!(got, want, "cap {cap}: divergence on packet {packet:?}");
        }
        assert_eq!(lowered.dump(), interp.dump(), "cap {cap}: state divergence");
    }
}
