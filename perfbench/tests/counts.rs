//! Every per-layer count repeats exactly for one seed: the serve loop is
//! round-driven and the simulator deterministic.

use seculator_perfbench::serve::{run_epoch, Pool, ServeSpec};
use seculator_perfbench::trace::Tracer;
use seculator_perfbench::zoo::{run_pass, Expected, Zoo, EXPECTED_TSV};

fn shortened(spec: ServeSpec) -> ServeSpec {
    ServeSpec {
        epoch_requests: 48,
        setup_reps: 1,
        pool_per_model: 4,
        ..spec
    }
}

// One test, so no other test's daemon moves the process-wide telemetry
// counters between the two runs.
#[test]
fn serve_counts_repeat_for_one_seed() {
    for spec in [shortened(ServeSpec::fleet()), shortened(ServeSpec::pair())] {
        let counts: Vec<_> = (0..2)
            .map(|_| {
                let pool = Pool::build(&spec, 9);
                let mut tr = Tracer::new(true);
                let e = run_epoch(&pool, &spec, 9, 0, spec.epoch_requests, &mut tr, None).unwrap();
                assert_eq!(e.timed.failed, 0, "{:?}", e.timed.failures);
                e.counts
            })
            .collect();
        assert_eq!(counts[0], counts[1], "{}", spec.name);
        let c = &counts[0];
        assert_eq!(c.requests, spec.epoch_requests);
        assert_eq!(c.per_tenant.iter().sum::<u64>(), spec.epoch_requests);
        assert!(c.frames > 2 * c.requests && c.ticks > 0 && c.pads > 0);
        assert!(c
            .counters
            .iter()
            .any(|(n, v)| *n == "seal_blocks" && *v > 0));
    }
}

#[test]
fn simulated_statistics_repeat_for_one_seed() {
    let zoo = Zoo::set_up(
        || vec![seculator_models::zoo::alexnet()],
        &mut Tracer::new(false),
    );
    let expected = Expected::parse(EXPECTED_TSV);
    let mut tr = Tracer::new(false);
    let a = run_pass(&zoo, &expected, 4, 2, &mut tr);
    let b = run_pass(&zoo, &expected, 4, 2, &mut tr);
    let key = |ops: &[seculator_perfbench::zoo::Op]| {
        ops.iter()
            .map(|o| (o.net, o.design, o.cycles, o.dram_bytes, o.ok))
            .collect::<Vec<_>>()
    };
    assert_eq!(key(&a), key(&b));
    assert!(a.iter().all(|o| o.ok));
}
