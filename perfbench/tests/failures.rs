//! A wrong output must count as a failure, never as a slow success.

use seculator_perfbench::serve::{run_epoch, score, Pool, ServeSpec};
use seculator_perfbench::trace::Tracer;
use seculator_perfbench::zoo::{run_pass, Expected, Zoo, EXPECTED_TSV};

fn short_pair() -> ServeSpec {
    ServeSpec {
        epoch_requests: 24,
        setup_reps: 1,
        pool_per_model: 4,
        ..ServeSpec::pair()
    }
}

#[test]
fn a_tampered_tenant_lowers_ok_ratio() {
    let spec = short_pair();
    let pool = Pool::build(&spec, 5);
    let mut tr = Tracer::new(false);

    let clean = run_epoch(&pool, &spec, 5, 0, spec.epoch_requests, &mut tr, None).unwrap();
    let clean = score(&[&clean]);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);
    assert!((clean.ok_ratio() - 1.0).abs() < f64::EPSILON);

    let planted = run_epoch(&pool, &spec, 5, 0, spec.epoch_requests, &mut tr, Some(1)).unwrap();
    let latencies = planted.timed.latency_ms.len() as u64;
    let r = score(&[&planted]);
    assert_eq!(
        r.failed, 1,
        "exactly the tampered request fails: {:?}",
        r.notes
    );
    assert!(r.ok_ratio() < 1.0);
    assert!(!r.correct());
    assert_eq!(
        latencies,
        planted.timed.submitted - 1,
        "the tampered request has no latency sample"
    );
    assert!(
        r.notes.iter().any(|n| n.contains("breach")),
        "the daemon reported a breach: {:?}",
        r.notes
    );
}

#[test]
fn a_perturbed_expectation_lowers_ok_ratio() {
    let zoo = Zoo::set_up(
        || vec![seculator_models::zoo::resnet18()],
        &mut Tracer::new(false),
    );
    let mut tr = Tracer::new(false);
    let mut expected = Expected::parse(EXPECTED_TSV);
    let ops = run_pass(&zoo, &expected, 3, 0, &mut tr);
    assert_eq!(ops.len(), 5);
    assert!(
        ops.iter().all(|o| o.ok),
        "committed statistics match the model"
    );

    expected.perturb("ResNet", "seculator");
    let ops = run_pass(&zoo, &expected, 3, 0, &mut tr);
    let failed: Vec<_> = ops.iter().filter(|o| !o.ok).collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].design, 4);
}
