//! Crate-level smoke: the loopback daemon campaign passes and is
//! byte-identical run-over-run for one seed (the full eighth-datapath
//! oracle lives in the workspace `tests/conformance.rs`).

use seculator_campaigns::{run_daemon_campaign, Report};

#[test]
fn campaign_passes_and_is_deterministic() {
    let run = || run_daemon_campaign(0xD43A_2026, 4, None, 1);
    let a = run();
    assert!(a.passed(), "campaign failed:\n{}", a.summary());
    assert_eq!(a.pad_collisions, 0);
    assert_eq!(a.stats.auth_failures, 1, "exactly the bad-auth probe");
    // Clean tenants (3 of 4) each served one extra load request.
    assert_eq!(a.load_served, 3);

    let b = run();
    assert_eq!(a.summary(), b.summary(), "summary must be byte-identical");
}
