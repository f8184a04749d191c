//! Crate-level smoke: the loopback daemon campaign passes and is
//! byte-identical run-over-run for one seed (the full eighth-datapath
//! oracle lives in the workspace `tests/conformance.rs`).

use seculator_client::{run_daemon_campaign, DaemonCampaignConfig};

#[test]
fn campaign_passes_and_is_deterministic() {
    let cfg = DaemonCampaignConfig {
        seed: 0xD43A_2026,
        sessions: 4,
        home_root: None,
        load_requests: 1,
    };
    let a = run_daemon_campaign(&cfg);
    assert!(a.passed(), "campaign failed:\n{}", a.summary());
    assert_eq!(a.pad_collisions, 0);
    assert_eq!(a.stats.auth_failures, 1, "exactly the bad-auth probe");
    // Clean tenants (3 of 4) each served one extra load request.
    assert_eq!(a.load_served, 3);

    let b = run_daemon_campaign(&cfg);
    assert_eq!(a.summary(), b.summary(), "summary must be byte-identical");
}
