//! The daemon campaign: the serve plan, served over the wire.
//!
//! [`run_daemon_campaign`] stands a `seculatord` engine up behind the
//! deterministic loopback, drives the exact tenant plan the serve
//! campaign derives from the same seed, and checks that every clean
//! tenant's wire-delivered output is bit-identical to its solo
//! reference and the plaintext reference, that the planted tampered
//! tenant aborts fail-closed as a breach, that a bad-auth probe is
//! rejected, that graceful drain refuses new work, and that the
//! daemon-lifetime pad ledger stays collision-free — all byte-identical
//! per seed.

use std::path::Path;
use std::time::Instant;

use crate::serve::serve_plan;
use crate::{verdict, Report, TenantTrial};
use seculator_client::{Client, ClientError};
use seculator_core::infer_plain;
use seculator_crypto::keys::DeviceSecret;
use seculator_wire::{Daemon, DaemonConfig, DaemonStats, LoopbackNet, RequestState};

/// Deterministic outcome of one daemon campaign.
#[derive(Debug)]
pub struct DaemonCampaignReport {
    /// Root seed.
    pub seed: u64,
    /// Tenant sessions driven.
    pub sessions: u32,
    /// Per-tenant verdicts, in tenant order.
    pub trials: Vec<TenantTrial>,
    /// Distinct pads across the daemon's lifetime.
    pub pads_issued: u64,
    /// Lifetime pad collisions (must be 0).
    pub pad_collisions: u64,
    /// Daemon wire counters at the end of the run.
    pub stats: DaemonStats,
    /// The wrong-key probe was rejected.
    pub auth_probe_rejected: bool,
    /// Drain acknowledged and post-drain submissions refused.
    pub drain_ok: bool,
    /// Requests completed by the load phase.
    pub load_served: u64,
    /// Client-observed load-phase latencies in nanoseconds, one per
    /// request (wall time — reported in BENCH JSON only, never in the
    /// deterministic summary).
    pub latencies_ns: Vec<u64>,
    /// Total wall nanoseconds of the load phase (BENCH JSON only).
    pub load_wall_ns: u64,
    /// The daemon's own deterministic summary.
    pub daemon_summary: String,
}

impl Report for DaemonCampaignReport {
    fn passed(&self) -> bool {
        self.trials.iter().all(|t| t.ok)
            && self.pad_collisions == 0
            && self.auth_probe_rejected
            && self.drain_ok
            && self.stats.auth_failures == 1
    }

    fn summary(&self) -> String {
        let mut out = format!(
            "daemon campaign seed={}: {} sessions over the loopback wire\n",
            self.seed, self.sessions
        );
        out.push_str(&format!(
            "bad-auth probe: {}\n",
            if self.auth_probe_rejected {
                "rejected"
            } else {
                "ACCEPTED (breach)"
            }
        ));
        for t in &self.trials {
            out.push_str(&format!("{t}\n"));
        }
        out.push_str(&format!(
            "load phase: {} requests served\n",
            self.load_served
        ));
        out.push_str(&format!(
            "drain: {}\n",
            if self.drain_ok {
                "flushed and refusing new work"
            } else {
                "FAILED"
            }
        ));
        out.push_str(&format!(
            "pads issued: {}; lifetime collisions: {}\n",
            self.pads_issued, self.pad_collisions
        ));
        out.push_str(&self.daemon_summary);
        out.push_str(&format!("verdict: {}", verdict(self.passed())));
        out
    }
}

/// Runs the deterministic loopback daemon campaign over the serve plan
/// of `seed` and `sessions ≥ 1`, with every admitted request's durable
/// home under `home_root` when one is given, then `load_requests` extra
/// closed-loop requests per clean tenant (0 skips the load phase). See
/// the module docs for the oracle set.
#[must_use]
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn run_daemon_campaign(
    seed: u64,
    sessions: u32,
    home_root: Option<&Path>,
    load_requests: u32,
) -> DaemonCampaignReport {
    let plan = serve_plan(seed, sessions);
    let fleet = &plan.fleet;
    let models = &fleet.models;

    let daemon_cfg = DaemonConfig {
        max_inflight: fleet.max_inflight,
        home_root: home_root.map(Path::to_path_buf),
        ..DaemonConfig::new(seed)
    };
    let net = LoopbackNet::new(&daemon_cfg, seed);

    // Plant the serve campaign's tampered tenant behind the wire.
    for p in &plan.tenants {
        if let Some(injector) = p.injector() {
            net.borrow_mut()
                .daemon_mut()
                .arm_injector(p.tenant, injector);
        }
    }

    let references = plan.references();

    // Bad-auth probe: a client holding the wrong key must be rejected
    // with a breach diagnostic and must not consume a session slot.
    let auth_probe_rejected = {
        let conn = LoopbackNet::connect(&net);
        let mut probe = Client::new(conn, 0);
        let wrong = DeviceSecret::from_seed(seed ^ 0xBAD_C0DE);
        matches!(
            probe.authenticate(&wrong, 0xBAD),
            Err(ClientError::AuthRejected(_))
        )
    };

    // Conformance phase: every tenant authenticates, then every
    // submission goes into flight *before* any acknowledgment is
    // awaited, so the seeded loopback interleaving decides the arrival
    // order at the daemon.
    let mut clients = Vec::with_capacity(plan.tenants.len());
    for p in &plan.tenants {
        let conn = LoopbackNet::connect(&net);
        let mut client = Client::new(conn, p.tenant);
        let derived = fleet.root.derive_tenant(p.tenant);
        client
            .authenticate(&derived, u64::from(p.tenant) ^ seed)
            .expect("planned tenant holds the right key");
        clients.push(client);
    }
    for (client, p) in clients.iter_mut().zip(&plan.tenants) {
        client
            .submit_async(0, models[p.model].name, models[p.model].input.clone())
            .expect("loopback send cannot fail");
    }
    let mut admitted = Vec::with_capacity(clients.len());
    for client in &mut clients {
        admitted.push(client.await_submit(0));
    }

    const MAX_POLLS: u64 = 1 << 16;
    let mut trials = Vec::with_capacity(plan.tenants.len());
    for ((client, p), reference) in clients.iter_mut().zip(&plan.tenants).zip(&references) {
        let m = &models[p.model];
        let admitted_ok = admitted[usize::try_from(p.tenant).expect("tenant fits usize")].is_ok();
        let state = if admitted_ok {
            client.wait_terminal(0, MAX_POLLS)
        } else {
            Err(ClientError::Rejected("submission refused".into()))
        };
        let (ok, detail) = match (state, p.tampered()) {
            (Ok(RequestState::Completed { digest, output }), false) => {
                let plain = infer_plain(&m.layers, &m.input, m.session.shift);
                match reference {
                    Some(expected) if output == *expected && output == plain => (
                        true,
                        format!("completed over the wire; digest={digest:#018x}; bit-identical to solo run and plaintext reference"),
                    ),
                    Some(_) => (false, "completed but output DIVERGED".into()),
                    None => (false, "reference run failed".into()),
                }
            }
            (Ok(RequestState::Aborted { breach: true, .. }), true) => (
                true,
                "aborted fail-closed as a breach after exhausting the ladder".into(),
            ),
            (Ok(other), _) => (false, format!("unexpected terminal state: {other:?}")),
            (Err(e), _) => (false, format!("client error: {e}")),
        };
        trials.push(TenantTrial {
            tenant: p.tenant,
            model: m.name,
            adversary: p.adversary(),
            ok,
            detail,
        });
    }

    // Closed-loop load phase over the clean tenants: each round fires
    // every client's next request into flight, then waits them all to
    // terminal, measuring client-observed latency per request.
    let mut load_served = 0u64;
    let mut latencies_ns = Vec::new();
    let load_started = Instant::now();
    if load_requests > 0 {
        let clean: Vec<usize> = plan
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.tampered())
            .map(|(i, _)| i)
            .collect();
        for round in 1..=u64::from(load_requests) {
            let started = Instant::now();
            for &i in &clean {
                let p = &plan.tenants[i];
                clients[i]
                    .submit_async(round, models[p.model].name, models[p.model].input.clone())
                    .expect("loopback send cannot fail");
            }
            for &i in &clean {
                let _ = clients[i].await_submit(round);
            }
            for &i in &clean {
                if matches!(
                    clients[i].wait_terminal(round, MAX_POLLS),
                    Ok(RequestState::Completed { .. })
                ) {
                    load_served += 1;
                }
                latencies_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            }
        }
    }
    let load_wall_ns = if load_requests > 0 {
        u64::try_from(load_started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    } else {
        0
    };

    // Graceful drain: flush durable homes, then verify the daemon
    // refuses new submissions.
    let drain_ok = {
        let flushed = clients[0].drain();
        let refused = matches!(
            clients[0].submit(
                u64::from(load_requests) + 1,
                models[0].name,
                models[0].input.clone()
            ),
            Err(ClientError::Rejected(_))
        );
        flushed.is_ok() && refused
    };

    let net_ref = net.borrow();
    let daemon: &Daemon = net_ref.daemon();
    DaemonCampaignReport {
        seed,
        sessions,
        trials,
        pads_issued: daemon.pads_issued(),
        pad_collisions: daemon.pad_collisions(),
        stats: daemon.stats(),
        auth_probe_rejected,
        drain_ok,
        load_served,
        latencies_ns,
        load_wall_ns,
        daemon_summary: daemon.summary(),
    }
}
