//! # seculator-client
//!
//! Typed client for the `SWP1` wire protocol: the request/response API
//! (`authenticate` / `submit` / `poll` / `abort` / `drain`) over any
//! [`Wire`] transport — the real TCP pipe for `seculator submit`, or
//! the deterministic loopback for the conformance suite.
//!
//! The crate also hosts [`run_daemon_campaign`]: the *eighth datapath*
//! oracle. It stands a daemon up behind the loopback, drives the exact
//! tenant plan the serve campaign derives from the same seed
//! ([`seculator_core::serve_plan`]), and checks that every clean
//! tenant's wire-delivered output is bit-identical to the solo
//! journaled run and the plaintext reference, that the planted
//! tampered tenant aborts fail-closed as a breach, that a bad-auth
//! probe is rejected, that graceful drain refuses new work, and that
//! the daemon-lifetime pad ledger stays collision-free — all
//! byte-identical per seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Client code paths also face a hostile peer (a daemon can lie);
// failures surface as `ClientError`, never as a panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::time::Instant;

use seculator_compute::quant::QTensor3;
use seculator_core::{
    campaign_models, infer_journaled, infer_plain, serve_plan, DurableState, Instruments,
    PadTracker, RecoveryPolicy, SessionManager,
};
use seculator_crypto::keys::DeviceSecret;
use seculator_wire::{
    auth_tag, Daemon, DaemonConfig, DaemonStats, LoopbackNet, Message, RequestState, Wire,
    WireError,
};

/// Every way a client call fails.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Transport or codec failure.
    Wire(WireError),
    /// The daemon rejected the possession proof.
    AuthRejected(String),
    /// The daemon refused the request (draining, busy tenant, unknown
    /// model, shape mismatch…).
    Rejected(String),
    /// The daemon answered out of protocol.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::AuthRejected(r) => write!(f, "authentication rejected: {r}"),
            Self::Rejected(r) => write!(f, "request rejected: {r}"),
            Self::Protocol(d) => write!(f, "protocol violation: {d}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// A typed client bound to one tenant over one connection.
#[derive(Debug)]
pub struct Client<W: Wire> {
    wire: W,
    tenant: u32,
}

impl<W: Wire> Client<W> {
    /// Wraps a connected transport for one tenant.
    pub fn new(wire: W, tenant: u32) -> Self {
        Self { wire, tenant }
    }

    /// The tenant this client claims.
    #[must_use]
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// Runs the challenge–response handshake, proving possession of
    /// the tenant's *derived* device key.
    pub fn authenticate(
        &mut self,
        derived: &DeviceSecret,
        client_nonce: u64,
    ) -> Result<(), ClientError> {
        self.wire.send(&Message::ClientHello {
            tenant: self.tenant,
            client_nonce,
        })?;
        let (challenge, server_nonce) = match self.wire.recv()? {
            Message::ServerChallenge {
                challenge,
                server_nonce,
            } => (challenge, server_nonce),
            Message::AuthReject { reason } => return Err(ClientError::AuthRejected(reason)),
            other => return Err(protocol(&other)),
        };
        self.wire.send(&Message::AuthProof {
            tag: auth_tag(derived, self.tenant, challenge, client_nonce, server_nonce),
        })?;
        match self.wire.recv()? {
            Message::AuthOk { tenant } if tenant == self.tenant => Ok(()),
            Message::AuthReject { reason } => Err(ClientError::AuthRejected(reason)),
            other => Err(protocol(&other)),
        }
    }

    /// Fires a submit without waiting for the acknowledgment — how the
    /// conformance campaign gets many tenants' submissions into flight
    /// at once so the seeded loopback interleaving has something to
    /// shuffle. Pair with [`Self::await_submit`].
    pub fn submit_async(
        &mut self,
        request_id: u64,
        model: &str,
        input: QTensor3,
    ) -> Result<(), ClientError> {
        self.wire.send(&Message::Submit {
            request_id,
            model: model.to_string(),
            input,
        })?;
        Ok(())
    }

    /// Waits for the acknowledgment of [`Self::submit_async`]; returns
    /// the scheduler round the request was queued at.
    pub fn await_submit(&mut self, request_id: u64) -> Result<u64, ClientError> {
        match self.wire.recv()? {
            Message::SubmitAck {
                request_id: id,
                queued_round,
            } if id == request_id => Ok(queued_round),
            Message::SubmitReject {
                request_id: id,
                reason,
            } if id == request_id => Err(ClientError::Rejected(reason)),
            other => Err(protocol(&other)),
        }
    }

    /// Submits one inference request and waits for admission.
    pub fn submit(
        &mut self,
        request_id: u64,
        model: &str,
        input: QTensor3,
    ) -> Result<u64, ClientError> {
        self.submit_async(request_id, model, input)?;
        self.await_submit(request_id)
    }

    /// Reports the current state of one request.
    pub fn poll(&mut self, request_id: u64) -> Result<RequestState, ClientError> {
        self.wire.send(&Message::Poll { request_id })?;
        match self.wire.recv()? {
            Message::Status {
                request_id: id,
                state,
            } if id == request_id => Ok(state),
            other => Err(protocol(&other)),
        }
    }

    /// Polls until the request is terminal (completed / aborted /
    /// quarantined / unknown), bounded by `max_polls` as a hang guard.
    pub fn wait_terminal(
        &mut self,
        request_id: u64,
        max_polls: u64,
    ) -> Result<RequestState, ClientError> {
        for _ in 0..max_polls {
            match self.poll(request_id)? {
                RequestState::Queued | RequestState::Running { .. } => {}
                terminal => return Ok(terminal),
            }
        }
        Err(ClientError::Protocol(format!(
            "request {request_id} not terminal after {max_polls} polls"
        )))
    }

    /// Requests a fail-closed abort of one in-flight request; `true`
    /// when the daemon cancelled it.
    pub fn abort(&mut self, request_id: u64) -> Result<bool, ClientError> {
        self.wire.send(&Message::Abort { request_id })?;
        match self.wire.recv()? {
            Message::AbortAck {
                request_id: id,
                cancelled,
            } if id == request_id => Ok(cancelled),
            other => Err(protocol(&other)),
        }
    }

    /// Asks the daemon to drain gracefully; returns the number of
    /// durable flushes performed.
    pub fn drain(&mut self) -> Result<u64, ClientError> {
        self.wire.send(&Message::Drain)?;
        match self.wire.recv()? {
            Message::DrainAck { flushed } => Ok(flushed),
            other => Err(protocol(&other)),
        }
    }
}

fn protocol(msg: &Message) -> ClientError {
    ClientError::Protocol(format!("unexpected reply: {msg:?}"))
}

// ---------------------------------------------------------------------------
// The daemon conformance campaign (the eighth datapath)
// ---------------------------------------------------------------------------

/// Configuration of one daemon campaign.
#[derive(Debug, Clone)]
pub struct DaemonCampaignConfig {
    /// Root seed: daemon identity, tenant plan, and loopback arrival
    /// interleaving all derive from it.
    pub seed: u64,
    /// Tenant sessions (mirrors the serve campaign's `sessions`).
    pub sessions: u32,
    /// Optional durable-home root for every admitted request.
    pub home_root: Option<std::path::PathBuf>,
    /// Closed-loop load phase: this many *extra* requests per clean
    /// tenant after the conformance phase (0 = skip the load phase).
    pub load_requests: u32,
}

/// Per-tenant campaign verdict (mirrors the serve campaign's trial).
#[derive(Debug, Clone)]
pub struct DaemonTrial {
    /// Tenant id.
    pub tenant: u32,
    /// Model-zoo workload.
    pub model: &'static str,
    /// Whether this was the planted tampered tenant.
    pub tampered: bool,
    /// Whether the wire oracle held.
    pub ok: bool,
    /// Deterministic one-line explanation.
    pub detail: String,
}

/// Deterministic outcome of one daemon campaign.
#[derive(Debug)]
pub struct DaemonCampaignReport {
    /// Root seed.
    pub seed: u64,
    /// Tenant sessions driven.
    pub sessions: u32,
    /// Per-tenant verdicts, in tenant order.
    pub trials: Vec<DaemonTrial>,
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

impl DaemonCampaignReport {
    /// Did every oracle hold?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.trials.iter().all(|t| t.ok)
            && self.pad_collisions == 0
            && self.auth_probe_rejected
            && self.drain_ok
            && self.stats.auth_failures == 1
    }

    /// Deterministic multi-line summary (byte-identical per seed; no
    /// wall times).
    #[must_use]
    pub fn summary(&self) -> String {
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
            out.push_str(&format!(
                "tenant {}: {}{} → {}\n",
                t.tenant,
                t.model,
                if t.tampered { " [tampered]" } else { "" },
                t.detail
            ));
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
        out.push_str(if self.passed() {
            "verdict: PASS"
        } else {
            "verdict: FAIL"
        });
        out
    }
}

/// Runs the deterministic loopback daemon campaign. See the crate docs
/// for the oracle set.
#[must_use]
#[allow(clippy::too_many_lines, clippy::missing_panics_doc)]
pub fn run_daemon_campaign(config: &DaemonCampaignConfig) -> DaemonCampaignReport {
    let sessions = config.sessions.max(1);
    let models = campaign_models();
    let plan = serve_plan(config.seed, sessions, &models);

    let daemon_cfg = DaemonConfig {
        max_inflight: plan.max_inflight,
        home_root: config.home_root.clone(),
        ..DaemonConfig::new(config.seed)
    };
    let net = LoopbackNet::new(&daemon_cfg, config.seed);

    // Plant the serve campaign's tampered tenant behind the wire.
    for p in &plan.tenants {
        if let Some(injector) = p.injector() {
            net.borrow_mut()
                .daemon_mut()
                .arm_injector(p.tenant, injector);
        }
    }

    // Solo journaled references under the same derived keys — the
    // bit-identity oracle (a throwaway manager performs the exact key
    // derivation the daemon's scheduler uses).
    let key_mgr = SessionManager::new(
        plan.root,
        plan.base_nonce,
        plan.shift,
        RecoveryPolicy::default(),
        1,
    );
    let mut references = Vec::with_capacity(plan.tenants.len());
    for p in &plan.tenants {
        if p.tampered {
            references.push(None);
            continue;
        }
        let m = &models[p.model];
        let session = key_mgr.derived_session(p.tenant);
        let mut durable = DurableState::default();
        let mut tracker = PadTracker::new();
        let mut instruments = Instruments {
            tracker: &mut tracker,
            injector: None,
            clock: None,
        };
        let run = infer_journaled(
            &m.layers,
            &m.input,
            &session,
            &mut durable,
            &mut instruments,
        );
        references.push(run.ok().map(|r| r.output));
    }

    // Bad-auth probe: a client holding the wrong key must be rejected
    // with a breach diagnostic and must not consume a session slot.
    let auth_probe_rejected = {
        let conn = LoopbackNet::connect(&net);
        let mut probe = Client::new(conn, 0);
        let wrong = DeviceSecret::from_seed(config.seed ^ 0xBAD_C0DE);
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
        let derived = plan.root.derive_tenant(p.tenant);
        client
            .authenticate(&derived, u64::from(p.tenant) ^ config.seed)
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
        let (ok, detail) = match (state, p.tampered) {
            (Ok(RequestState::Completed { digest, output }), false) => {
                let plain = infer_plain(&m.layers, &m.input, plan.shift);
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
        trials.push(DaemonTrial {
            tenant: p.tenant,
            model: m.name,
            tampered: p.tampered,
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
    if config.load_requests > 0 {
        let clean: Vec<usize> = plan
            .tenants
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.tampered)
            .map(|(i, _)| i)
            .collect();
        for round in 1..=u64::from(config.load_requests) {
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
    let load_wall_ns = if config.load_requests > 0 {
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
                u64::from(config.load_requests) + 1,
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
        seed: config.seed,
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
