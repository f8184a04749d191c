//! The `seculatord` engine: transport-agnostic daemon state machine.
//!
//! The engine consumes protocol events (`on_connect` / `on_message` /
//! `on_disconnect`) and scheduler clock ticks (`tick`), and produces
//! typed replies — it never touches a socket. The TCP loop in
//! `seculator daemon` and the deterministic [`crate::LoopbackNet`]
//! drive the *same* engine, so every property the loopback conformance
//! suite proves (bit-identity to serve-campaign, pad-ledger
//! cleanliness, drain/resume correctness) holds verbatim over TCP.
//!
//! ## Connection lifecycle
//!
//! ```text
//! AwaitHello --ClientHello--> AwaitProof --AuthProof(ok)--> Authed
//!                                   \--AuthProof(bad)--> closed (AuthReject)
//! ```
//!
//! Only an `Authed` connection may submit, poll, abort, or drain; its
//! tenant id is pinned by the possession proof, so requests cannot be
//! forged across tenants.
//!
//! ## Request lifecycle
//!
//! A submit admits the tenant onto the multi-tenant scheduler
//! ([`SessionManager`]) with a nonce salt derived from the request id
//! (salt 0 for request 0, so a daemon's first request per tenant is
//! bit-identical to the serve campaign). Terminal sessions are
//! harvested into a result store keyed by `(tenant, request id)`;
//! harvested pads feed the manager-lifetime ledger, whose collision
//! count must stay zero for the life of the daemon.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

use seculator_core::telemetry::{self, Counter};
use seculator_core::{
    campaign_models, output_digest, AdmitSpec, CampaignModel, FaultInjector, JournaledError,
    QConvLayer, RecoveryPolicy, SecurityError, SessionManager, SessionOutcome, SessionVerdict,
};
use seculator_crypto::keys::DeviceSecret;

use crate::auth::{auth_tag, splitmix, tags_equal, wire_identity};
use crate::msg::{Message, RequestState};
use crate::transport::ConnId;

/// Ceiling on reply detail strings (the codec refuses longer).
const MAX_DETAIL: usize = 512;

/// Daemon construction parameters.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Root seed: expands to the device identity via
    /// [`wire_identity`], to the challenge stream, and (transitively)
    /// to every tenant's derived key.
    pub seed: u64,
    /// Ignored: the scheduler steps every tenant in order on the
    /// calling thread, and nothing reads this field. It stays only so
    /// existing struct-literal constructions keep compiling.
    pub step_workers: usize,
    /// Admission cap handed to the scheduler.
    pub max_inflight: usize,
    /// When set, every admitted request gets an on-disk durable home
    /// under this root (`t<tenant>-r<request>`), checkpointed per layer
    /// commit; a restarted daemon over the same root resumes sealed
    /// journals instead of recomputing.
    pub home_root: Option<PathBuf>,
}

impl DaemonConfig {
    /// RAM-only config — the loopback test default.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            step_workers: 1,
            max_inflight: 8,
            home_root: None,
        }
    }
}

/// Daemon-lifetime wire counters (a deterministic mirror of the
/// telemetry registry's four wire counters, kept here so reports stay
/// exact even when the `telemetry` feature is compiled off).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted (any transport).
    pub connections_accepted: u64,
    /// Requests brought to a terminal state and recorded.
    pub requests_served: u64,
    /// Authentication proofs rejected.
    pub auth_failures: u64,
    /// Per-tenant durable flushes performed by graceful drain.
    pub drain_flushes: u64,
}

/// What the engine wants done after one message: replies to the same
/// connection, and whether to close it afterwards.
#[derive(Debug)]
pub struct Reply {
    /// Messages to send back, in order.
    pub msgs: Vec<Message>,
    /// Close the connection after sending (auth failure or protocol
    /// violation — the framing stream cannot be trusted past either).
    pub close: bool,
}

impl Reply {
    fn one(msg: Message) -> Self {
        Self {
            msgs: vec![msg],
            close: false,
        }
    }

    fn fatal(msg: Message) -> Self {
        Self {
            msgs: vec![msg],
            close: true,
        }
    }
}

/// Per-connection auth state machine.
#[derive(Debug)]
enum ConnAuth {
    AwaitHello,
    AwaitProof {
        tenant: u32,
        client_nonce: u64,
        challenge: u64,
        server_nonce: u64,
    },
    Authed {
        tenant: u32,
    },
}

/// The `seculatord` engine. See the module docs for the state machine.
#[derive(Debug)]
pub struct Daemon {
    root: DeviceSecret,
    models: Vec<CampaignModel>,
    shared: Vec<Arc<Vec<QConvLayer>>>,
    mgr: SessionManager,
    conns: HashMap<ConnId, ConnAuth>,
    /// Tenant → in-flight request id (one request per tenant at a time;
    /// the scheduler's session slot is the unit of admission).
    active: HashMap<u32, u64>,
    /// Terminal results, kept for polling until the daemon dies.
    results: HashMap<(u32, u64), RequestState>,
    /// Test hook: pre-armed DRAM adversaries, consumed at the next
    /// submit of the target tenant (how the conformance campaign plants
    /// the serve campaign's tampered tenant).
    injectors: HashMap<u32, FaultInjector>,
    challenge_rng: u64,
    draining: bool,
    home_root: Option<PathBuf>,
    stats: DaemonStats,
    seed: u64,
}

impl Daemon {
    /// Builds the engine: device identity from the seed (exactly the
    /// serve campaign's derivation), model zoo loaded, scheduler ready.
    #[must_use]
    pub fn new(cfg: &DaemonConfig) -> Self {
        let (root, base_nonce) = wire_identity(cfg.seed);
        let models = campaign_models();
        let shared: Vec<Arc<Vec<QConvLayer>>> =
            models.iter().map(|m| Arc::new(m.layers.clone())).collect();
        let shift = models[0].session.shift;
        let mgr = SessionManager::new(
            root,
            base_nonce,
            shift,
            RecoveryPolicy::default(),
            cfg.max_inflight,
        );
        Self {
            root,
            models,
            shared,
            mgr,
            conns: HashMap::new(),
            active: HashMap::new(),
            results: HashMap::new(),
            injectors: HashMap::new(),
            challenge_rng: cfg.seed ^ 0xC4A1_1E4E_5EED_0001,
            draining: false,
            home_root: cfg.home_root.clone(),
            stats: DaemonStats::default(),
            seed: cfg.seed,
        }
    }

    /// Registers a new connection.
    pub fn on_connect(&mut self, conn: ConnId) {
        self.conns.insert(conn, ConnAuth::AwaitHello);
        self.stats.connections_accepted += 1;
        telemetry::incr(Counter::ConnectionsAccepted);
    }

    /// Forgets a connection (its tenant's in-flight work continues —
    /// results are pollable from a future connection that re-proves the
    /// same tenant key).
    pub fn on_disconnect(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
    }

    /// Handles one decoded message from one connection.
    pub fn on_message(&mut self, conn: ConnId, msg: Message) -> Reply {
        let Some(state) = self.conns.get(&conn) else {
            return Reply::fatal(Message::ProtocolError {
                detail: "message from unregistered connection".into(),
            });
        };
        match (state, msg) {
            (
                ConnAuth::AwaitHello,
                Message::ClientHello {
                    tenant,
                    client_nonce,
                },
            ) => {
                let challenge = splitmix(&mut self.challenge_rng);
                let server_nonce = splitmix(&mut self.challenge_rng);
                self.conns.insert(
                    conn,
                    ConnAuth::AwaitProof {
                        tenant,
                        client_nonce,
                        challenge,
                        server_nonce,
                    },
                );
                Reply::one(Message::ServerChallenge {
                    challenge,
                    server_nonce,
                })
            }
            (
                &ConnAuth::AwaitProof {
                    tenant,
                    client_nonce,
                    challenge,
                    server_nonce,
                },
                Message::AuthProof { tag },
            ) => {
                let expected = auth_tag(
                    &self.root.derive_tenant(tenant),
                    tenant,
                    challenge,
                    client_nonce,
                    server_nonce,
                );
                if tags_equal(&expected, &tag) {
                    self.conns.insert(conn, ConnAuth::Authed { tenant });
                    Reply::one(Message::AuthOk { tenant })
                } else {
                    self.conns.remove(&conn);
                    self.stats.auth_failures += 1;
                    telemetry::incr(Counter::AuthFailures);
                    Reply::fatal(Message::AuthReject {
                        reason: format!("possession proof rejected for tenant {tenant}"),
                    })
                }
            }
            (&ConnAuth::Authed { tenant }, msg) => self.on_authed(tenant, msg),
            (_, msg) => {
                self.conns.remove(&conn);
                Reply::fatal(Message::ProtocolError {
                    detail: format!("message out of order for this connection state: {msg:?}")
                        .chars()
                        .take(MAX_DETAIL)
                        .collect(),
                })
            }
        }
    }

    fn on_authed(&mut self, tenant: u32, msg: Message) -> Reply {
        match msg {
            Message::Submit {
                request_id,
                model,
                input,
            } => Reply::one(self.submit(tenant, request_id, &model, input)),
            Message::Poll { request_id } => Reply::one(Message::Status {
                request_id,
                state: self.status(tenant, request_id),
            }),
            Message::Abort { request_id } => {
                let cancelled =
                    self.active.get(&tenant) == Some(&request_id) && self.mgr.cancel(tenant);
                Reply::one(Message::AbortAck {
                    request_id,
                    cancelled,
                })
            }
            Message::Drain => {
                self.draining = true;
                let flushed = self.mgr.drain_flush();
                self.stats.drain_flushes += flushed;
                Reply::one(Message::DrainAck { flushed })
            }
            other => Reply::fatal(Message::ProtocolError {
                detail: format!("unexpected message on an authenticated connection: {other:?}")
                    .chars()
                    .take(MAX_DETAIL)
                    .collect(),
            }),
        }
    }

    fn submit(
        &mut self,
        tenant: u32,
        request_id: u64,
        model: &str,
        input: seculator_compute::quant::QTensor3,
    ) -> Message {
        let reject = |reason: &str| Message::SubmitReject {
            request_id,
            reason: reason.to_string(),
        };
        if self.draining {
            return reject("daemon is draining; submissions refused");
        }
        if self.results.contains_key(&(tenant, request_id)) {
            return reject("duplicate request id (result already recorded)");
        }
        if self.active.contains_key(&tenant) {
            return reject("tenant already has a request in flight");
        }
        let Some(idx) = self.models.iter().position(|m| m.name == model) else {
            return reject("unknown model");
        };
        let m = &self.models[idx];
        if input.c != m.input.c || input.h != m.input.h || input.w != m.input.w {
            return reject("input shape does not match the model");
        }
        // Request 0 uses the classic (salt-0) derivation — bit-identical
        // to the serve campaign; repeat requests salt a fresh nonce
        // space so the lifetime pad ledger stays collision-free.
        let nonce_salt = if request_id == 0 {
            0
        } else {
            let mut s = request_id;
            splitmix(&mut s)
        };
        let queued_round = self.mgr.current_round();
        self.mgr.admit(AdmitSpec {
            tenant,
            name: m.name.to_string(),
            layers: Arc::clone(&self.shared[idx]),
            input,
            arrival_round: queued_round,
            injector: self.injectors.remove(&tenant),
            deadline_rounds: None,
            crash_cuts: Vec::new(),
            nonce_salt,
            home_dir: self
                .home_root
                .as_ref()
                .map(|r| r.join(format!("t{tenant}-r{request_id}"))),
        });
        self.active.insert(tenant, request_id);
        Message::SubmitAck {
            request_id,
            queued_round,
        }
    }

    fn status(&self, tenant: u32, request_id: u64) -> RequestState {
        if let Some(state) = self.results.get(&(tenant, request_id)) {
            return state.clone();
        }
        if self.active.get(&tenant) == Some(&request_id) {
            return match self.mgr.progress_of(tenant) {
                Some(0) | None => RequestState::Queued,
                Some(commits) => RequestState::Running { commits },
            };
        }
        RequestState::Unknown
    }

    /// One daemon clock tick: advances the scheduler a round (when any
    /// session is live) and harvests terminal sessions into the result
    /// store. Returns `true` while sessions remain live.
    pub fn tick(&mut self) -> bool {
        if self.mgr.live_sessions() > 0 {
            self.mgr.step_round();
        }
        for outcome in self.mgr.harvest_terminal() {
            let tenant = outcome.tenant;
            let Some(request_id) = self.active.remove(&tenant) else {
                continue;
            };
            self.results
                .insert((tenant, request_id), Self::terminal_state(outcome));
            self.stats.requests_served += 1;
            telemetry::incr(Counter::RequestsServed);
        }
        self.mgr.live_sessions() > 0
    }

    fn terminal_state(outcome: SessionOutcome) -> RequestState {
        match outcome.verdict {
            SessionVerdict::Completed(run) => RequestState::Completed {
                digest: output_digest(&run.output),
                output: run.output,
            },
            SessionVerdict::Aborted(e) => {
                let breach = match e.as_ref() {
                    // Ladder exhaustion is how detected tampering
                    // surfaces at session level: a breach.
                    JournaledError::Aborted(_) => true,
                    JournaledError::Security(se) => se.is_breach(),
                    JournaledError::Crashed(_) => false,
                };
                RequestState::Aborted {
                    breach,
                    detail: truncate(&format!("{e}")),
                }
            }
            SessionVerdict::Quarantined(q) => {
                if matches!(q.cause, SecurityError::SessionCancelled { .. }) {
                    RequestState::Aborted {
                        breach: false,
                        detail: "cancelled on client request".into(),
                    }
                } else {
                    RequestState::Quarantined {
                        detail: truncate(&format!("{}", q.cause)),
                    }
                }
            }
        }
    }

    /// Test hook: arms a seeded DRAM adversary that the next submit of
    /// `tenant` will carry — how the conformance campaign plants the
    /// serve campaign's tampered tenant behind the wire.
    pub fn arm_injector(&mut self, tenant: u32, injector: FaultInjector) {
        self.injectors.insert(tenant, injector);
    }

    /// Sessions still live on the scheduler.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.mgr.live_sessions() > 0
    }

    /// Registered (not yet closed) connections — the TCP loop's
    /// "bounded run" mode waits for this to drain before exiting, so a
    /// client still polling its result is never cut off.
    #[must_use]
    pub fn open_connections(&self) -> usize {
        self.conns.len()
    }

    /// Whether graceful drain was requested.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Layer commits of one tenant's in-flight session (kill-test
    /// instrumentation).
    #[must_use]
    pub fn progress_of(&self, tenant: u32) -> Option<u32> {
        self.mgr.progress_of(tenant)
    }

    /// Daemon-lifetime wire counters.
    #[must_use]
    pub fn stats(&self) -> DaemonStats {
        self.stats
    }

    /// Distinct pads across every harvested session.
    #[must_use]
    pub fn pads_issued(&self) -> u64 {
        self.mgr.pads_issued()
    }

    /// Lifetime cross-request pad collisions (must stay 0).
    #[must_use]
    pub fn pad_collisions(&self) -> u64 {
        self.mgr.pad_collisions()
    }

    /// Scheduler bookkeeping nanoseconds (see
    /// [`SessionManager::scheduler_ns`]).
    #[must_use]
    pub fn scheduler_ns(&self) -> u64 {
        self.mgr.scheduler_ns()
    }

    /// Deterministic daemon summary: counters, ledger, and every
    /// recorded result sorted by `(tenant, request)` — byte-identical
    /// per seed under the loopback transport (wall times never appear).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "daemon seed={}: {} connections, {} served, {} auth failures, {} drain flushes\n",
            self.seed,
            self.stats.connections_accepted,
            self.stats.requests_served,
            self.stats.auth_failures,
            self.stats.drain_flushes,
        );
        out.push_str(&format!(
            "rounds={} pads={} collisions={}\n",
            self.mgr.current_round(),
            self.pads_issued(),
            self.pad_collisions()
        ));
        let mut keys: Vec<&(u32, u64)> = self.results.keys().collect();
        keys.sort_unstable();
        for k in keys {
            let line = match &self.results[k] {
                RequestState::Completed { digest, .. } => {
                    format!(
                        "tenant {} request {}: completed digest={digest:#018x}",
                        k.0, k.1
                    )
                }
                RequestState::Aborted { breach, detail } => format!(
                    "tenant {} request {}: aborted{}: {detail}",
                    k.0,
                    k.1,
                    if *breach { " [breach]" } else { "" }
                ),
                RequestState::Quarantined { detail } => {
                    format!("tenant {} request {}: quarantined: {detail}", k.0, k.1)
                }
                other => format!("tenant {} request {}: {other:?}", k.0, k.1),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// First line only, bounded — verdict displays carry multi-line audit
/// trails that belong in logs, not in a wire status field.
fn truncate(s: &str) -> String {
    s.lines()
        .next()
        .unwrap_or("")
        .chars()
        .take(MAX_DETAIL)
        .collect()
}
