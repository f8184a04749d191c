//! `serve-fleet` and `serve-pair`: closed-loop clients driving the real
//! `seculator_wire::Daemon` through the real SWP1 codec.
//!
//! One generator thread plays every client; it opens no sockets. Each
//! iteration delivers every pending client frame in FIFO order (client
//! message → `encode_frame(msg.encode())` → `decode_frame` →
//! `Message::decode` → `Daemon::on_message`, replies back through the
//! same codec), then calls `Daemon::tick` once: the TCP daemon loop
//! without the socket. A client with a request in flight polls once per
//! iteration and submits its next request in the iteration after its
//! `Completed` arrives.
//!
//! A run is a sequence of epochs. Each epoch sets up a fresh daemon
//! (the set-up `setup_s` times), then serves a fixed number of requests.
//! The daemon keeps every request's pads and result for its lifetime,
//! so an epoch's memory grows with its request count; ending epochs at
//! a count, never at a time, keeps `peak_rss_mb` independent of speed.

use std::time::Instant;

use seculator_compute::quant::QTensor3;
use seculator_core::telemetry::{self, Counter};
use seculator_core::{campaign_models, infer_plain, output_digest, CampaignModel, FaultInjector};
use seculator_wire::{
    auth_tag, decode_frame, encode_frame, wire_identity, ConnId, Daemon, DaemonConfig, Message,
    RequestState, WireError,
};

use crate::stats::{mean, median, percentile, proc_status_kb, Histogram};
use crate::trace::{Tracer, NO_REQUEST};
use crate::{splitmix, Report};

/// One serve workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Model of each tenant; tenant ids are the indices.
    pub tenant_models: Vec<&'static str>,
    /// Requests served per epoch (warm-ups excluded).
    pub epoch_requests: u64,
    /// Completions per throughput window; `rps` is the p90 window rate.
    pub window_requests: usize,
    /// Fresh set-ups timed per epoch (the last one serves the epoch).
    pub setup_reps: usize,
    /// Inputs per model in the reference pool.
    pub pool_per_model: usize,
}

impl ServeSpec {
    /// 32 tenants on `grouped-cnn`: 24 wait for the 8 admission slots and
    /// the 8 running share one weight `Arc`, so admission, cross-tenant
    /// fusion, the worker lanes and bulk seal/open carry the load.
    #[must_use]
    pub fn fleet() -> Self {
        Self {
            name: "serve-fleet",
            tenant_models: vec!["grouped-cnn"; 32],
            epoch_requests: 2048,
            window_requests: 256,
            setup_reps: 3,
            pool_per_model: 64,
        }
    }

    /// Two tenants on different models (`mlp`, `strided-cnn`): nothing
    /// fuses or queues and bulk crypto is small, so the fixed
    /// per-request costs dominate.
    #[must_use]
    pub fn pair() -> Self {
        Self {
            name: "serve-pair",
            tenant_models: vec!["mlp", "strided-cnn"],
            epoch_requests: 8192,
            window_requests: 1024,
            setup_reps: 15,
            pool_per_model: 64,
        }
    }
}

/// The daemon exactly as `seculator daemon` configures it: 8 admission
/// slots, one step worker per pool thread, no durable home.
#[must_use]
pub fn daemon_config(seed: u64) -> DaemonConfig {
    DaemonConfig {
        seed,
        step_workers: rayon::current_num_threads().max(1),
        max_inflight: 8,
        home_root: None,
    }
}

#[derive(Debug)]
struct Entry {
    input: QTensor3,
    reference: QTensor3,
    digest: u64,
}

/// Seeded inputs per model with their `infer_plain` references, built
/// before any daemon starts.
#[derive(Debug)]
pub struct Pool {
    models: Vec<CampaignModel>,
    entries: Vec<Vec<Entry>>,
    /// `infer_plain` time per pool entry of the workload's models (ns).
    plain_ns: Vec<f64>,
}

impl Pool {
    /// Builds `spec.pool_per_model` inputs for each model `spec` uses.
    #[must_use]
    pub fn build(spec: &ServeSpec, seed: u64) -> Self {
        let models = campaign_models();
        let mut entries: Vec<Vec<Entry>> = models.iter().map(|_| Vec::new()).collect();
        let mut plain_ns = Vec::new();
        for (mi, m) in models.iter().enumerate() {
            if !spec.tenant_models.contains(&m.name) {
                continue;
            }
            let shift = m.session.shift;
            let (c, h, w) = (m.input.c, m.input.h, m.input.w);
            for i in 0..spec.pool_per_model {
                let mut s = seed ^ ((mi as u64) << 32) ^ i as u64;
                let input = QTensor3::seeded(c, h, w, splitmix(&mut s));
                let t = Instant::now();
                let reference = std::hint::black_box(infer_plain(&m.layers, &input, shift));
                plain_ns.push(t.elapsed().as_nanos() as f64);
                let digest = output_digest(&reference);
                entries[mi].push(Entry {
                    input,
                    reference,
                    digest,
                });
            }
        }
        Self {
            models,
            entries,
            plain_ns,
        }
    }

    fn model_index(&self, name: &str) -> usize {
        self.models
            .iter()
            .position(|m| m.name == name)
            .expect("workload models come from campaign_models")
    }
}

/// What one phase of serving did. Everything but the timings repeats
/// exactly for one seed.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Requests submitted.
    pub submitted: u64,
    /// Requests rejected, aborted, quarantined, mismatched or broken.
    pub failed: u64,
    /// Frames through the codec, both directions.
    pub frames: u64,
    /// Framed bytes through the codec, both directions.
    pub bytes: u64,
    /// `Daemon::tick` calls.
    pub ticks: u64,
    /// Verified requests per tenant.
    pub per_tenant: Vec<u64>,
    /// Submit → verified `Completed` (ms), one per verified request.
    pub latency_ms: Vec<f64>,
    /// When each verified `Completed` arrived.
    pub done_at: Vec<Instant>,
    /// Submit → first poll reporting a committed layer (ms).
    pub wait_ms: Vec<f64>,
    /// That poll → `Completed` (ms).
    pub service_ms: Vec<f64>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Tally {
    /// Frees the per-request samples once an epoch's figures are taken.
    fn drop_samples(&mut self) {
        for v in [
            &mut self.latency_ms,
            &mut self.wait_ms,
            &mut self.service_ms,
        ] {
            *v = Vec::new();
        }
        self.done_at = Vec::new();
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

struct Inflight {
    id: u64,
    entry: usize,
    submitted: Instant,
    committed: Option<Instant>,
}

struct Client {
    tenant: u32,
    conn: ConnId,
    model: usize,
    next_request: u64,
    phase_submits: u64,
    inflight: Option<Inflight>,
    closed: bool,
}

/// How many requests a phase submits.
#[derive(Debug, Clone, Copy)]
enum Quota {
    OnePerClient,
    Total(u64),
}

/// One daemon plus its clients.
struct Harness<'p> {
    pool: &'p Pool,
    daemon: Daemon,
    clients: Vec<Client>,
    input_seed: u64,
    epoch: u64,
}

impl<'p> Harness<'p> {
    /// `Daemon::new`, every tenant's handshake through the codec, and one
    /// warm-up request per tenant: the serve set-up.
    fn set_up(
        pool: &'p Pool,
        spec: &ServeSpec,
        seed: u64,
        epoch: u64,
        tr: &mut Tracer,
    ) -> Result<(Self, Tally), String> {
        let mut daemon = Daemon::new(&daemon_config(seed));
        let clients = spec
            .tenant_models
            .iter()
            .enumerate()
            .map(|(t, m)| {
                let conn = t as ConnId + 1;
                daemon.on_connect(conn);
                Client {
                    tenant: t as u32,
                    conn,
                    model: pool.model_index(m),
                    next_request: 0,
                    phase_submits: 0,
                    inflight: None,
                    closed: false,
                }
            })
            .collect();
        let mut h = Self {
            pool,
            daemon,
            clients,
            input_seed: seed ^ 0x1A7E_5EED,
            epoch,
        };
        let mut tally = Tally::default();
        h.handshake(seed, tr, &mut tally)?;
        h.run_phase(Quota::OnePerClient, tr, &mut tally);
        Ok((h, tally))
    }

    fn handshake(&mut self, seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Result<(), String> {
        let (root, _) = wire_identity(seed);
        for ci in 0..self.clients.len() {
            let tenant = self.clients[ci].tenant;
            let mut s = seed ^ u64::from(tenant);
            let client_nonce = splitmix(&mut s);
            let hello = Message::ClientHello {
                tenant,
                client_nonce,
            };
            let Some(Message::ServerChallenge {
                challenge,
                server_nonce,
            }) = self.exchange(ci, &hello, tr, tally)?
            else {
                return Err(format!("tenant {tenant}: no challenge"));
            };
            let tag = auth_tag(
                &root.derive_tenant(tenant),
                tenant,
                challenge,
                client_nonce,
                server_nonce,
            );
            match self.exchange(ci, &Message::AuthProof { tag }, tr, tally)? {
                Some(Message::AuthOk { tenant: t }) if t == tenant => {}
                other => return Err(format!("tenant {tenant}: handshake ended in {other:?}")),
            }
        }
        Ok(())
    }

    /// One handshake message and its single reply.
    fn exchange(
        &mut self,
        ci: usize,
        msg: &Message,
        tr: &mut Tracer,
        tally: &mut Tally,
    ) -> Result<Option<Message>, String> {
        let conn = self.clients[ci].conn;
        let msg = codec(msg, NO_REQUEST, tr, tally).map_err(|e| e.to_string())?;
        let sp = tr.enter("daemon.auth", NO_REQUEST);
        let reply = self.daemon.on_message(conn, msg);
        tr.exit(sp);
        let mut back = None;
        for m in &reply.msgs {
            back = Some(codec(m, NO_REQUEST, tr, tally).map_err(|e| e.to_string())?);
        }
        Ok(back)
    }

    fn request_key(&self, ci: usize, id: u64) -> u64 {
        (self.epoch << 48) | (u64::from(self.clients[ci].tenant) << 32) | id
    }

    /// Serves requests until `quota` is submitted and none is in flight.
    fn run_phase(&mut self, quota: Quota, tr: &mut Tracer, tally: &mut Tally) {
        tally.per_tenant.resize(self.clients.len(), 0);
        let mut submitted = 0u64;
        for c in &mut self.clients {
            c.phase_submits = 0;
        }
        let mut outbox: Vec<(usize, Message)> = Vec::with_capacity(self.clients.len());
        loop {
            let iter = tr.enter("bench.iter", NO_REQUEST);
            for (ci, c) in self.clients.iter_mut().enumerate() {
                if c.closed {
                    continue;
                }
                if let Some(f) = &c.inflight {
                    outbox.push((ci, Message::Poll { request_id: f.id }));
                    continue;
                }
                let allowed = match quota {
                    Quota::OnePerClient => c.phase_submits == 0,
                    Quota::Total(n) => submitted < n,
                };
                if !allowed {
                    continue;
                }
                let id = c.next_request;
                c.next_request += 1;
                c.phase_submits += 1;
                submitted += 1;
                let mut s = self.input_seed ^ (u64::from(c.tenant) << 40) ^ (self.epoch << 24) ^ id;
                let entry = (splitmix(&mut s) % self.pool.entries[c.model].len() as u64) as usize;
                c.inflight = Some(Inflight {
                    id,
                    entry,
                    submitted: Instant::now(),
                    committed: None,
                });
                outbox.push((
                    ci,
                    Message::Submit {
                        request_id: id,
                        model: self.pool.models[c.model].name.to_string(),
                        input: self.pool.entries[c.model][entry].input.clone(),
                    },
                ));
            }
            if outbox.is_empty() {
                tr.exit(iter);
                break;
            }
            for (ci, msg) in outbox.drain(..) {
                self.deliver(ci, &msg, tr, tally);
            }
            let sp = tr.enter("session.tick", NO_REQUEST);
            self.daemon.tick();
            tr.exit(sp);
            tally.ticks += 1;
            tr.exit(iter);
        }
        tally.submitted += submitted;
    }

    fn deliver(&mut self, ci: usize, msg: &Message, tr: &mut Tracer, tally: &mut Tally) {
        let (id, layer) = match msg {
            Message::Submit { request_id, .. } => (*request_id, "daemon.submit"),
            Message::Poll { request_id } => (*request_id, "daemon.poll"),
            _ => unreachable!("serving clients send only Submit and Poll"),
        };
        let key = self.request_key(ci, id);
        if let (Message::Submit { .. }, Some(f)) = (msg, &mut self.clients[ci].inflight) {
            f.submitted = Instant::now();
        }
        let decoded = match codec(msg, key, tr, tally) {
            Ok(m) => m,
            Err(e) => return self.end_request(ci, tally, format!("request codec: {e}")),
        };
        let sp = tr.enter(layer, key);
        let reply = self.daemon.on_message(self.clients[ci].conn, decoded);
        tr.exit(sp);
        for m in &reply.msgs {
            match codec(m, key, tr, tally) {
                Ok(m) => self.on_reply(ci, m, tally),
                Err(e) => self.end_request(ci, tally, format!("reply codec: {e}")),
            }
        }
        if reply.close {
            self.clients[ci].closed = true;
            if self.clients[ci].inflight.is_some() {
                self.end_request(ci, tally, "daemon closed the connection".into());
            }
        }
    }

    fn end_request(&mut self, ci: usize, tally: &mut Tally, why: String) {
        if let Some(f) = self.clients[ci].inflight.take() {
            tally.fail(format!(
                "tenant {} request {}: {why}",
                self.clients[ci].tenant, f.id
            ));
        }
    }

    fn on_reply(&mut self, ci: usize, reply: Message, tally: &mut Tally) {
        let pool = self.pool;
        let c = &mut self.clients[ci];
        let Some(f) = c.inflight.as_mut() else {
            return tally.fail(format!("tenant {}: reply with nothing in flight", c.tenant));
        };
        let why = match reply {
            Message::SubmitAck { request_id, .. } if request_id == f.id => return,
            Message::Status {
                request_id,
                state: RequestState::Queued,
            } if request_id == f.id => return,
            Message::Status {
                request_id,
                state: RequestState::Running { commits },
            } if request_id == f.id => {
                if commits > 0 && f.committed.is_none() {
                    f.committed = Some(Instant::now());
                }
                return;
            }
            Message::Status {
                request_id,
                state: RequestState::Completed { digest, output },
            } if request_id == f.id => {
                let now = Instant::now();
                let committed = *f.committed.get_or_insert(now);
                let entry = &pool.entries[c.model][f.entry];
                if output == entry.reference && digest == entry.digest {
                    tally.per_tenant[ci] += 1;
                    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
                    tally.latency_ms.push(ms(now - f.submitted));
                    tally.done_at.push(now);
                    tally.wait_ms.push(ms(committed - f.submitted));
                    tally.service_ms.push(ms(now - committed));
                    c.inflight = None;
                    return;
                }
                "output differs from infer_plain".to_string()
            }
            other => format!("{other:?}").chars().take(200).collect(),
        };
        self.end_request(ci, tally, why);
    }
}

/// One frame through the SWP1 codec, one direction.
fn codec(
    msg: &Message,
    key: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Message, WireError> {
    let sp = tr.enter("wire.codec", key);
    let frame = encode_frame(&msg.encode());
    let out = decode_frame(&frame).and_then(|p| Message::decode(&p));
    tr.exit(sp);
    tally.frames += 1;
    tally.bytes += frame.len() as u64;
    out
}

/// Telemetry counters read around a timed phase.
const COUNTERS: [Counter; 11] = [
    Counter::SealBlocks,
    Counter::OpenBlocks,
    Counter::SealBatches,
    Counter::OpenBatches,
    Counter::BackendAesNiBlocks,
    Counter::BackendPortableBlocks,
    Counter::BackendBitslicedBlocks,
    Counter::MacBlocks,
    Counter::VnAdvances,
    Counter::JournalAppends,
    Counter::EpochBumps,
];

fn read_counters() -> [u64; COUNTERS.len()] {
    COUNTERS.map(telemetry::get)
}

/// Exact per-phase counts: identical for one seed on any host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counts {
    /// Requests submitted.
    pub requests: u64,
    /// Codec frames, both directions.
    pub frames: u64,
    /// Framed bytes, both directions.
    pub bytes: u64,
    /// `Daemon::tick` calls.
    pub ticks: u64,
    /// `Daemon::pads_issued` delta.
    pub pads: u64,
    /// Telemetry deltas in [`COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Verified requests per tenant.
    pub per_tenant: Vec<u64>,
}

/// One epoch's measurements.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Set-up times of this epoch's fresh set-ups (s).
    pub setup_s: Vec<f64>,
    /// Warm-up requests (correctness only).
    pub warmup: Tally,
    /// The timed phase.
    pub timed: Tally,
    /// When the timed phase started.
    pub start: Instant,
    /// Timed-phase wall time (s).
    pub wall_s: f64,
    /// Exact counts of the timed phase.
    pub counts: Counts,
    /// `VmRSS` growth across the timed phase (kB).
    pub rss_growth_kb: f64,
    /// Lifetime pad collisions the daemon reports (must stay 0).
    pub pad_collisions: u64,
}

/// Runs one epoch: `spec.setup_reps` timed fresh set-ups, then
/// `requests` requests on the last one. `tamper` plants a relentless
/// DRAM adversary on one tenant's first timed request, through the
/// public `Daemon::arm_injector`.
///
/// # Errors
///
/// A handshake that does not authenticate.
pub fn run_epoch(
    pool: &Pool,
    spec: &ServeSpec,
    seed: u64,
    epoch: u64,
    requests: u64,
    tr: &mut Tracer,
    tamper: Option<u32>,
) -> Result<Epoch, String> {
    let traced = tr.on();
    tr.set_on(false);
    let mut setup_s = Vec::with_capacity(spec.setup_reps);
    let mut last = None;
    for _ in 0..spec.setup_reps.max(1) {
        let t = Instant::now();
        let built = Harness::set_up(pool, spec, seed, epoch, tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    let (mut h, warmup) = last.expect("at least one set-up");
    if let Some(tenant) = tamper {
        h.daemon.arm_injector(
            tenant,
            FaultInjector::new(
                seed,
                vec![seculator_core::FaultSpec {
                    kind: seculator_core::FaultKind::BitFlip,
                    persistence: seculator_core::Persistence::Relentless,
                    layer: 0,
                    block: 0,
                }],
            ),
        );
    }
    tr.set_on(traced);
    let rss0 = proc_status_kb("VmRSS");
    let c0 = read_counters();
    let pads0 = h.daemon.pads_issued();
    let mut timed = Tally::default();
    let t = Instant::now();
    h.run_phase(Quota::Total(requests), tr, &mut timed);
    let wall_s = t.elapsed().as_secs_f64();
    let c1 = read_counters();
    let rss_growth_kb = proc_status_kb("VmRSS") as f64 - rss0 as f64;
    tr.set_on(false);
    let counts = Counts {
        requests: timed.submitted,
        frames: timed.frames,
        bytes: timed.bytes,
        ticks: timed.ticks,
        pads: h.daemon.pads_issued() - pads0,
        counters: COUNTERS
            .iter()
            .zip(c0.iter().zip(c1))
            .map(|(c, (a, b))| (c.name(), b - a))
            .collect(),
        per_tenant: timed.per_tenant.clone(),
    };
    Ok(Epoch {
        setup_s,
        warmup,
        timed,
        start: t,
        wall_s,
        counts,
        rss_growth_kb,
        pad_collisions: h.daemon.pad_collisions(),
    })
}

/// Completion rate (1/s) of each run of `w` consecutive verified
/// requests of the epoch; a partial last window is dropped.
#[must_use]
fn windows(e: &Epoch, w: usize) -> Vec<f64> {
    let mut from = e.start;
    e.timed
        .done_at
        .chunks_exact(w)
        .map(|chunk| {
            let to = chunk[w - 1];
            let rate = w as f64 / (to - from).as_secs_f64();
            from = to;
            rate
        })
        .collect()
}

fn counter(counts: &Counts, c: Counter) -> f64 {
    counts
        .counters
        .iter()
        .find(|(n, _)| *n == c.name())
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Correctness of a run: every request's verdict, the pad ledger, and
/// counts that must repeat exactly from epoch to epoch; sets `ok_ratio`.
#[must_use]
pub fn score(epochs: &[&Epoch]) -> Report {
    let mut r = Report {
        checks_ok: true,
        ..Report::default()
    };
    for e in epochs {
        for t in [&e.warmup, &e.timed] {
            r.attempted += t.submitted;
            r.failed += t.failed;
            for f in &t.failures {
                r.notes.push(format!("FAILED: {f}"));
            }
        }
        if e.pad_collisions != 0 {
            r.checks_ok = false;
            r.notes
                .push(format!("FAILED: {} pad collisions", e.pad_collisions));
        }
    }
    if let Some(first) = epochs.first() {
        if let Some(e) = epochs.iter().find(|e| e.counts != first.counts) {
            r.checks_ok = false;
            r.notes.push(format!(
                "FAILED: epoch counts differ: {:?} vs {:?}",
                e.counts, first.counts
            ));
        }
    }
    r.set("ok_ratio", r.ok_ratio());
    r
}

/// `rps` is this percentile of the window rates. The shared host only
/// ever slows the program, in regimes of 10–25 s, so the fast end of a
/// run's windows is the steadiest estimate of the program's own speed.
/// Over 60-second serve-pair runs with 2048-request windows, the p90 moved
/// by 8 % (quartile spread over median; six calm runs) and 26 % (five
/// noisy ones) where the median moved by 10 % and 34 %.
const RPS_QUANTILE: f64 = 0.90;

/// How one epoch of a run was traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spans {
    Off,
    /// Recorded and kept for the trace file and the per-layer metrics.
    Kept,
    /// Recorded (so its timing pays for tracing), then discarded to keep
    /// the trace file small.
    Dropped,
}

/// Traced epochs whose spans a run keeps.
const KEPT_EPOCHS: usize = 2;

/// Runs epochs of `spec` until `seconds` have passed (with `trace`, at
/// least two, alternating traced and untraced epochs) and reports.
///
/// # Errors
///
/// A failed handshake, or a percentile without ten samples beyond it.
pub fn run(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Report, Tracer), String> {
    let pool = Pool::build(spec, seed);
    let mut tr = Tracer::new(false);
    let mut epochs: Vec<(Spans, Epoch)> = Vec::new();
    // Samples kept across epochs stay constant in size, so a faster
    // program runs more epochs without a larger `peak_rss_mb`.
    let mut latency = Histogram::default();
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut kept = 0;
    let start = Instant::now();
    while epochs.is_empty()
        || (trace && epochs.len() < 2)
        || start.elapsed().as_secs_f64() < seconds
    {
        let traced = trace && epochs.len().is_multiple_of(2);
        let mark = tr.spans().len();
        tr.set_on(traced);
        let mut e = run_epoch(
            &pool,
            spec,
            seed,
            epochs.len() as u64,
            spec.epoch_requests,
            &mut tr,
            None,
        )?;
        let spans = if !traced {
            Spans::Off
        } else if kept < KEPT_EPOCHS {
            kept += 1;
            Spans::Kept
        } else {
            tr.truncate(mark);
            Spans::Dropped
        };
        if spans == Spans::Off {
            rates.extend(windows(&e, spec.window_requests));
            for &ms in &e.timed.latency_ms {
                latency.record(ms);
            }
        } else {
            traced_rates.extend(windows(&e, spec.window_requests));
        }
        if spans != Spans::Kept {
            e.timed.drop_samples();
        }
        epochs.push((spans, e));
    }
    tr.set_on(false);

    let mut r = score(&epochs.iter().map(|(_, e)| e).collect::<Vec<_>>());
    let setups: Vec<f64> = epochs
        .iter()
        .flat_map(|(_, e)| e.setup_s.iter().copied())
        .collect();
    r.set("setup_s", median(&setups));
    r.set("p50_ms", latency.percentile("latency", 0.50)?);
    r.set("p99_ms", latency.percentile("latency", 0.99)?);
    r.set("peak_rss_mb", proc_status_kb("VmHWM") as f64 / 1024.0);
    r.notes.push(format!(
        "{}: {} epochs of {} requests, {} tenants, step_workers={}, max_inflight=8, cores={}",
        spec.name,
        epochs.len(),
        spec.epoch_requests,
        spec.tenant_models.len(),
        daemon_config(seed).step_workers,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    ));
    r.notes.push(format!(
        "setup_s: median of n={} fresh set-ups",
        setups.len()
    ));
    let n = latency.len();
    r.notes.push(format!(
        "latency: n={n} requests, p50 {:.4} ms, p99 {:.4} ms ({} beyond p99; 1% buckets)",
        r.values["p50_ms"],
        r.values["p99_ms"],
        n - (0.99 * n as f64).ceil() as usize
    ));

    if trace {
        // Half the windows are traced; medians compare the two halves
        // without the p90's sample floor.
        layer_metrics(&mut r, &pool, &epochs, &tr)?;
        let (off, on) = (median(&rates), median(&traced_rates));
        r.set("bench.trace_overhead_pct", 100.0 * (off / on - 1.0));
        r.notes.push(format!(
            "trace overhead: median untraced {off:.1} rps over {} windows vs traced {on:.1} rps over {} windows",
            rates.len(),
            traced_rates.len()
        ));
    } else {
        rates.sort_by(f64::total_cmp);
        r.set("rps", percentile("window rate", &rates, RPS_QUANTILE)?);
        r.notes.push(format!(
            "rps: p90 of n={} windows of {} requests (median {:.1}, slowest {:.1}, fastest {:.1})",
            rates.len(),
            spec.window_requests,
            median(&rates),
            rates[0],
            rates[rates.len() - 1]
        ));
    }
    Ok((r, tr))
}

/// Per-layer metrics from the kept traced epochs' spans and counts.
fn layer_metrics(
    r: &mut Report,
    pool: &Pool,
    epochs: &[(Spans, Epoch)],
    tr: &Tracer,
) -> Result<(), String> {
    let traced: Vec<&Epoch> = epochs
        .iter()
        .filter(|(t, _)| *t == Spans::Kept)
        .map(|(_, e)| e)
        .collect();
    let reqs = traced.iter().map(|e| e.counts.requests).sum::<u64>() as f64;
    let sum = |f: &dyn Fn(&Counts) -> f64| traced.iter().map(|e| f(&e.counts)).sum::<f64>();
    let times = tr.layer_times();
    let total_us = |name: &str| times.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e3);
    let mean_us = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e3 / t.count as f64)
    };

    r.set("wire.codec_us_per_req", total_us("wire.codec") / reqs);
    r.set("wire.frames_per_req", sum(&|c| c.frames as f64) / reqs);
    r.set("wire.bytes_per_req", sum(&|c| c.bytes as f64) / reqs);
    r.set("daemon.submit_us", mean_us("daemon.submit"));
    r.set("daemon.poll_us", mean_us("daemon.poll"));
    r.set(
        "daemon.rss_kb_per_req",
        traced[0].rss_growth_kb / traced[0].counts.requests as f64,
    );

    let mut ticks_us: Vec<f64> = tr
        .durations("session.tick")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    ticks_us.sort_by(f64::total_cmp);
    r.set("session.tick_us_p50", percentile("tick", &ticks_us, 0.50)?);
    r.set("session.tick_us_p99", percentile("tick", &ticks_us, 0.99)?);
    r.set("session.ticks_per_req", sum(&|c| c.ticks as f64) / reqs);
    let mut wait: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.timed.wait_ms.iter().copied())
        .collect();
    wait.sort_by(f64::total_cmp);
    let mut service: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.timed.service_ms.iter().copied())
        .collect();
    service.sort_by(f64::total_cmp);
    r.set("session.wait_ms_p50", percentile("wait", &wait, 0.50)?);
    r.set("session.wait_ms_p99", percentile("wait", &wait, 0.99)?);
    r.set(
        "session.service_ms_p50",
        percentile("service", &service, 0.50)?,
    );
    r.set("session.pads_per_req", sum(&|c| c.pads as f64) / reqs);
    let blocks = sum(&|c| counter(c, Counter::SealBlocks) + counter(c, Counter::OpenBlocks));
    r.set(
        "session.tick_ns_per_block",
        total_us("session.tick") * 1e3 / blocks,
    );

    let per_req = |c: Counter| sum(&|k| counter(k, c)) / reqs;
    r.set(
        "secure_memory.seal_blocks_per_req",
        per_req(Counter::SealBlocks),
    );
    r.set(
        "secure_memory.open_blocks_per_req",
        per_req(Counter::OpenBlocks),
    );
    r.set(
        "secure_memory.batches_per_req",
        per_req(Counter::SealBatches) + per_req(Counter::OpenBatches),
    );
    r.set(
        "crypto.aesni_blocks_per_req",
        per_req(Counter::BackendAesNiBlocks),
    );
    r.set(
        "crypto.portable_blocks_per_req",
        per_req(Counter::BackendPortableBlocks),
    );
    r.set("crypto.mac_blocks_per_req", per_req(Counter::MacBlocks));
    r.set("vngen.advances_per_req", per_req(Counter::VnAdvances));
    r.set("journal.appends_per_req", per_req(Counter::JournalAppends));
    r.set("journal.epoch_bumps_per_req", per_req(Counter::EpochBumps));
    r.set("compute.plain_us_per_req", mean(&pool.plain_ns) / 1e3);

    r.notes.push(format!(
        "traced (spans kept): {} epochs, {reqs} requests, {} ticks, {} spans; wait n={}, service n={}, infer_plain n={}",
        traced.len(),
        ticks_us.len(),
        tr.spans().len(),
        wait.len(),
        service.len(),
        pool.plain_ns.len()
    ));
    for (name, t) in &times {
        r.notes.push(format!(
            "layer {name}: n={} total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let c = &traced[0].counts;
    r.notes.push(format!(
        "counts/epoch: requests={} frames={} bytes={} ticks={} pads={} per_tenant={:?} {}",
        c.requests,
        c.frames,
        c.bytes,
        c.ticks,
        c.pads,
        c.per_tenant,
        c.counters
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    Ok(())
}
